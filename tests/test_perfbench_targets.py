import importlib.util
from pathlib import Path


import numpy as np


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # the benchmark tracer skips a target it cannot find; a renamed or
    # deleted function must fail here instead of silently dropping a counter
    tracer = _load_tracer()
    mods = tracer.hjkam_modules()
    missing = [f"{m}.{f}" for m, f, _ in tracer.TARGETS
               if not callable(getattr(mods.get(m), f, None))]
    assert tracer.TARGETS and missing == []


def _traced(tracer_mod, mods, run):
    """The spans of ``run()`` under an installed tracer, uninstalled after:
    every rebound module attribute gets its original back."""
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.active = True
        run()
    finally:
        tracer.active = False
        for qual, sites in tracer.sites.items():
            for site in sites:
                mod, attr = site.split(".", 1)
                setattr(mods[mod], attr, tracer.originals[qual])
    return tracer.spans


def test_tracer_counts_rows_by_coordinate_axis():
    # the tracer counts a batch's rows as size // shape[-1]: the trailing
    # axis of the state arrays holds the one coordinate
    tracer_mod = _load_tracer()
    mods = tracer_mod.hjkam_modules()
    model = mods["hamiltonian"].pendulum_model()

    def run():
        mods["flow"].integrate_batch(model, 0.0, 0.1, np.zeros((5, 1)), np.ones((5, 1)), 7)
        mods["hamiltonian"].legendre_batch(model, 0.0, np.zeros((4, 1)), np.ones((4, 1)))

    m = tracer_mod.layer_metrics(_traced(tracer_mod, mods, run))
    assert m["flow.calls"] == 1 and m["flow.point_steps"] == 35
    assert m["hamiltonian.legendre_calls"] == 1 and m["hamiltonian.legendre_rows"] == 4
    assert not hasattr(mods["flow"].integrate_batch, "__traced__")


def test_tracer_counts_the_problems_of_a_kernel_build():
    # the tracer counts a kernel miss, and its problems, from the
    # generating_batch span directly under action_kernel: a build that
    # reached its values by another function would read 0 for both.  An
    # autonomous even pendulum build with n = 16 and D = 4 solves
    # (n / 2 + 1) + D n / 2 + floor(D / 2) = 43 entries (see action_kernel)
    tracer_mod = _load_tracer()
    mods = tracer_mod.hjkam_modules()
    lx = mods["laxoleinik"]
    model = mods["hamiltonian"].pendulum_model()
    n, D = 16, 4
    lx.clear_kernel_cache()
    try:
        spans = _traced(tracer_mod, mods,
                        lambda: lx.action_kernel(model, 0.0, 0.1, n, D, sigma_eff=0.2))
    finally:
        lx.clear_kernel_cache()
    m = tracer_mod.layer_metrics(spans)
    assert m["laxoleinik.kernel_misses"] == 1
    assert m["laxoleinik.kernel_problems"] == (n // 2 + 1) + D * n // 2 + D // 2 == 43
