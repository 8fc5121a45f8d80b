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


def test_tracer_counts_rows_by_coordinate_axis():
    # the tracer counts a batch's rows as size // shape[-1]: the trailing
    # axis of the state arrays holds the one coordinate
    tracer_mod = _load_tracer()
    mods = tracer_mod.hjkam_modules()
    model = mods["hamiltonian"].pendulum_model()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.active = True
        mods["flow"].integrate_batch(model, 0.0, 0.1, np.zeros((5, 1)), np.ones((5, 1)), 7)
        mods["hamiltonian"].legendre_batch(model, 0.0, np.zeros((4, 1)), np.ones((4, 1)))
    finally:
        # uninstall: every rebound module attribute gets its original back
        tracer.active = False
        for qual, sites in tracer.sites.items():
            for site in sites:
                mod, attr = site.split(".", 1)
                setattr(mods[mod], attr, tracer.originals[qual])
    m = tracer_mod.layer_metrics(tracer.spans)
    assert m["flow.calls"] == 1 and m["flow.point_steps"] == 35
    assert m["hamiltonian.legendre_calls"] == 1 and m["hamiltonian.legendre_rows"] == 4
    assert not hasattr(mods["flow"].integrate_batch, "__traced__")
