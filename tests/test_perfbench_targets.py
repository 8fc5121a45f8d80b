import importlib.util
from pathlib import Path


def test_tracer_targets_resolve():
    # the benchmark tracer skips a target it cannot find; a renamed or
    # deleted function must fail here instead of silently dropping a counter
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = tracer.hjkam_modules()
    missing = [f"{m}.{f}" for m, f, _ in tracer.TARGETS
               if not callable(getattr(mods.get(m), f, None))]
    assert tracer.TARGETS and missing == []
