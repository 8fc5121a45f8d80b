"""hjkam benchmark: three pendulum workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload aubry_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25     # every workload, both modes
    python3 perfbench/run.py --selftest                      # tracer checks only

The timed region makes several passes over a workload's operations, shared
out after the set-ups, which run three times.  Every timing metric takes
each operation's best time over the passes, which keeps the host's short
slow-downs out of the figures: ``wall_s`` and ``cpu_s`` are the sums of
those best times, ``op_s_p50`` and ``op_s_p90`` their quantiles.

``--trace 0`` measures untraced and prints the end-to-end metrics.  ``--trace
1`` runs the same timed region traced and prints the per-layer metrics, the
traced wall time and the tracing overhead (spans times the measured cost of
one span; ``--all`` also prints traced minus untraced wall time).  The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``, where ``attempted`` counts solves over all passes.
The process exits non-zero when any solve raises ``HjkamError`` or fails its
check.
"""

from __future__ import annotations

import os

# one thread for BLAS/OpenMP, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
PROBE_UNITS = 200
REPIN_S = 1.0   # re-probe before an operation when the last probe is older
# The CPUs this process may use, read before it pins itself to one of them.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "op_s_p50": "s", "op_s_p90": "s", "err_max": "1"}


def _load_hjkam():
    """Import hjkam from the checkout's ``src``; time it as part of set-up."""
    src = ROOT / "src"
    if not (src / "hjkam" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hjkam sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import hjkam
    import hjkam.acceptance  # noqa: F401  (oracles for the checks)
    return hjkam, perf_counter() - t0


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS[:2]},
            "machine": platform.machine()}


class CpuPinner:
    """Keeps this process on the allowed CPU where a fixed probe runs fastest.

    On a shared host a CPU runs up to 1.6 times slower while its hardware
    sibling is busy, and which CPU is slow changes within seconds.  An
    unpinned process drifts between them, so whole runs come out fast or
    slow.  ``repin`` probes every allowed CPU and moves the process to the
    fastest; it runs between operations, never inside a timed interval.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.linspace(0.0, 1.0, 256)
        self.last = float("-inf")
        self.probes = 0
        self.chosen = {cpu: 0 for cpu in ALLOWED_CPUS}

    def probe_unit(self):
        """Time a fixed slice of interpreter and small-array NumPy work."""
        t0 = perf_counter()
        s = 0.0
        for i in range(300):
            s += (i * 0.5) % 7
        b = self.a
        for _ in range(10):
            b = self.np.sin(b) * 0.5 + self.a
        return perf_counter() - t0

    def repin(self, force=True):
        """Probe every allowed CPU and move to the fastest; unless ``force``,
        only when the last probe is older than ``REPIN_S``."""
        if len(ALLOWED_CPUS) < 2 or not (force or perf_counter() - self.last >= REPIN_S):
            return
        medians = {}
        for cpu in ALLOWED_CPUS:
            os.sched_setaffinity(0, {cpu})
            medians[cpu] = statistics.median(self.probe_unit() for _ in range(PROBE_UNITS))
        best = min(medians, key=medians.get)
        os.sched_setaffinity(0, {best})
        self.chosen[best] += 1
        self.probes += 1
        self.last = perf_counter()


def timed_region(wl, passes, pinner, tracer=None):
    """Run ``passes`` passes, each running every operation once, traced when a
    tracer is given.  Returns ``(op, output)`` for every solve, the wall and
    CPU time of every solve as ``[pass][op]``, and cache-state errors."""
    from hjkam.errors import HjkamError
    results, walls, cpus = [], [], []
    snapshot = wl.before_timed()
    if tracer is not None:
        tracer.active = True
    for _ in range(passes):
        walls.append([])
        cpus.append([])
        for op in wl.ops:
            pinner.repin(force=False)
            c1, t1 = process_time(), perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.op", len(results)):
                        out = wl.run(op)
                else:
                    out = wl.run(op)
            except HjkamError as exc:
                out = exc
            walls[-1].append(perf_counter() - t1)
            cpus[-1].append(process_time() - c1)
            results.append((op, out))
    if tracer is not None:
        tracer.active = False
    return results, walls, cpus, wl.after_timed(snapshot)


def set_up_and_time(wl, tracer=None):
    """``SETUP_REPS`` timed set-ups, with the workload's passes shared out
    after them, so that each operation's best time is taken from passes
    spread over the whole run rather than from one stretch of it.

    Returns the CPU pinner, the set-up times, every ``(op, output)``, each
    operation's best wall and CPU time, the summed wall and CPU time of all
    solves, and cache-state errors."""
    pinner = CpuPinner()
    setups, results, walls, cpus, errors = [], [], [], [], []
    for r in range(SETUP_REPS):
        pinner.repin()
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
        passes = wl.passes * (r + 1) // SETUP_REPS - wl.passes * r // SETUP_REPS
        if passes:
            res, w, c, errs = timed_region(wl, passes, pinner, tracer)
            results += res
            walls += w
            cpus += c
            errors += errs
    best_wall = [min(col) for col in zip(*walls)]
    best_cpu = [min(col) for col in zip(*cpus)]
    total_wall = sum(map(sum, walls))
    total_cpu = sum(map(sum, cpus))
    return pinner, setups, results, best_wall, best_cpu, total_wall, total_cpu, errors


def check_all(wl, results):
    """Acceptance checks outside the timed region: (failed count, err_max, messages)."""
    from hjkam.errors import HjkamError
    failed, err_max, messages = 0, 0.0, []
    for op, out in results:
        if isinstance(out, HjkamError):
            failed += 1
            messages.append(f"{type(out).__name__}: {out}")
            continue
        errors, err = wl.check(op, out)
        err_max = max(err_max, err)
        if errors:
            failed += 1
            messages.extend(errors)
    return failed, err_max, messages


def selftest(hj, tracer):
    """Every binding site wrapped, and traced runs equal untraced ones bit for bit."""
    import numpy as np
    problems = tracer.unpatched_sites()
    model = hj.pendulum_model()
    u = hj.GridFunction.from_callable(lambda x: 0.3 * np.sin(2 * np.pi * x), 32)

    def small_case():
        hj.laxoleinik.clear_kernel_cache()
        A, path = hj.action.minimal_action(model, 0.0, 0.4, [0.1], [0.35], sigma_eff=0.2,
                                           restarts=2)
        v = hj.laxoleinik.apply_T(model, u, 0.0, 0.1, sigma_eff=0.2)
        S = hj.generating.generating_batch(model, 0.0, 0.1, np.zeros((4, 1)),
                                           np.linspace(-0.2, 0.2, 4)[:, None],
                                           sigma_eff=0.2)[0]
        return [np.float64(A), path.nodes, v.values, S]

    plain = small_case()
    tracer.active = True
    traced = small_case()
    tracer.active = False
    spans = len(tracer.spans)
    tracer.spans.clear()
    hj.laxoleinik.clear_kernel_cache()
    for a, b in zip(plain, traced):
        if np.asarray(a).tobytes() != np.asarray(b).tobytes():
            problems.append("traced output differs from untraced output")
    if spans == 0:
        problems.append("tracer recorded no spans")
    return problems


def measure(name, seed, seconds, trace):
    from workloads import WORKLOADS
    hj, import_s = _load_hjkam()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        problems = selftest(hj, tracer)
        if problems:
            sys.exit("perfbench: tracer self-test failed: " + "; ".join(problems))
    wl = WORKLOADS[name](hj, seed, seconds)
    (pinner, setups, results, op_times, op_cpu, wall, cpu,
     state_errors) = set_up_and_time(wl, tracer)
    failed, err_max, messages = check_all(wl, results)
    messages += state_errors
    for msg in messages:
        print(f"perfbench: {name}: {msg}", file=sys.stderr)
    if trace:
        from tracer import layer_metrics
        values = layer_metrics(tracer.spans)
        values.update({"trace.wall_s": sum(op_times), "trace.spans": len(tracer.spans),
                       "trace.overhead_s": len(tracer.spans) * tracer.span_cost()})
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = {"wall_s": sum(op_times), "cpu_s": sum(op_cpu),
                  "setup_s": import_s + statistics.median(setups),
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "op_s_p50": statistics.median(op_times),
                  "op_s_p90": (statistics.quantiles(op_times, n=10, method="inclusive")[-1]
                               if len(op_times) > 1 else op_times[0]),
                  "err_max": err_max}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print("env " + json.dumps(environment()))
    print("ops " + json.dumps({"workload": name, "seed": seed, "ops": len(wl.ops),
                               "passes": wl.passes, "solves": len(results),
                               "solves_wall_s": wall, "solves_cpu_s": cpu,
                               "setup_runs": len(setups), "cpu_probes": pinner.probes,
                               "cpu_chosen": pinner.chosen}))
    correct = failed == 0 and not state_errors
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def per_layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_per_call"):
        return "s"
    return "count"


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        walls = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            res = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
            walls[trace] = res["metrics"].get("wall_s", res["metrics"].get("trace.wall_s"))
        if len(walls) == 2:
            print(f"  {'traced minus untraced wall_s':36s} "
                  f"{walls[1]['value'] - walls[0]['value']:.6g} s")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.selftest:
        hj, _ = _load_hjkam()
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        problems = selftest(hj, tracer)
        print(json.dumps({"selftest": "fail" if problems else "ok", "problems": problems,
                          "missing_targets": tracer.missing, "sites": tracer.sites},
                         indent=1))
        return 1 if problems else 0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
