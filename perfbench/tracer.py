"""Span and counter tracing for the benchmark, patched in from outside hjkam.

hjkam binds its functions with ``from .x import f``, so each function lives
under several module names.  ``Tracer.install`` wraps a function once and
rebinds the wrapper at every module attribute that holds the original, in
every loaded ``hjkam`` module.  A wrapper records a span (name, parent,
operation id, start, end) and the work counters read from its arguments and
result, and only while the tracer is active; otherwise it calls straight
through.  ``layer_metrics`` folds the spans into per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(a):
    """Number of points in a batch whose last axis holds the coordinates."""
    a = np.asarray(a)
    return 1 if a.ndim <= 1 else int(a.size // a.shape[-1])


def _flow_attrs(args, kwargs, out):
    rows = _rows(_arg(args, kwargs, 3, "Q0"))
    steps = int(_arg(args, kwargs, 5, "n_steps"))
    mono = bool(_arg(args, kwargs, 6, "want_monodromy", False))
    return {"rows": rows, "point_steps": rows * steps, "mono": mono}


def _legendre_attrs(args, kwargs, out):
    return {"rows": _rows(_arg(args, kwargs, 3, "v"))}


def _pair_attrs(args, kwargs, out):
    return {"rows": _rows(_arg(args, kwargs, 3, "Q0"))}


def _chain_attrs(args, kwargs, out):
    return {"chains": int(np.shape(_arg(args, kwargs, 3, "pts"))[0])}


def _kernel_attrs(args, kwargs, out):
    return {"width": int(np.shape(out)[1])}


# (defining module, function, attribute reader).  The layer of a span is the
# module that defines the function.  ``action._relax_chain`` is private: it
# is the one place the number of relaxed chains is visible, and it is
# skipped (``action.chains`` reads 0) if a later version drops it.
TARGETS = [
    ("hamiltonian", "legendre_batch", _legendre_attrs),
    ("flow", "integrate_batch", _flow_attrs),
    ("generating", "shoot_batch", _pair_attrs),
    ("generating", "generating_batch", _pair_attrs),
    ("action", "minimal_action", None),
    ("action", "minimal_action_batch", _pair_attrs),
    ("action", "_relax_chain", _chain_attrs),
    ("laxoleinik", "action_kernel", _kernel_attrs),
    ("laxoleinik", "apply_T", None),
    ("laxoleinik", "apply_T_dual", None),
    ("weakkam", "critical_value", None),
    ("weakkam", "is_subsolution", None),
    ("weakkam", "weak_kam_solve", None),
    ("weakkam", "aubry_set", None),
    ("weakkam", "fixed_point_residual", None),
    ("weakkam", "mane_potential", None),
]

def hjkam_modules():
    """Import and return every submodule of the hjkam package, by short name."""
    import hjkam
    mods = {"hjkam": hjkam}
    for info in pkgutil.iter_modules(hjkam.__path__):
        mods[info.name] = importlib.import_module(f"hjkam.{info.name}")
    return mods


class Tracer:
    """In-memory spans and counters for one process (single-threaded)."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []      # [name, parent index, op id, start, end, attrs]
        self._stack = []
        self.originals = {}  # qualified name -> original function
        self.sites = {}      # qualified name -> module attributes rebound
        self.missing = []

    def wrap(self, name, fn, attrs_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, self._stack[-1] if self._stack else None, self.op,
                   0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self._stack.pop()
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, kwargs, out)
            return out
        wrapper.__traced__ = fn
        return wrapper

    def install(self):
        mods = hjkam_modules()
        for modname, fname, attrs_fn in TARGETS:
            orig = getattr(mods[modname], fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            qual = f"{modname}.{fname}"
            wrapper = self.wrap(qual, orig, attrs_fn)
            self.originals[qual] = orig
            self.sites[qual] = []
            for site, mod in mods.items():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self.sites[qual].append(f"{site}.{attr}")

    def unpatched_sites(self):
        """Module attributes still bound to an original after ``install``."""
        originals = {id(f): q for q, f in self.originals.items()}
        return [f"{site}.{attr} -> {originals[id(val)]}"
                for site, mod in hjkam_modules().items()
                for attr, val in vars(mod).items() if id(val) in originals]

    def span_cost(self, calls=20000):
        """Measured extra seconds per recorded span: a wrapped no-op call,
        with the batch-row attribute reader, against the bare call."""
        probe = np.zeros((64, 1))
        fn = lambda model, tau, t, Q0: None  # noqa: E731
        wrapped = self.wrap("calibration", fn, _pair_attrs)
        keep, self.active = len(self.spans), True
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(None, 0.0, 1.0, probe)
        traced = perf_counter() - t0
        self.active = False
        del self.spans[keep:]
        t0 = perf_counter()
        for _ in range(calls):
            fn(None, 0.0, 1.0, probe)
        return max(traced - (perf_counter() - t0), 0.0) / calls

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Benchmark-level root span of one operation; its id tags the tree."""
        if not self.active:
            yield
            return
        self.op = op
        rec = [name, self._stack[-1] if self._stack else None, op,
               perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            self.op = None


def layer_metrics(spans):
    """Per-layer counters and self times from the recorded spans."""
    n = len(spans)
    dur = np.array([s[4] - s[3] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[1] is not None:
            child[s[1]] += d
    self_t = dur - child
    name = [s[0] for s in spans]
    layer = [nm.split(".")[0] for nm in name]
    kids = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[1] is not None:
            kids[s[1]].append(i)

    def ancestors(i):
        p = spans[i][1]
        while p is not None:
            yield p
            p = spans[p][1]

    def idx(nm):
        return [i for i in range(n) if name[i] == nm]

    def layer_self(ly):
        return float(sum(self_t[i] for i in range(n) if layer[i] == ly))

    def ratio(a, b):
        return float(a) / b if b else 0.0

    m = {}
    flows = idx("flow.integrate_batch")
    rows = sum(spans[i][5]["rows"] for i in flows)
    steps = sum(spans[i][5]["point_steps"] for i in flows)
    m["flow.calls"] = len(flows)
    m["flow.point_steps"] = steps
    m["flow.mono_point_steps"] = sum(spans[i][5]["point_steps"] for i in flows
                                     if spans[i][5]["mono"])
    m["flow.self_s"] = layer_self("flow")
    m["flow.point_steps_per_s"] = ratio(steps, m["flow.self_s"])
    m["flow.rows_per_call"] = ratio(rows, len(flows))

    leg = idx("hamiltonian.legendre_batch")
    m["hamiltonian.legendre_calls"] = len(leg)
    m["hamiltonian.legendre_rows"] = sum(spans[i][5]["rows"] for i in leg)
    m["hamiltonian.self_s"] = layer_self("hamiltonian")

    shoots = idx("generating.shoot_batch")
    gens = idx("generating.generating_batch")
    m["generating.shoot_calls"] = len(shoots)
    m["generating.shoot_problems"] = sum(spans[i][5]["rows"] for i in shoots)
    m["generating.gen_calls"] = len(gens)
    m["generating.gen_problems"] = sum(spans[i][5]["rows"] for i in gens)
    m["generating.self_s"] = layer_self("generating")
    gen_steps = sum(spans[i][5]["point_steps"] for i in flows
                    if spans[i][1] is not None and layer[spans[i][1]] == "generating")
    m["generating.point_steps_per_problem"] = ratio(gen_steps,
                                                    m["generating.shoot_problems"])

    solves = idx("action.minimal_action") + idx("action.minimal_action_batch")
    m["action.solves"] = len(solves)
    m["action.chains"] = sum(spans[i][5]["chains"] for i in idx("action._relax_chain"))
    shoot_in_action = sum(1 for i in shoots
                          if any(layer[a] == "action" for a in ancestors(i)))
    m["action.shoot_calls_per_solve"] = ratio(shoot_in_action, len(solves))
    m["action.self_s"] = layer_self("action")

    kernels = idx("laxoleinik.action_kernel")
    solver_names = ("generating.generating_batch", "action.minimal_action_batch")
    misses = [i for i in kernels if any(name[k] in solver_names for k in kids[i])]
    applies = idx("laxoleinik.apply_T") + idx("laxoleinik.apply_T_dual")
    m["laxoleinik.kernel_calls"] = len(kernels)
    m["laxoleinik.kernel_misses"] = len(misses)
    m["laxoleinik.kernel_build_s"] = float(sum(dur[i] for i in misses))
    m["laxoleinik.kernel_problems"] = sum(spans[k][5]["rows"] for i in misses
                                          for k in kids[i] if name[k] in solver_names)
    m["laxoleinik.kernel_width_max"] = max((spans[i][5]["width"] for i in kernels),
                                           default=0)
    m["laxoleinik.radius_doublings"] = sum(
        max(0, sum(1 for k in kids[i] if name[k] == "laxoleinik.action_kernel") - 1)
        for i in applies)
    m["laxoleinik.apply_calls"] = len(applies)
    m["laxoleinik.apply_self_s"] = float(sum(self_t[i] for i in applies))
    m["laxoleinik.apply_s_per_call"] = ratio(m["laxoleinik.apply_self_s"], len(applies))

    wk = [i for i in range(n) if layer[i] == "weakkam"]
    m["weakkam.calls"] = len(wk)
    m["weakkam.operator_applications"] = sum(
        1 for i in applies if spans[i][1] is not None and layer[spans[i][1]] == "weakkam")
    m["weakkam.self_s"] = layer_self("weakkam")
    return m

