"""Outside-in span tracer for the exseq package.

The tracer changes nothing in the package's source. `Tracer.install` replaces,
by identity, every public function of every `exseq` module with a wrapper,
in every module namespace that binds it: `quadrature` and
`make_reference_cell` are imported by name into several modules, so patching
only their home module would miss calls. It also wraps the public methods
listed in METHODS and the numpy/scipy linalg entry points in LINALG.

Each call becomes one span (name, start, end, parent) held in memory;
`write_spans` saves them at the end of a run. `layer_stats` turns the spans
into per-layer counts and self times; a span's self time is its duration
minus the durations of its direct children (calls are synchronous, so
children never overlap).
"""

import functools
import hashlib
import importlib
import pkgutil
import time

import numpy as np
import scipy.linalg

# class -> methods wrapped; a span is named <module>.<Class>.<method>, with
# __init__ as "init" and __call__ as "eval"
METHODS = {
    ("projectors", "ProjectorPlan"): ("apply", "apply_polynomials",
                                      "condition_residual"),
    ("sobolev", "SobolevGram"): ("__init__", "fractional_quadform",
                                 "dual_quadform"),
    ("fields", "AnalyticField"): ("__call__", "jet"),
    ("poincare", "RegularizedInverse"): ("__init__", "matrix", "apply"),
}
_METHOD_ALIAS = {"__init__": "init", "__call__": "eval"}

# span name -> the namespaces whose attribute of that name is wrapped; numpy
# and scipy spellings share one name so a switch between them stays visible
LINALG = {
    "svd": (np.linalg, scipy.linalg),
    "pinv": (np.linalg, scipy.linalg),
    "inv": (np.linalg, scipy.linalg),
    "solve": (np.linalg, scipy.linalg),
    "lstsq": (np.linalg, scipy.linalg),
    "eigh": (np.linalg, scipy.linalg),
    "eigvalsh": (np.linalg, scipy.linalg),
    "qr": (np.linalg, scipy.linalg),
    "matrix_rank": (np.linalg,),
    "cho_factor": (scipy.linalg,),
    "cho_solve": (scipy.linalg,),
    "lu_factor": (scipy.linalg,),
    "lu_solve": (scipy.linalg,),
}

# functions whose share of calls with already-seen arguments is recorded:
# the calls a memo on that function could save
REPEAT_TRACKED = frozenset({
    "orthopoly.tabulate",
    "refsimplex.quadrature",
    "polyspace.deriv_matrix",
    "polyspace.coord_matrix",
    "polyspace.build_space",
    "sobolev.gram",
    "projectors.build_plan",
})


def exseq_modules():
    """Every submodule of the installed exseq package, imported."""
    import exseq

    return {
        info.name: importlib.import_module(f"exseq.{info.name}")
        for info in pkgutil.iter_modules(exseq.__path__)
    }


def public_functions(modules):
    """{original function: span name} for public functions defined in exseq.

    A function is named after the module that defines it, whichever module
    namespace it is reached through.
    """
    found = {}
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            home = getattr(obj, "__module__", "") or ""
            if home.startswith("exseq.") and getattr(obj, "__name__", "") == attr:
                found[obj] = f"{home.split('.', 1)[1]}.{attr}"
    return found


def _fingerprint(x):
    """A hashable content key for call arguments."""
    if isinstance(x, np.ndarray):
        data = np.ascontiguousarray(x)
        return (data.dtype.str, data.shape,
                hashlib.blake2b(data.view(np.uint8), digest_size=16).digest())
    if isinstance(x, np.generic):
        return x.item()
    if x is None or isinstance(x, (bool, int, float, complex, str)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_fingerprint(v) for v in x)
    key = getattr(x, "key", None)
    if isinstance(key, (str, int, tuple)):
        return (type(x).__name__, key)
    return (type(x).__name__, id(x))


def _dims(a):
    shape = np.shape(a)
    if len(shape) < 2:
        n = shape[0] if shape else 1
        return 1, n, 1
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch, shape[-2], shape[-1]


def _nrhs(b):
    shape = np.shape(b)
    return shape[-1] if len(shape) >= 2 else 1


def linalg_flops(name, args, kwargs):
    """Textbook flop estimate of one linalg call from its operand shapes.

    A computed count, not a measurement: it ignores blocking, cache misses
    and which LAPACK routine runs.
    """
    if not args:
        return 0.0
    if name in ("cho_solve", "lu_solve"):  # first argument is (factor, ...)
        batch, n, _ = _dims(args[0][0])
        return batch * 2.0 * n * n * _nrhs(args[1])
    batch, m, n = _dims(args[0])
    k = min(m, n)
    if name == "svd":
        flops = 4.0 * m * n * k + 8.0 * k**3
    elif name == "pinv":
        flops = 4.0 * m * n * k + 8.0 * k**3 + 2.0 * m * n * k
    elif name == "matrix_rank":
        flops = 4.0 * m * n * k - 4.0 * k**3 / 3.0
    elif name == "qr":
        flops = 4.0 * m * n * k - 4.0 * k**3 / 3.0
    elif name == "lstsq":
        flops = 4.0 * m * n * k + 8.0 * k**3 + 2.0 * m * n * _nrhs(args[1])
    elif name == "inv":
        flops = 2.0 * n**3
    elif name == "solve":
        flops = 2.0 * n**3 / 3.0 + 2.0 * n * n * _nrhs(args[1])
    elif name == "eigh":
        generalized = len(args) > 1 or kwargs.get("b") is not None
        flops = (12.0 if generalized else 9.0) * n**3
    elif name == "eigvalsh":
        generalized = len(args) > 1 or kwargs.get("b") is not None
        flops = (10.0 if generalized else 4.0) * n**3 / 3.0
    elif name == "cho_factor":
        flops = n**3 / 3.0
    elif name == "lu_factor":
        flops = 2.0 * n**3 / 3.0
    else:
        flops = 0.0
    return batch * flops


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_index = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self._patches = []
        self._seen = {}
        self.counters = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        idx = self.name_index.get(name)
        if idx is None:
            idx = self.name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name, fn, after=None):
        """A wrapper of `fn` recording one span per call named `name`.

        `after(tracer, args, kwargs, result, duration)` runs once the span
        has closed, for counts that need the arguments or the result.
        """
        name_id = self._name_id(name)
        clock = self.clock
        spans_name, starts, ends = self.span_name, self.start, self.end
        parents, stack = self.parent, self._stack
        track = name in REPEAT_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            spans_name.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if track:
                self._note_repeat(name, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result, ends[idx] - starts[idx])
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def _note_repeat(self, name, args, kwargs):
        key = (_fingerprint(args), _fingerprint(sorted(kwargs.items())))
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.add(f"{name}.repeats", 1)
        else:
            seen.add(key)

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the package's public functions, listed methods and linalg."""
        modules = exseq_modules()
        originals = public_functions(modules)
        wrappers = {
            fn: self.wrap(name, fn, _AFTER.get(name))
            for fn, name in originals.items()
        }
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and not isinstance(obj, type):
                    wrapper = wrappers.get(obj)
                    if wrapper is not None:
                        self._patch(mod, attr, wrapper)
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(modules.get(mod_name), cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    continue
                name = f"{mod_name}.{cls_name}.{_METHOD_ALIAS.get(meth, meth)}"
                self._patch(cls, meth, self.wrap(name, fn, _AFTER.get(name)))
        for fn_name, owners in LINALG.items():
            for owner in owners:
                fn = getattr(owner, fn_name, None)
                if fn is not None:
                    self._patch(owner, fn_name, self.wrap(
                        f"linalg.{fn_name}", fn, _linalg_after(fn_name)))
        return originals

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output -------------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.span_name, dtype=np.int64),
                np.asarray(self.start, dtype=float),
                np.asarray(self.end, dtype=float),
                np.asarray(self.parent, dtype=np.int64))

    def write_spans(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names, dtype=str),
                            name_id=name_id, start=start, end=end,
                            parent=parent)


def _tabulate_after(tracer, args, kwargs, result, duration):
    tracer.add("orthopoly.tabulate.mb_out", result.nbytes / 1e6)


def _cache_get_after(tracer, args, kwargs, result, duration):
    tracer.add("cache.get.hits", result is not None)


def _build_plan_after(tracer, args, kwargs, result, duration):
    operator = args[0] if args else kwargs.get("operator")
    tracer.add(f"projectors.build_plan.{operator}.incl_s", duration)


def _linalg_after(fn_name):
    def after(tracer, args, kwargs, result, duration):
        tracer.add(f"linalg.{fn_name}.gflop",
                   linalg_flops(fn_name, args, kwargs) / 1e9)

    return after


_AFTER = {
    "orthopoly.tabulate": _tabulate_after,
    "cache.get": _cache_get_after,
    "projectors.build_plan": _build_plan_after,
}


def layer_stats(tracer, wall_s):
    """Per-name calls, self and inclusive seconds, plus derived ratios.

    `untraced.self_s` is the part of `wall_s` that no span covers.
    """
    name_id, start, end, parent = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = dur - child
    n_names = len(tracer.names)
    calls = np.bincount(name_id, minlength=n_names)
    self_by = np.bincount(name_id, weights=self_s, minlength=n_names)
    incl_by = np.bincount(name_id, weights=dur, minlength=n_names)
    stats = {}
    for i, name in enumerate(tracer.names):
        stats[f"{name}.calls"] = int(calls[i])
        stats[f"{name}.self_s"] = float(self_by[i])
        stats[f"{name}.incl_s"] = float(incl_by[i])
    for key, value in tracer.counters.items():
        stats[key] = value
    for name in REPEAT_TRACKED:
        n = stats.get(f"{name}.calls", 0)
        stats[f"{name}.repeat_frac"] = (
            stats.get(f"{name}.repeats", 0) / n if n else 0.0)
    n_get = stats.get("cache.get.calls", 0)
    stats["cache.get.hit_frac"] = (
        stats.get("cache.get.hits", 0) / n_get if n_get else 0.0)
    stats["studies.self_s"] = float(sum(
        self_by[i] for i, name in enumerate(tracer.names)
        if name.startswith("studies.")))
    stats["untraced.self_s"] = float(wall_s - dur[~has_parent].sum())
    stats["trace.spans"] = int(len(dur))
    return stats
