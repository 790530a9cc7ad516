"""One content-keyed memo for the package's fixed tables.

`memo` computes a decorated function once per content of its arguments. The
key is the function's qualified name and a content fingerprint of the
arguments, never a display name, so two cells named alike do not share a
table; an argument without one raises TypeError. Every lookup goes through
`get`. Results are shared, so the memo makes their arrays read-only, also
inside tuples, lists, dicts and package objects: writing into a shared table
raises ValueError instead of corrupting later results.
"""

import dataclasses
import functools
import hashlib

import numpy as np

_entries: dict = {}  # memo key -> shared result


def _fingerprint(x):
    """A hashable key for the content of `x`; TypeError if it has none."""
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
    # imported here: refsimplex memoises with this module
    from .refsimplex import Cell

    if isinstance(x, Cell):
        return ("Cell", x.dim, _fingerprint(x.vertices))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            _fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x))
    raise TypeError(f"no content fingerprint for {type(x).__name__}")


def freeze(x):
    """Make the arrays in `x` read-only, recursively; returns `x`."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (tuple, list)):
        for v in x:
            freeze(v)
    elif isinstance(x, dict) or type(x).__module__.startswith("exseq."):
        for v in (x if isinstance(x, dict) else vars(x)).values():
            freeze(v)
    return x


def get(key):
    """The memoised result stored under `key`, or None."""
    return _entries.get(key)


def clear():
    """Forget every memoised result."""
    _entries.clear()


def memo(fn):
    """Decorator: compute `fn` once per content of its arguments."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def memoised(*args, **kwargs):
        key = (name, _fingerprint(args), _fingerprint(sorted(kwargs.items())))
        result = get(key)
        if result is None:
            result = _entries[key] = freeze(fn(*args, **kwargs))
        return result

    return memoised

