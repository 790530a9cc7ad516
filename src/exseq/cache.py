"""One content-keyed memo for the package's fixed tables, plus a disk tier.

`memo` computes a decorated function once per content of its arguments. The
key is the function's qualified name and a content fingerprint of the
arguments, never a display name, so two cells named alike do not share a
table; an argument without one raises TypeError. Every lookup goes through
`get`. Results are shared, so the memo makes their arrays read-only, also
inside tuples, lists, dicts and package objects: writing into a shared table
raises ValueError instead of corrupting later results.

With EXSEQ_CACHE_DIR set, `save` and `load` keep entries on disk as .npz files
named by a label and a content digest. Each file carries `STAMP`, a blake2b of
the package's source files; `load` ignores an entry saved by other source.
Only the base spaces of `polyspace.build_space` (h1, l2, hcurl, hdiv) persist;
it recomputes and overwrites an entry whose basis is not orthonormal rows of
the closed-form shape.
"""

import dataclasses
import functools
import hashlib
import os
from pathlib import Path

import numpy as np

_entries: dict = {}  # memo key -> shared result

STAMP = hashlib.blake2b(
    b"".join(f.read_bytes() for f in sorted(Path(__file__).parent.glob("*.py"))),
    digest_size=16,
).hexdigest()


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
    # imported here: both modules memoise with this one
    from .polyspace import PolySpace
    from .refsimplex import Cell, ReferenceCell

    if isinstance(x, Cell):
        return ("Cell", x.dim, _fingerprint(x.vertices))
    if isinstance(x, ReferenceCell):  # built from its cell's vertices alone
        return _fingerprint(x.cell)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            _fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, PolySpace):
        return ("PolySpace", _fingerprint(x.cell), x.value_dim, x.degree,
                _fingerprint(x.basis))
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
    """Forget every memoised result; disk entries stay."""
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


def _disk_path(label, content):
    root = os.environ.get("EXSEQ_CACHE_DIR")
    if not root:
        return None
    digest = hashlib.blake2b(repr(_fingerprint(content)).encode(), digest_size=8)
    return os.path.join(root, f"exseq-{label}-{digest.hexdigest()}.npz")


def load(label, content):
    """Arrays saved under `label` for `content` by this source, or None."""
    path = _disk_path(label, content)
    if path is None or not os.path.exists(path):
        return None
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    return arrays if str(arrays.pop("stamp", "")) == STAMP else None


def save(label, content, **arrays):
    """Store `arrays` under `label` for `content` if EXSEQ_CACHE_DIR is set."""
    path = _disk_path(label, content)
    if path:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "wb") as fh:
            np.savez(fh, stamp=STAMP, **arrays)
        os.replace(path + ".tmp", path)
