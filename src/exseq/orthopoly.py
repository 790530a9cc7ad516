"""Orthonormal polynomial bases on reference simplices.

All polynomial spaces in this package are expressed in coefficients over an
L2-orthonormal modal basis (collapsed-coordinate Jacobi construction), so the
Euclidean inner product of coefficient vectors equals the L2 inner product of
the functions. Modes are ordered by total degree, hence coefficients for
degree N embed into degree N' > N as a prefix.

Gradients are obtained by complex-step differentiation of the tabulation,
which is exact to machine precision for these rational-polynomial formulas.

The table is built one mode column at a time (Sherwin and Karniadakis's
warped tensor product). In collapsed coordinates (a, b, c) on the biunit
tetrahedron, mode (i, j, k) is

    2^(2i+j+1.5) P_i(a) P_j^(2i+1,0)(b) ((1-b)/2)^i
        * P_k^(2i+2j+2,0)(c) ((1-c)/2)^(i+j),

so one head, ((2^(2i+j+1.5) * ta[i]) * tb[i][j]) * pow_b[i], serves the whole
k-column (i, j), whose block is (head * tc[i+j]) * pow_c[i+j]; in 2D the
column is i, with head 2^(i+0.5) * ta[i] and block (head * tb[i]) * pow_b[i],
and in 1D the table is the Legendre table itself. Each Jacobi family (tb with
alpha = 2i+1, tc with alpha = 2l+2) runs one three-term recurrence for all its
members, whose rows step together with each member's own scalars. Each block
then takes the factor 2^(d/2) of the unit simplex, and for a gradient the
imaginary part over the step. Every value is the same left-to-right product,
to the bit, as the mode-by-mode formula; neither the products nor the
epilogues may be regrouped (folding 2^1.5 into the head's constant, say),
because each regrouping rounds differently. The tables are those of the
reference simplex only: a cell's affine map is applied by `refsimplex.Cell`.
"""

import math

import numpy as np

from . import cache

_COMPLEX_STEP = 1e-100


def n_modes(dim, degree):
    return math.comb(degree + dim, dim)


def _collapsed_2d(r, s):
    den = 1.0 - s
    safe = np.abs(den) > 1e-12
    a = np.where(safe, 2.0 * (1.0 + r) / np.where(safe, den, 1.0) - 1.0, -1.0)
    return a, s


def _collapsed_3d(r, s, t):
    den1 = s + t
    safe1 = np.abs(den1) > 1e-12
    a = np.where(safe1, -2.0 * (1.0 + r) / np.where(safe1, den1, 1.0) - 1.0, -1.0)
    den2 = 1.0 - t
    safe2 = np.abs(den2) > 1e-12
    b = np.where(safe2, 2.0 * (1.0 + s) / np.where(safe2, den2, 1.0) - 1.0, -1.0)
    return a, b, t


def _jacobi_scalars(nmax, alpha):
    """Scalars of the orthonormal Jacobi recurrence (beta = 0) up to order
    nmax: order 0's value, order 1's (slope, offset, divisor), and for
    i = 1..nmax-1 the (b, a_old, a_new) of order i+1 =
    ((x - b) P_i - a_old P_{i-1}) / a_new. Every beta term of the general
    recurrence is an exact +0 or *1 here, so the scalars are its own."""
    from math import gamma, sqrt

    g = gamma(alpha + 1)
    gamma0 = 2.0 ** (alpha + 1) / (alpha + 1) * g / g
    gamma1 = (alpha + 1) / (alpha + 3) * gamma0
    first = (alpha + 2, alpha / 2, sqrt(gamma1))
    aold = 2.0 / (2 + alpha) * sqrt((alpha + 1) / (alpha + 3))
    steps = []
    for i in range(1, nmax):
        h1 = 2 * i + alpha
        anew = 2.0 / (h1 + 2) * sqrt(
            ((i + 1) * (i + 1 + alpha)) ** 2 / ((h1 + 1) * (h1 + 3)))
        bnew = -(alpha**2) / (h1 * (h1 + 2))
        steps.append((bnew, aold, anew))
        aold = anew
    return 1.0 / sqrt(gamma0), first, steps


def _family_plan(degree, shift, count, dtype):
    """Row map and recurrence coefficients of the Jacobi family whose member
    m has alpha = 2m + shift, beta = 0 and orders 0..degree-m.

    Members are stored one after another (member-major), so a member's
    orders are contiguous rows from `start[m]`; the members that have order
    n are a prefix, `counts[n]` long, at rows `rows[n, :counts[n]]`. The
    coefficients are each member's scalars from `_jacobi_scalars`, one
    column per member (unused entries 1): order 0's values `c0`, order 1's
    (slope, offset, divisor) `first`, and order n+1's (b, a_old, a_new)
    `steps[n-1]`. They are held in the points' dtype, the type numpy gives
    a Python scalar operand, so each operation rounds as the scalar one.
    """
    sizes = [degree - m + 1 for m in range(count)]
    start = np.cumsum([0] + sizes[:-1])
    rows = start[None, :] + np.arange(degree + 1)[:, None]
    counts = [min(count, degree - n + 1) for n in range(degree + 1)]
    c0 = np.empty(count, dtype=dtype)
    first = np.ones((3, count), dtype=dtype)
    steps = np.ones((max(degree - 1, 0), 3, count), dtype=dtype)
    for m in range(count):
        c0[m], order1, later = _jacobi_scalars(degree - m, 2 * m + shift)
        if degree > m:
            first[:, m] = order1
        for i, step in enumerate(later):
            steps[i, :, m] = step
    return degree, sum(sizes), start, rows, counts, c0, first, steps


def _rows(k, x):
    """A fresh (k, len(x)) array for a ufunc's `out`: given one, numpy runs
    its inner loop along the points, not down a (k, 1) operand."""
    return np.empty((k, len(x)), dtype=x.dtype)


def _family(plan, x):
    """The members of a Jacobi family (see `_family_plan`) at x, as one
    (order, point) view per member into a shared triangle."""
    degree, n_rows, start, rows, counts, c0, first, steps = plan
    out = np.empty((n_rows, len(x)), dtype=x.dtype)
    prev = _rows(len(c0), x)
    prev[...] = c0[:, None]
    out[rows[0]] = prev
    if degree > 0:
        # ((slope * x) / 2 + offset) / divisor, in place
        k = counts[1]
        slope, offset, divisor = first[:, :k, None]
        cur = np.multiply(slope, x, out=_rows(k, x))
        cur /= 2
        cur += offset
        cur /= divisor
        out[rows[1, :k]] = cur
        for n in range(1, degree):
            # ((x - bnew) * cur - aold * prev) / anew, in place
            k = counts[n + 1]
            bnew, aold, anew = steps[n - 1, :, :k, None]
            nxt = np.subtract(x, bnew, out=_rows(k, x))
            nxt *= cur[:k]
            nxt -= np.multiply(aold, prev[:k], out=prev[:k])
            nxt /= anew
            out[rows[n + 1, :k]] = nxt
            prev, cur = cur, nxt
    return [out[s : s + degree - m + 1] for m, s in enumerate(start)]


@cache.memo
def _plan(dim, degree, dtype):
    """The point-independent part of a (dim, degree) table at points of
    `dtype`: the plans of its Jacobi families (ta, then tb, tc), the mode
    rows of its columns, one after another, with each column's bounds in
    them, and the columns' head constants. 2D columns are i, with mode
    (i, j) in row (i+j)(i+j+1)/2 + i and constant 2^(i+0.5); 3D columns are
    (i, j), grouped by i with one (J, 1) column of constants 2^(2i+j+1.5)
    per group."""
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    families = [_family_plan(degree, 0, 1, dtype)] + [
        _family_plan(degree, shift, degree + 1, dtype)
        for shift in range(1, dim)]
    if dim == 1:
        return families, np.arange(degree + 1), [0, degree + 1], []
    if dim == 2:
        rows = [[(i + j) * (i + j + 1) // 2 + i for j in range(degree - i + 1)]
                for i in range(degree + 1)]
        heads = [2.0 ** (i + 0.5) for i in range(degree + 1)]
    else:
        rows = [[n_modes(3, q - 1) + sum(q - r + 1 for r in range(i)) + j
                 for q in range(i + j, degree + 1)]
                for i in range(degree + 1) for j in range(degree - i + 1)]
        heads = [np.array([2.0 ** (2 * i + j + 1.5)
                           for j in range(degree - i + 1)], dtype=dtype)[:, None]
                 for i in range(degree + 1)]
    bounds = np.cumsum([0] + [len(r) for r in rows]).tolist()
    return families, np.concatenate(rows), bounds, heads


def _columns(dim, degree, pts):
    """(rows, block) per mode column of `tabulate`'s table at reference
    points pts (n_pts, dim): the block holds the table's values at those
    mode rows, the factor 2^(d/2) applied. A block may be overwritten by
    the next one."""
    families, order, bounds, heads = _plan(dim, degree, pts.dtype.str)
    columns = (order[a:b] for a, b in zip(bounds, bounds[1:]))
    if dim == 1:
        yield next(columns), _family(families[0], pts[:, 0])[0]
        return
    x = 2.0 * pts - 1.0
    scale = 2.0 ** (dim / 2.0)
    if dim == 2:
        a, b = _collapsed_2d(x[:, 0], x[:, 1])
        half1mb = 0.5 * (1.0 - b)
        (ta,) = _family(families[0], a)
        tb = _family(families[1], b)
        pow_b = [half1mb**i for i in range(degree + 1)]
        for i in range(degree + 1):
            block = heads[i] * ta[i] * tb[i]
            block *= pow_b[i]
            block *= scale
            yield next(columns), block
        return
    a, b, c = _collapsed_3d(x[:, 0], x[:, 1], x[:, 2])
    half1mb = 0.5 * (1.0 - b)
    half1mc = 0.5 * (1.0 - c)
    (ta,) = _family(families[0], a)
    tb = _family(families[1], b)
    tc = _family(families[2], c)
    pow_b = [half1mb**i for i in range(degree + 1)]
    pow_c = [half1mc**l for l in range(degree + 1)]
    buf = np.empty((degree + 1, len(pts)), dtype=x.dtype)
    for i in range(degree + 1):
        # the heads of the columns (i, 0..degree-i)
        head = np.multiply(heads[i], ta[i], out=_rows(len(heads[i]), x))
        head *= tb[i]
        head *= pow_b[i]
        for j in range(degree - i + 1):
            block = np.multiply(head[j], tc[i + j], out=buf[: degree - i - j + 1])
            block *= pow_c[i + j]
            block *= scale
            yield next(columns), block


def _points(pts, dtype):
    pts = np.asarray(pts, dtype=dtype)
    return pts[:, None] if pts.ndim == 1 else pts


def tabulate(dim, degree, pts):
    """Values of the orthonormal modal basis on the reference simplex.

    Reference domains: [-1,1] in 1D, the unit triangle in 2D, the unit
    tetrahedron in 3D. Returns an array of shape (n_modes, n_pts).
    """
    pts = _points(pts, np.result_type(np.float64, np.asarray(pts).dtype))
    out = np.empty((n_modes(dim, degree), len(pts)), dtype=pts.dtype)
    for rows, block in _columns(dim, degree, pts):
        out[rows] = block
    return out


def tabulate_grad(dim, degree, pts, direction):
    """d/dxi_direction of the modal basis on the reference simplex, shape
    (n_modes, n_pts)."""
    shifted = _points(pts, float).astype(complex)
    shifted[:, direction] += 1j * _COMPLEX_STEP
    out = np.empty((n_modes(dim, degree), len(shifted)))
    buf = np.empty((degree + 1, len(shifted)))
    for rows, block in _columns(dim, degree, shifted):
        out[rows] = np.divide(block.imag, _COMPLEX_STEP, out=buf[: len(block)])
    return out
