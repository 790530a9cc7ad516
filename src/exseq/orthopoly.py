"""Orthonormal polynomial bases on reference simplices.

All polynomial spaces in this package are expressed in coefficients over an
L2-orthonormal modal basis (collapsed-coordinate Jacobi construction), so the
Euclidean inner product of coefficient vectors equals the L2 inner product of
the functions. Modes are ordered by total degree, hence coefficients for
degree N embed into degree N' > N as a prefix.

Gradient tables are obtained by complex-step differentiation of the
tabulation, which is exact to machine precision for these rational-
polynomial formulas. The modal stiffness (`stiffness`) reads no table of the
modes: each Jacobi family and its complex-step derivative are tabulated on
one 1D axis of nodes, and the integrals are products of 1D ones on the
collapsed axes.

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

import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

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


# the kinds of factor that a term of a mode's gradient takes on a collapsed
# axis x: F, F', (1 + x)/2 F' and F / ((1 - x)/2)
_VALUE, _DERIV, _XDERIV, _OVER = range(4)

# rows of the stiffness per block of its assembly
_ROW_BLOCK = 128


def _gradient_terms(dim, direction):
    """d/dxi_direction of a warped product of collapsed-axis factors on the
    biunit simplex, as its separable terms: per term, the kind of factor on
    each axis. Term m differentiates axis m: the axes before it keep their
    factors, and the axes after it divide theirs by (1 - x)/2, which the
    warping powers of those axes' factors cancel."""
    return [tuple(_VALUE if k < m else _OVER if k > m
                  else _DERIV if m == direction else _XDERIV
                  for k in range(dim)) for m in range(direction + 1)]


def _axis_factors(family, axis, x, weights):
    """The factor kinds of a family's members on collapsed axis `axis` at
    Gauss-Legendre nodes x, each row scaled by the square root of the
    weight times the axis' Jacobian ((1 - x)/2)^axis: member m's orders,
    warped by ((1 - x)/2)^m past the first axis, with the derivatives from
    one complex step."""
    z = x + 1j * _COMPLEX_STEP
    members = _family(family, z)
    if axis:
        half = 0.5 * (1.0 - z)
        for m, rows in enumerate(members):
            rows *= half**m
    table = np.concatenate(members)
    value = table.real
    deriv = table.imag / _COMPLEX_STEP
    root = np.sqrt(weights * (0.5 * (1.0 - x)) ** axis)
    return [kind * root for kind in (value, deriv, 0.5 * (1.0 + x) * deriv,
                                     value / (0.5 * (1.0 - x)))]


def stiffness(dim, degree, metric):
    """sum over direction pairs (k, l) of metric[k, l] times the Gram of
    d/dxi_k against d/dxi_l of the orthonormal modes of `degree` on the
    reference simplex: with metric Ainv Ainv^T, a cell's modal stiffness.

    Sum factorisation (Orszag 1980; Karniadakis and Sherwin 2005, section
    4.1): a mode is the warped product of one Jacobi family member per
    collapsed axis, so each gradient component is a sum of at most three
    separable terms (`_gradient_terms`), and every integral is a product of
    1D ones on one (degree + 2)-node Gauss-Legendre axis, exact for the
    polynomial integrands. Each family and its complex-step derivative are
    tabulated on that axis once. A mode column of `_plan` fixes the factors
    on every axis but the last, so per pair (u, v) of last-axis kinds, Q
    over column pairs gathers the other axes' integrals with the metric,
    and S[m, m'] = sum Q[col m, col m'] * I[last row m, last row m'] of
    the last axis' integrals I. S is assembled on and above its diagonal in
    blocks of `_ROW_BLOCK` mode rows and mirrored, so it is symmetric to
    the bit, and no other n x n array is formed. Zero metric entries are
    skipped."""
    families, order, bounds, heads = _plan(dim, degree, np.dtype(complex).str)
    x, w = leggauss(degree + 2)
    axes = [_axis_factors(f, k, x, w) for k, f in enumerate(families)]
    # each mode's row in every axis' family (its member's first row, from
    # `_family_plan`, plus its order), in the order of `_plan`'s rows:
    # lexicographic in (i, j, k), member sum(index[:k]) on axis k
    index = np.array([m for m in itertools.product(range(degree + 1),
                                                   repeat=dim)
                      if sum(m) <= degree])
    rows = [f[2][index[:, :k].sum(axis=1)] + index[:, k]
            for k, f in enumerate(families)]
    column = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    head_rows = [r[bounds[:-1]] for r in rows[:-1]]
    # the columns' mode constants, times 2^(d/2) of the unit simplex and
    # 2 of d/dx = 2 d/dxi, over the 2^(-d/2) of its measure
    const = (np.ones(1) if dim == 1 else
             2.0 * np.concatenate([np.ravel(h) for h in heads]).real)
    Q = {}
    for (k, l), g in np.ndenumerate(metric):
        if g == 0.0:
            continue
        for s, t in itertools.product(_gradient_terms(dim, k),
                                      _gradient_terms(dim, l)):
            term = g * np.outer(const, const)
            for a, h in enumerate(head_rows):
                term *= (axes[a][s[a]] @ axes[a][t[a]].T)[np.ix_(h, h)]
            Q[s[-1], t[-1]] = Q.get((s[-1], t[-1]), 0.0) + term
    last_axis = axes[-1]
    pairs = [(q, last_axis[u] @ last_axis[v].T) for (u, v), q in Q.items()]
    pos = np.empty(len(order), dtype=np.intp)
    pos[order] = np.arange(len(order))
    head, last = column[pos], rows[-1][pos]
    n = len(order)
    S = np.empty((n, n))
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        out = S[r0:r1, r0:]
        for j, (q, integ) in enumerate(pairs):
            term = q[np.ix_(head[r0:r1], head[r0:])]
            term *= integ[np.ix_(last[r0:r1], last[r0:])]
            if j:
                out += term
            else:
                out[...] = term
        S[r1:, r0:r1] = S[r0:r1, r1:].T
        diag = S[r0:r1, r0:r1]
        below = np.tril_indices(r1 - r0, -1)
        diag[below] = diag.T[below]
    return S
