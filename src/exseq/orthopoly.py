"""Orthonormal polynomial bases on reference simplices.

All polynomial spaces in this package are expressed in coefficients over an
L2-orthonormal modal basis (collapsed-coordinate Jacobi construction), so the
Euclidean inner product of coefficient vectors equals the L2 inner product of
the functions. Modes are ordered by total degree, hence coefficients for
degree N embed into degree N' > N as a prefix.

Gradients are obtained by complex-step differentiation of the tabulation,
which is exact to machine precision for these rational-polynomial formulas.
"""

import math

import numpy as np

from . import cache

_COMPLEX_STEP = 1e-100


@cache.memo
def mode_indices(dim, degree):
    """Exponent tuples of the modal basis, grouped by total degree."""
    out = []
    if dim == 1:
        out = [(n,) for n in range(degree + 1)]
    elif dim == 2:
        for q in range(degree + 1):
            for i in range(q + 1):
                out.append((i, q - i))
    elif dim == 3:
        for q in range(degree + 1):
            for i in range(q + 1):
                for j in range(q - i + 1):
                    out.append((i, j, q - i - j))
    else:
        raise ValueError(f"unsupported dimension {dim}")
    return tuple(out)


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


def _jacobi_table(nmax, alpha, beta, x):
    """All orders 0..nmax of the orthonormal Jacobi polynomial at x."""
    from math import gamma, sqrt

    out = np.empty((nmax + 1,) + x.shape, dtype=x.dtype)
    gamma0 = (
        2.0 ** (alpha + beta + 1)
        / (alpha + beta + 1)
        * gamma(alpha + 1)
        * gamma(beta + 1)
        / gamma(alpha + beta + 1)
    )
    out[0] = 1.0 / sqrt(gamma0)
    if nmax == 0:
        return out
    gamma1 = (alpha + 1) * (beta + 1) / (alpha + beta + 3) * gamma0
    out[1] = ((alpha + beta + 2) * x / 2 + (alpha - beta) / 2) / sqrt(gamma1)
    aold = 2.0 / (2 + alpha + beta) * sqrt(
        (alpha + 1) * (beta + 1) / (alpha + beta + 3)
    )
    for i in range(1, nmax):
        h1 = 2 * i + alpha + beta
        anew = (
            2.0
            / (h1 + 2)
            * sqrt(
                (i + 1)
                * (i + 1 + alpha + beta)
                * (i + 1 + alpha)
                * (i + 1 + beta)
                / ((h1 + 1) * (h1 + 3))
            )
        )
        bnew = -(alpha**2 - beta**2) / (h1 * (h1 + 2))
        out[i + 1] = ((x - bnew) * out[i] - aold * out[i - 1]) / anew
        aold = anew
    return out


def _tabulate_biunit(dim, degree, pts):
    pts = np.asarray(pts)
    if pts.ndim == 1:
        pts = pts[:, None]
    idx = mode_indices(dim, degree)
    vals = np.empty((len(idx), pts.shape[0]), dtype=pts.dtype)
    if dim == 1:
        table = _jacobi_table(degree, 0, 0, pts[:, 0])
        for m, (n,) in enumerate(idx):
            vals[m] = table[n]
    elif dim == 2:
        a, b = _collapsed_2d(pts[:, 0], pts[:, 1])
        half1mb = 0.5 * (1.0 - b)
        ta = _jacobi_table(degree, 0, 0, a)
        tb = [_jacobi_table(degree - i, 2 * i + 1, 0, b)
              for i in range(degree + 1)]
        pow_b = [half1mb**i for i in range(degree + 1)]
        for m, (i, j) in enumerate(idx):
            vals[m] = 2.0 ** (i + 0.5) * ta[i] * tb[i][j] * pow_b[i]
    else:
        a, b, c = _collapsed_3d(pts[:, 0], pts[:, 1], pts[:, 2])
        half1mb = 0.5 * (1.0 - b)
        half1mc = 0.5 * (1.0 - c)
        ta = _jacobi_table(degree, 0, 0, a)
        tb = [_jacobi_table(degree - i, 2 * i + 1, 0, b)
              for i in range(degree + 1)]
        tc = [_jacobi_table(degree - l, 2 * l + 2, 0, c)
              for l in range(degree + 1)]
        pow_b = [half1mb**i for i in range(degree + 1)]
        pow_c = [half1mc**l for l in range(degree + 1)]
        for m, (i, j, k) in enumerate(idx):
            vals[m] = (
                2.0 ** (2 * i + j + 1.5)
                * ta[i]
                * tb[i][j]
                * pow_b[i]
                * tc[i + j][k]
                * pow_c[i + j]
            )
    return vals


def tabulate(dim, degree, pts):
    """Values of the orthonormal modal basis on the reference simplex.

    Reference domains: [-1,1] in 1D, the unit triangle in 2D, the unit
    tetrahedron in 3D. Returns an array of shape (n_modes, n_pts).
    """
    pts = np.asarray(pts, dtype=np.result_type(np.float64, np.asarray(pts).dtype))
    if pts.ndim == 1:
        pts = pts[:, None]
    if dim == 1:
        return _tabulate_biunit(1, degree, pts)
    vals = _tabulate_biunit(dim, degree, 2.0 * pts - 1.0)
    vals *= 2.0 ** (dim / 2.0)
    return vals


def tabulate_grad(dim, degree, pts, direction):
    """d/dx_direction of the modal basis on the reference simplex, shape
    (n_modes, n_pts)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    shifted = pts.astype(complex)
    shifted[:, direction] += 1j * _COMPLEX_STEP
    return np.divide(tabulate(dim, degree, shifted).imag, _COMPLEX_STEP)
