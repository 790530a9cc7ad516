"""The column-blocked modal tabulation against the mode-by-mode formula.

The reference below is the per-mode product with one Jacobi table per alpha,
and the cell scalings applied as whole-table passes afterwards. The package
builds the same products one mode column at a time with batched recurrences
and in-block epilogues; every table must agree to the bit, signed zeros
included, so the comparisons are on `tobytes()`.
"""

from math import gamma, sqrt

import numpy as np
import pytest

from exseq import orthopoly
from exseq.refsimplex import (cell_edges, make_reference_cell, quadrature,
                              tet_faces)

DEGREES = range(21)


def _mode_indices(dim, degree):
    if dim == 1:
        return [(n,) for n in range(degree + 1)]
    if dim == 2:
        return [(i, q - i) for q in range(degree + 1) for i in range(q + 1)]
    return [(i, j, q - i - j) for q in range(degree + 1)
            for i in range(q + 1) for j in range(q - i + 1)]


def _jacobi_table(nmax, alpha, beta, x):
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
    idx = _mode_indices(dim, degree)
    vals = np.empty((len(idx), pts.shape[0]), dtype=pts.dtype)
    if dim == 1:
        table = _jacobi_table(degree, 0, 0, pts[:, 0])
        for m, (n,) in enumerate(idx):
            vals[m] = table[n]
    elif dim == 2:
        a, b = orthopoly._collapsed_2d(pts[:, 0], pts[:, 1])
        half1mb = 0.5 * (1.0 - b)
        ta = _jacobi_table(degree, 0, 0, a)
        tb = [_jacobi_table(degree - i, 2 * i + 1, 0, b)
              for i in range(degree + 1)]
        pow_b = [half1mb**i for i in range(degree + 1)]
        for m, (i, j) in enumerate(idx):
            vals[m] = 2.0 ** (i + 0.5) * ta[i] * tb[i][j] * pow_b[i]
    else:
        a, b, c = orthopoly._collapsed_3d(pts[:, 0], pts[:, 1], pts[:, 2])
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


def ref_tabulate(dim, degree, pts):
    pts = np.asarray(pts, dtype=np.result_type(np.float64, np.asarray(pts).dtype))
    if pts.ndim == 1:
        pts = pts[:, None]
    if dim == 1:
        return _tabulate_biunit(1, degree, pts)
    vals = _tabulate_biunit(dim, degree, 2.0 * pts - 1.0)
    vals *= 2.0 ** (dim / 2.0)
    return vals


def ref_tabulate_grad(dim, degree, pts, direction):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    shifted = pts.astype(complex)
    shifted[:, direction] += 1j * orthopoly._COMPLEX_STEP
    return np.divide(ref_tabulate(dim, degree, shifted).imag,
                     orthopoly._COMPLEX_STEP)


def ref_cell_tabulate(cell, degree, pts):
    vals = ref_tabulate(cell.dim, degree, cell.to_reference(pts))
    vals /= np.sqrt(cell._detA)
    return vals


def ref_cell_tabulate_grad(cell, degree, pts, direction):
    ref = cell.to_reference(pts)
    out = np.zeros((cell.n_modes(degree), len(ref)))
    for k in np.flatnonzero(cell._Ainv[:, direction]):
        g = ref_tabulate_grad(cell.dim, degree, ref, k)
        g /= np.sqrt(cell._detA)
        g *= cell._Ainv[k, direction]
        out += g
    return out


def _cells():
    rc3, rc2, rc1 = (make_reference_cell(d).cell for d in (3, 2, 1))
    out = {"tet": rc3, "tri": rc2, "interval": rc1}
    out.update({f"tet.face{f.index}": f.cell for f in tet_faces(rc3)})
    out.update({f"tet.edge{e.index}": e.cell for e in cell_edges(rc3)})
    out.update({f"tri.edge{e.index}": e.cell for e in cell_edges(rc2)})
    return out


CELLS = _cells()


def _points(cell, kind):
    if kind == "quadrature":
        return quadrature(cell, 5).points
    if kind == "vertices":  # the collapse's degenerate points
        return cell.vertices
    # random barycentric points, plus two on the last edge: its midpoint and
    # one next to the top vertex, where the collapse nearly divides by zero
    rng = np.random.default_rng(cell.dim)
    lam = rng.dirichlet(np.ones(cell.dim + 1), size=7)
    edge = np.zeros((2, cell.dim + 1))
    edge[:, -1] = (0.5, 1.0 - 2.0**-40)
    edge[:, -2] = 1.0 - edge[:, -1]
    return np.vstack([lam, edge]) @ cell.vertices


def _same(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["quadrature", "vertices", "random"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reference_tables_match_mode_by_mode_formula(dim, kind):
    cell = make_reference_cell(dim).cell
    ref = cell.to_reference(_points(cell, kind))
    for degree in DEGREES:
        _same(orthopoly.tabulate(dim, degree, ref),
              ref_tabulate(dim, degree, ref))
        for k in range(dim):
            _same(orthopoly.tabulate_grad(dim, degree, ref, k),
                  ref_tabulate_grad(dim, degree, ref, k))


@pytest.mark.parametrize("kind", ["quadrature", "vertices", "random"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_tables_match_mode_by_mode_formula(name, kind):
    cell = CELLS[name]
    pts = _points(cell, kind)
    for degree in DEGREES:
        _same(cell.tabulate(degree, pts), ref_cell_tabulate(cell, degree, pts))
        grads = [ref_cell_tabulate_grad(cell, degree, pts, l)
                 for l in range(cell.dim)]
        for l in range(cell.dim):
            _same(cell.tabulate_grad(degree, pts, l), grads[l])


def test_face_zero_keeps_its_roundoff_chain_rule_term(rc3):
    # face 0's chart leaves Ainv[1, 0] at roundoff, not zero; d/dx_0 on that
    # face still differentiates along both reference directions
    cell = tet_faces(rc3)[0].cell
    assert cell._Ainv[1, 0] != 0.0
    pts = _points(cell, "random")
    full = ref_cell_tabulate_grad(cell, 6, pts, 0)
    _same(cell.tabulate_grad(6, pts, 0), full)
    # the term moves bits, so a kernel that dropped it would fail above
    g = ref_tabulate_grad(2, 6, cell.to_reference(pts), 0)
    g /= np.sqrt(cell._detA)
    g *= cell._Ainv[0, 0]
    assert (0.0 + g).tobytes() != full.tobytes()


def test_complex_points_match_mode_by_mode_formula(rc3):
    pts = _points(rc3, "random").astype(complex)
    pts[:, 1] += 1e-3j
    for degree in (0, 1, 7):
        _same(orthopoly.tabulate(3, degree, pts), ref_tabulate(3, degree, pts))
