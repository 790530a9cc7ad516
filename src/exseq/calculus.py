"""Exact differential operators between polynomial spaces.

Operators act on modal coefficients (integer-free but exact: the modal
derivative matrices are computed with quadrature that is exact for the
polynomial integrands), never by numerical differentiation of point samples.

Each derivative is one coefficient tensor per cell dimension,
(D u)_k = sum_{i,c} C[k, i, c] d_i u_c (Arnold, Falk and Winther, Acta
Numerica 2006): the identity for grad, the Levi-Civita symbol for the 3D curl,
the two 2D rotations for the 2D curls and the trace for div. The slot rows of
polynomials, the derivatives of fields, the Koszul contractions of the right
inverses in `poincare` and the source check of `diff_op` all read it.
"""

from itertools import pairwise
from typing import NamedTuple

import numpy as np

from . import cache
from . import fields as fl
from . import polyspace as ps
from .refsimplex import quadrature, tet_faces, triangle_edges


def _expand_in(target, rows, src_cell, src_vd, src_degree):
    """Expand slot rows into a target space's basis, reporting the residual."""
    deg = max(src_degree, target.degree)
    rows = ps.pad_slots(rows, src_cell, src_vd, src_degree, deg)
    B = ps.pad_slots(target.basis, target.cell, target.value_dim, target.degree, deg)
    coords = rows @ B.T
    resid = rows - coords @ B
    scale = np.linalg.norm(rows) or 1.0
    return coords, float(np.linalg.norm(resid) / scale)


class Derivative(NamedTuple):
    """One derivative of the complex as its coefficient tensors: on a d-cell,
    (D u)_k = sum_{i,c} C[d][k, i, c] d_i u_c, with entries +-1 and 0.

    rows(space): slot rows of the images of the space's basis; value_dim(d):
    the image's value dimension on a d-dimensional cell; field(f): the same
    derivative of an analytic field. rows and field raise ValueError for a
    source whose (cell dimension, value dimension) no tensor reads.
    """

    name: str
    C: dict  # cell dimension -> read-only tensor (value_dim, d, source dim)

    def rows(self, space):
        return ps.derivative_rows(self._tensor(space.cell.dim, space.value_dim),
                                  space)

    def value_dim(self, d):
        return len(self.C[d])

    def field(self, f):
        return fl.derivative_field(self.name, self._tensor(f.dim, f.value_dim), f)

    def _tensor(self, d, value_dim):
        """The tensor that reads a source of `value_dim` components on a
        d-cell."""
        shapes = [C.shape[1:] for C in self.C.values()]
        if (d, value_dim) not in shapes:
            raise ValueError(f"{self.name} needs a source of (cell dimension, "
                             f"value dimension) in {shapes}")
        return self.C[d]


def _read_only(C):
    C = np.array(C, dtype=float)
    C.flags.writeable = False
    return C


_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # the quarter turn (a, b) -> (b, -a)
_TENSORS = {
    "grad": {d: np.eye(d)[:, :, None] for d in (1, 2, 3)},  # the identity
    "curl3d": {3: np.fromfunction(  # the Levi-Civita symbol
        lambda k, i, c: (k - i) * (i - c) * (c - k) / 2, (3, 3, 3))},
    "curl2d_scalar": {2: _ROT[:, :, None]},  # (d_1 u, -d_0 u)
    "curl2d_vector": {2: _ROT[None]},  # d_0 u_1 - d_1 u_0
    "div": {d: np.eye(d)[None] for d in (2, 3)},  # the trace
}
DERIVATIVES = {name: Derivative(name, {d: _read_only(C) for d, C in Cs.items()})
               for name, Cs in _TENSORS.items()}


def derivative_name(family, dim):
    """The DERIVATIVES entry of a family ("grad", "curl" or "div") on a
    dim-dimensional cell: the curl of a 2D vector field is a scalar."""
    if family == "curl":
        return "curl3d" if dim == 3 else "curl2d_vector"
    return family


# The de Rham complex of a d-cell as one indexed sequence of spaces (Arnold,
# Falk and Winther, Acta Numerica 2006): slot k holds the k-forms, from H1 at
# k = 0 to L2 at k = d, and COMPLEX[d][k] is the derivative that leaves slot
# k, of family FAMILIES[k]. Each interpolation operator is the projection
# onto one slot, OPERATORS[name] = (d, k).
COMPLEX = {
    3: ("grad", "curl3d", "div"),
    2: ("grad", "curl2d_vector"),
    1: ("grad",),
}
FAMILIES = ("grad", "curl", "div")
OPERATORS = {
    "grad3d": (3, 0),
    "curl3d": (3, 1),
    "div3d": (3, 2),
    "l2_3d": (3, 3),
    "grad2d": (2, 0),
    "curl2d": (2, 1),
    "l2_2d": (2, 2),
    "grad1d": (1, 0),
}


def slot_value_dim(dim, slot):
    """Value dimension of a slot of the dim-cell's complex: scalars in H1,
    else the image dimension of the derivative that enters the slot."""
    return DERIVATIVES[COMPLEX[dim][slot - 1]].value_dim(dim) if slot else 1


def operator_at(dim, slot):
    """The OPERATORS name of a slot of the dim-cell's complex, or None."""
    return next((n for n, at in OPERATORS.items() if at == (dim, slot)), None)


def diff_op(name, source, target):
    """Exact differential operator from `source` expanded in `target`: the
    coordinate matrix with target_coords = source_coords @ matrix.

    Raises if the image does not embed in the declared target space.
    """
    if name not in DERIVATIVES:
        raise ValueError(f"unknown differential operator {name!r}")
    rows = diff_rows(name, source)
    out_vd = DERIVATIVES[name].value_dim(source.cell.dim)
    coords, resid = _expand_in(target, rows, source.cell, out_vd, source.degree)
    if resid > 1e-11:
        raise ValueError(
            f"image of {name} does not lie in target {target.name}: residual {resid:.2e}"
        )
    return coords


def diff_rows(name, space):
    """Slot rows of the operator image, without expanding in a target space."""
    return DERIVATIVES[name].rows(space)


def diff_slots(name, space, slots):
    """Operator image of the elements `slots` (one or more rows) of `space`."""
    holder = ps.PolySpace(space.cell, space.value_dim, space.degree,
                          np.atleast_2d(slots))
    rows = diff_rows(name, holder)
    return rows[0] if np.asarray(slots).ndim == 1 else rows


# ---------------------------------------------------------------------------
# subspace relations and sequence checks


def subspace_distance(rows_a, basis_b):
    """Max relative distance of span(rows_a) members from span(basis_b)."""
    if rows_a.shape[0] == 0:
        return 0.0
    proj = rows_a @ basis_b.T @ basis_b
    num = np.linalg.norm(rows_a - proj, axis=1)
    den = np.linalg.norm(rows_a, axis=1)
    den[den == 0] = 1.0
    return float((num / den).max())


# the space kinds of slots 0, 1 and 2 and of the top slot, in the full and
# the trace-free sequence
_FULL = ("h1", "hcurl", "hdiv", "l2")
_TRACE_FREE = ("h1_bubble", "hcurl_bubble", "hdiv_bubble", "l2_zero_mean")


@cache.memo
def bubble_images(cell, slot, p):
    """Orthonormal rows spanning the image of the slot's trace-free kind at
    complex degree p under the derivative leaving the slot,
    COMPLEX[d][slot]: the test rows of the energy block of the slot's
    interpolant and of the gauge block of the next slot's. The span drops
    the bubbles whose derivative vanishes, the gradients among the curl's."""
    bubbles = ps.build_space(cell, _TRACE_FREE[slot], p)
    return ps.span_from_rows(diff_rows(COMPLEX[cell.dim][slot], bubbles))


def _sequence(cell, p, kinds=_FULL):
    """The spaces of the cell's complex, slot by slot."""
    d = cell.dim
    return [ps.build_space(cell, kind, p) for kind in kinds[:d] + kinds[-1:]]


def _arrows(cell, p):
    """The full sequence's spaces and the matrices of the derivatives between
    consecutive slots."""
    S = _sequence(cell, p)
    return S, [diff_op(D, S[k], S[k + 1])
               for k, D in enumerate(COMPLEX[cell.dim])]


def check_exact_sequence(p, tet, tri, interval):
    """Rank/kernel report for the full and trace-free sequences, 3D and 2D,
    and the trace-free sequence of the interval.

    Every entry carries measured dimensions plus an `ok` flag against the
    expected identity.
    """
    rep = {"p": p, "checks": []}

    def record(label, ok, **data):
        rep["checks"].append({"label": label, "ok": bool(ok), **data})

    fam = FAMILIES
    for cell in (tet, tri, interval):
        d = cell.dim
        if d > 1:
            S, A = _arrows(cell, p)
            if d == 3:
                kernel = S[0].dim - np.linalg.matrix_rank(A[0], tol=1e-8)
                record("3d.grad.kernel", kernel == 1, kernel=int(kernel),
                       expected=1)
            for k in range(1, d):
                ran = ps.span_from_rows(A[k - 1])
                ker = ps.null_space_of(A[k].T, n_cols=S[k].dim)
                record(f"{d}d.ker_{fam[k]}_eq_range_{fam[k - 1]}",
                       len(ker) == len(ran) and subspace_distance(ran, ker) < 1e-8,
                       dim_kernel=len(ker), dim_range=len(ran))
            rank = np.linalg.matrix_rank(A[-1], tol=1e-8)
            record(f"{d}d.{fam[d - 1]}_onto_l2", rank == S[d].dim,
                   rank=int(rank), expected=S[d].dim)
        B = _sequence(cell, p, _TRACE_FREE)
        img = [bubble_images(cell, k, p) for k in range(d)]
        if d > 1:
            record(f"{d}d.bubble.dim_split", B[1].dim == len(img[0]) + len(img[1]),
                   dim_bubble_hcurl=B[1].dim, dim_grad=len(img[0]),
                   dim_curl=len(img[1]))
        # the last arrow maps onto the zero-mean top slot
        top = ps.pad_slots(B[d].basis, B[d].cell, 1, B[d].degree, B[d - 1].degree)
        record(f"{d}d.bubble.{fam[d - 1]}_{'onto' if d == 3 else 'eq'}_zero_mean",
               len(img[-1]) == B[d].dim and subspace_distance(img[-1], top) < 1e-8,
               **{f"dim_{fam[d - 1]}": len(img[-1]), "dim_zero_mean": B[d].dim})
    rep["ok"] = all(c["ok"] for c in rep["checks"])
    return rep


def _composite_residual(a, b):
    """Entry residual of a zero composite, relative to its roundoff scale."""
    scale = max(
        np.abs(a).max() * np.abs(b).max() * np.sqrt(a.shape[1]), 1.0
    )
    return np.abs(a @ b).max() / scale


def complex_property_residual(tet, tri, p):
    """Max matrix residual of the composite identities curl o grad = 0 and
    div o curl = 0 (3D) and curl o grad = 0 (2D), relative to operator scale."""
    return max(float(_composite_residual(a, b))
               for cell in (tet, tri)
               for a, b in pairwise(_arrows(cell, p)[1]))


_GREEN_SAMPLES = 5  # random pairs per Green's-formula check


def green_residual(name, source, test, rng):
    """Worst relative residual, over random u of `source` and w of `test`,
    of Green's formula (D u, w) = (u, D* w) + (u, F w)_boundary for the
    derivative D = DERIVATIVES[name]. Both sides are read off D's tensor C,
    as `projectors._energy_stage` reads them: the adjoint D* has the tensor
    -C.transpose(2, 1, 0), and the flux through the outward normal n is
    F = einsum("kic,i->ck", C, n)."""
    cell = source.cell
    C = DERIVATIVES[name].C[cell.dim]
    deg = source.degree + test.degree + 2
    q = quadrature(cell, deg)
    rules = [(q.points, q.weights, None)]  # the cell, then its sides
    boundary = ([(face, face.normal) for face in tet_faces(cell)]
                if cell.dim == 3 else triangle_edges(cell))
    for side, outward in boundary:
        sq = quadrature(side.cell, deg)
        rules.append((side.embed(sq.points), sq.weights, outward))
    # each rule's weights, the source's and the test's tables, and normal
    (weights, S, T, _), *sides = [
        (w, cell.tabulate(source.degree, pts), cell.tabulate(test.degree, pts),
         n) for pts, w, n in rules]

    def pair(rule_weights, a, b):
        return np.einsum("q,kq,kq->", rule_weights, a, b)

    worst = 0.0
    for _ in range(_GREEN_SAMPLES):
        u = source.random_elements(1, rng)[0]
        w = test.random_elements(1, rng)[0]
        U = np.reshape(u, (source.value_dim, -1))
        W = np.reshape(w, (test.value_dim, -1))
        Du = np.reshape(diff_slots(name, source, u), (len(C), -1))
        adjoint = ps.derivative_rows(-C.transpose(2, 1, 0), ps.PolySpace(
            cell, test.value_dim, test.degree, w[None]))
        Dw = np.reshape(adjoint, (source.value_dim, -1))
        lhs = pair(weights, Du @ S, W @ T)
        vol = pair(weights, U @ S, Dw @ T)
        bnd = sum(pair(ws, U @ Ss, np.einsum("kic,i->ck", C, n) @ (W @ Ts))
                  for ws, Ss, Ts, n in sides)
        scale = max(abs(lhs), abs(vol), abs(bnd), 1e-30)
        worst = max(worst, abs(lhs - (vol + bnd)) / scale)
    return worst
