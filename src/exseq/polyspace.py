"""Polynomial spaces of the discrete de Rham complex on reference simplices.

A PolySpace stores an L2-orthonormal basis as coefficient rows over the
orthonormal modal backbone (component-major slots), so coefficient dot
products are L2 inner products and rank/null-space decisions reduce to
SVDs with a relative singular-value cutoff.

Degree convention: `p` is the complex degree. The H1-conforming scalar space
at complex degree p consists of polynomials of degree p+1; the edge (Nedelec)
and face (Raviart-Thomas) spaces and the L2 slot are of degree p.

`trace_matrix` is the one trace: the restriction to a face or an edge, taken
as a scalar, tangential or normal trace. `boundary_traces` stacks it over a
cell's boundary; the trace-free kinds of `build_space` are the subspaces that
stack annihilates.
"""

import numpy as np

from . import cache
from .refsimplex import quadrature, tet_faces, triangle_edges

SVD_CUTOFF = 1e-10


class PolySpace:
    """A finite-dimensional polynomial space on a simplex cell.

    basis: (dim, value_dim * n_modes(degree)) orthonormal coefficient rows.
    """

    def __init__(self, cell, value_dim, degree, basis, name=""):
        self.cell = cell
        self.value_dim = value_dim
        self.degree = degree
        self.basis = np.ascontiguousarray(basis, dtype=float)
        self.name = name

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def n_modes(self):
        return self.cell.n_modes(self.degree)

    def __repr__(self):
        return (
            f"PolySpace({self.name or '?'}, cell={self.cell.key}, "
            f"dim={self.dim}, vdim={self.value_dim}, degree={self.degree})"
        )

    def components(self, coeffs):
        coeffs = np.asarray(coeffs)
        return coeffs.reshape(coeffs.shape[:-1] + (self.value_dim, self.n_modes))

    def evaluate(self, coeffs, pts):
        """Point values; shape (..., n_pts) scalar or (..., n_pts, value_dim)."""
        return self.values(coeffs, self.cell.tabulate(self.degree, pts))

    def values(self, coeffs, V):
        """Point values from the modal table V (n_modes, n_pts) of the points,
        shaped as `evaluate`'s."""
        comp = self.components(coeffs) @ V
        if self.value_dim == 1:
            return comp[..., 0, :]
        return np.moveaxis(comp, -2, -1)

    def random_elements(self, n, rng):
        c = rng.standard_normal((n, self.dim))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        return c @ self.basis


def slot_count(cell, value_dim, degree):
    return value_dim * cell.n_modes(degree)


def pad_slots(coeffs, cell, value_dim, deg_from, deg_to):
    """Embed component-major slot vectors from one modal degree to a higher one."""
    if deg_from == deg_to:
        return np.asarray(coeffs, dtype=float)
    if deg_from > deg_to:
        raise ValueError("cannot pad downward")
    n1, n2 = cell.n_modes(deg_from), cell.n_modes(deg_to)
    coeffs = np.asarray(coeffs, dtype=float)
    shape = coeffs.shape[:-1]
    comp = coeffs.reshape(shape + (value_dim, n1))
    out = np.zeros(shape + (value_dim, n2))
    out[..., :n1] = comp
    return out.reshape(shape + (value_dim * n2,))


def span_from_rows(rows):
    """Orthonormal basis of the row span, rank decided by relative SVD cutoff.

    Like `null_space_of`, it returns an owned copy of the rows it keeps, so
    that a memoised basis does not pin the SVD's whole `vt`."""
    rows = np.atleast_2d(rows)
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, rows.shape[1]))
    rank = int(np.sum(s > SVD_CUTOFF * s[0]))
    return vt[:rank].copy()


def null_space_of(constraints, n_cols):
    """Orthonormal basis of {x : A x = 0} for a constraint matrix A, as an
    owned copy of the rows of the SVD's `vt` that it keeps."""
    A = np.atleast_2d(constraints)
    if A.shape[0] == 0:
        return np.eye(n_cols)
    u, s, vt = np.linalg.svd(A, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > SVD_CUTOFF * s[0]))
    return vt[rank:].copy()


# ---------------------------------------------------------------------------
# modal operator matrices

def deriv_matrix(cell, degree, direction):
    """Apply-matrix of d/dx_i on modal coefficients (degree -> degree)."""
    return _deriv_matrices(cell, degree)[direction]


def deriv_alpha(cell, degree, alpha):
    """Apply-matrix of d^alpha, the product of the first-order matrices.

    The chain applies D_0 first, then D_1, and so on; its first factor is a
    D_i itself, and d^0 is the identity.
    """
    D = _deriv_matrices(cell, degree)
    mat = None  # the identity
    for k, a in enumerate(alpha):
        for _ in range(a):
            mat = D[k] if mat is None else D[k] @ mat
    return np.eye(cell.n_modes(degree)) if mat is None else mat


# points per block: _deriv_matrices, sobolev._stiffness, sobolev.rule_pairings
_POINT_BLOCK = 512


@cache.memo
def _deriv_matrices(cell, degree):
    # one direction at a time, a block of points at a time, into one reused
    # plane: only the weighted values and one gradient plane are live
    q = quadrature(cell, 2 * degree)
    V = cell.tabulate(degree, q.points)
    V *= q.weights
    plane = np.empty_like(V)
    D = []
    for direction in range(cell.dim):
        for start in range(0, len(q.weights), _POINT_BLOCK):
            block = slice(start, start + _POINT_BLOCK)
            plane[:, block] = cell.tabulate_grad(degree, q.points[block],
                                                 direction)
        D.append(V @ plane.T)
    return tuple(D)


def coord_matrix(cell, degree, direction):
    """Apply-matrix of multiplication by x_i (degree -> degree+1)."""
    return _coord_matrices(cell, degree)[direction]


@cache.memo
def _coord_matrices(cell, degree):
    # the modes are hierarchical: the degree table is the leading rows of the
    # degree+1 table
    q = quadrature(cell, 2 * degree + 2)
    V2 = cell.tabulate(degree + 1, q.points)
    V1 = V2[: cell.n_modes(degree)]
    return tuple((V2 * (q.weights * q.points[:, i])) @ V1.T
                 for i in range(cell.dim))


def mean_row(cell, value_dim, degree):
    """Rows of the integral functional(s), one per component."""
    rows = np.zeros((value_dim, slot_count(cell, value_dim, degree)))
    nm = cell.n_modes(degree)
    for c in range(value_dim):
        rows[c, c * nm] = np.sqrt(cell.measure)
    return rows


# ---------------------------------------------------------------------------
# traces (into planar/interval trace cells)


def trace_matrix(cell, degree, sub, part):
    """The one trace: modal coefficients on `cell` -> coefficients of the same
    degree on the Face or Edge `sub`'s own cell, `sub.cell`.

    part=None restricts a scalar. part="tangential" or "normal" traces a
    vector field along a frame: a face's chart frame or an edge's tangent, or
    a face's normal. Block (l, m) of the result is frame[m, l] times the
    scalar trace, mapping component m of the field to component l of the
    trace.
    """
    T = _trace_table(cell, degree, sub)
    if part is None:
        return T
    if part == "normal":
        frame = sub.normal[:, None]
    else:
        frame = sub.frame if hasattr(sub, "frame") else sub.tangent[:, None]
    return np.kron(frame.T, T)


@cache.memo
def _trace_table(cell, degree, sub):
    q = quadrature(sub.cell, 2 * degree)
    amb = sub.embed(q.points)
    V3 = cell.tabulate(degree, amb)
    V2 = sub.cell.tabulate(degree, q.points)
    return (V2 * q.weights) @ V3.T


def boundary_traces(cell, degree, part, keep=None):
    """`trace_matrix` stacked over the boundary of `cell`: a tetrahedron's
    faces or a triangle's sides; on an interval, the values at its ends.
    part: `trace_matrix`'s part, which an interval does not read; keep: a
    trace degree whose leading modes each piece keeps.
    """
    if cell.dim == 1:
        return cell.tabulate(degree, cell.vertices).T
    subs = (tet_faces(cell) if cell.dim == 3
            else [e for e, _ in triangle_edges(cell)])
    return np.vstack([
        trace_matrix(cell, degree, sub, part)[
            : None if keep is None else sub.cell.n_modes(keep)]
        for sub in subs
    ])


# ---------------------------------------------------------------------------
# space constructors


def scalar_space(cell, degree):
    if degree < 0:
        raise ValueError("polynomial degree must be >= 0")
    return PolySpace(cell, 1, degree, np.eye(cell.n_modes(degree)))


def vector_space(cell, degree, value_dim):
    nm = cell.n_modes(degree)
    return PolySpace(cell, value_dim, degree, np.eye(value_dim * nm))


def nedelec_space(cell, p):
    """Edge elements of the first type at complex degree p (3D or 2D cell)."""
    if cell.dim == 2:  # the rotated x phi
        return _with_products(cell, p, lambda X, O: [[X[1], -X[0]]])
    if cell.dim != 3:
        raise ValueError("the edge-element family needs a triangle or a "
                         "tetrahedron")
    # x cross (phi e_c): e_1 -> (0, x3 phi, -x2 phi), cyclic
    return _with_products(cell, p, lambda X, O: [
        [O, X[2], -X[1]], [-X[2], O, X[0]], [X[1], -X[0], O]])


def raviart_thomas_space(cell, p):
    """Face elements (normal-conforming) at complex degree p on a 3D cell."""
    if cell.dim != 3:
        raise ValueError("the face-element family needs a tetrahedron")
    return _with_products(cell, p, lambda X, O: [X])  # x phi


def _with_products(cell, p, products):
    """The vector space spanned by P_p^d, padded to degree p+1, and by the
    block rows `products(X, O)` of the coordinate multiplications X[i] of
    P_p and the zero block O."""
    if p < 0:
        raise ValueError("complex degree must be >= 0")
    nm_p, nm = cell.n_modes(p), cell.n_modes(p + 1)
    zero = np.zeros((nm_p, nm))
    X = [coord_matrix(cell, p, i).T for i in range(cell.dim)]  # (nm_p, nm) rows
    rows = [np.hstack([np.eye(nm_p, nm) if k == c else zero
                       for k in range(cell.dim)]) for c in range(cell.dim)]
    rows += [np.hstack(blocks) for blocks in products(X, zero)]
    return PolySpace(cell, cell.dim, p + 1, span_from_rows(np.vstack(rows)))


def subspace_from_constraints(space, constraint_rows):
    """Subspace of `space` annihilated by constraint functionals.

    constraint_rows are slot covectors (L2 pairings against given fields).
    """
    C = np.atleast_2d(constraint_rows) @ space.basis.T
    N = null_space_of(C, n_cols=space.dim)
    return PolySpace(space.cell, space.value_dim, space.degree, N @ space.basis)


def signed_sum(C, term):
    """sum_{i,c} C[i, c] term(i, c) over the nonzero entries of a matrix of
    +-1 and 0, in index order, each term added or subtracted."""
    total = None
    for i, c in zip(*np.nonzero(C)):
        t = term(i, c)
        if total is None:
            total = t if C[i, c] > 0 else -t
        else:
            total = total + t if C[i, c] > 0 else total - t
    return total


def derivative_rows(C, space):
    """Slot rows of the derivative (D u)_k = sum_{i,c} C[k, i, c] d_i u_c of
    each basis element u of `space`, for the coefficient tensor C of a
    derivative (`calculus.DERIVATIVES`), whose C.shape[2] components are
    the space's (`calculus.Derivative.rows` checks them)."""
    D = _deriv_matrices(space.cell, space.degree)
    comps = space.components(space.basis)
    return np.hstack([signed_sum(Ck, lambda i, c: comps[:, c] @ D[i].T)
                      for Ck in C])


# ---------------------------------------------------------------------------
# public dispatcher with caching


def build_space(cell, kind, p):
    """Build one of the complex's spaces on a `Cell` at complex degree p.

    kind: one of KINDS. The H1 family ("h1*") has polynomial degree p+1; all
    others have degree p. The edge family needs a triangle or a tetrahedron,
    and the face family a tetrahedron. The space is bound to `cell`, and
    shares one read-only basis with every cell of equal vertices.
    """
    if kind not in KINDS:
        raise ValueError(f"unsupported kind {kind!r}")
    if p < 0:
        raise ValueError(f"complex degree must be >= 0, got {p}")
    vd, deg, basis = _space_basis(cell, kind, p)
    return PolySpace(cell, vd, deg, basis, name=f"{kind}[p={p}]")


# the base kinds' builders, at complex degree p
_BASES = {
    "h1": lambda cell, p: scalar_space(cell, p + 1),
    "l2": scalar_space,
    "hcurl": nedelec_space,
    "hdiv": raviart_thomas_space,
}
# every other kind is cut from a base kind: (base, cut) for the elements
# whose trace of the part `cut` vanishes on the cell's boundary
# (`trace_matrix`'s part), the trace-free kinds, or whose mean vanishes
# ("mean"), the top slot's
_CUTS = {
    "h1_bubble": ("h1", None),
    "hcurl_bubble": ("hcurl", "tangential"),
    "hdiv_bubble": ("hdiv", "normal"),
    "l2_zero_mean": ("l2", "mean"),
}
KINDS = (*_BASES, *_CUTS)


@cache.memo
def _space_basis(cell, kind, p):
    """(value_dim, degree, basis) of build_space. The base kinds are built by
    `_BASES`; the other kinds are cut from their bases."""
    if kind in _CUTS:
        base, cut = _CUTS[kind]
        parent = build_space(cell, base, p)
        if cut == "mean":
            rows = mean_row(cell, parent.value_dim, parent.degree)
        else:
            rows = boundary_traces(cell, parent.degree, cut)
        sp = subspace_from_constraints(parent, rows)
        return sp.value_dim, sp.degree, sp.basis
    sp = _BASES[kind](cell, p)
    return sp.value_dim, sp.degree, sp.basis


def h1_dimension(p, dim):
    """Closed-form dimension of the H1 space at complex degree p."""
    if dim == 3:
        return (p + 2) * (p + 3) * (p + 4) // 6
    if dim == 2:
        return (p + 2) * (p + 3) // 2
    return p + 2


def hcurl_dimension(p, dim):
    """Closed-form dimension of the edge-element space at complex degree p
    on a tetrahedron (dim 3) or a triangle."""
    if dim == 3:
        return (p + 1) * (p + 3) * (p + 4) // 2
    return (p + 1) * (p + 3)


def hdiv_dimension(p):
    """Closed-form dimension of the 3D face-element space at complex degree p."""
    return (p + 2) * (p + 1) * p // 2 + 4 * (p + 1) * (p + 2) // 2


def h1_condition_count(p):
    """Vertex + edge + face + interior condition count of the H1 interpolant."""
    return p * (p - 1) * (p - 2) // 6 + 4 * p * (p - 1) // 2 + 6 * p + 4

