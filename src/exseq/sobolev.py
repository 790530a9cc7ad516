"""Inner products, integer and fractional Sobolev norms, dual norms, and
unconstrained best-approximation projectors.

Fractional orders are realized by spectral interpolation of the (mass,
H1-Gram) pencil (and (H1, H2) for orders in (1,2]); dual norms are inner
approximations over a rich polynomial test space. Both are the standard
computable surrogates; equivalence constants are never asserted, only
measured by the studies.

Every derivative comes from one table: a graph norm's family derivative (curl
or div) from `calculus.DERIVATIVES`, read by `_parts` alone, whose coefficient
tensor gives both the slot rows of a polynomial's derivative and the same
derivative of a field, and each d^alpha of the norms' multi-indices from
`polyspace.deriv_alpha` on the polynomial side and the field's jets on the
other.
"""

import numpy as np
import scipy.linalg

from . import cache
from . import polyspace as ps
from .calculus import DERIVATIVES, derivative_name, diff_slots
from .refsimplex import quadrature


class SobolevGram:
    """Spectral data of the scalar modal space of a given degree on a cell.

    In modal coordinates the mass matrix is the identity; A1 = I + stiffness
    and A2 adds the (multinomial-weighted) second-derivative Gram, so the
    generalized eigenvalues are >= 1 and fractional powers interpolate the
    integer-order norms exactly at s in {0, 1, 2}.

    The modes are hierarchical, so the stiffness of this degree is the
    leading n x n block of the stiffness of any higher one. With a `top`, A1
    is I plus that block of `_stiffness(cell, top)`; with None, it is
    I + sum D_i^T D_i from this degree's derivative matrices. The two agree
    to roundoff only (see `gram` for who reads which).

    Every form of order s in [0, 2] reads one factor F of H_s = F F^T:
    `half` gives F^T x, whose norm is the H^s norm, and `half_inverse`
    F^{-1} b, whose norm is the dual norm of the pairings b. F is the
    identity at s = 0, U lam^(s/2) from the spectrum of A1 below 1, the
    transposed upper Cholesky factor of A1 at s = 1, and A1 V mu^((s-1)/2)
    from the A1-orthonormal (A2, A1) pencil above 1. No F is formed.

    Every table is built on first read and is read-only, like the memoised
    Gram that shares it, so a form that reads only `n` (order 0) builds
    nothing. The spectrum of A1 is computed only for fractional orders
    below 1. At order 1 a Gram with a `top` reads the leading n x n block
    of the one shared `_top_factor(cell, top)`, the Cholesky factor of a
    leading block being the leading block of the whole factor, so it forms
    neither A1 nor a factor of its own. Orders above 1 use the (A2, A1)
    pencil, whose spectrum is computed only for them: the H2 form reads A2
    alone. A2 always reads this degree's derivative matrices.
    """

    def __init__(self, cell, degree, top):
        if top is not None and top < degree:
            raise ValueError(f"stiffness degree {top} below the Gram's {degree}")
        self.cell = cell
        self.degree = degree
        self.top = top
        self.n = cell.n_modes(degree)
        self._A1 = None
        self._first = None
        self._cho = None
        self._A2 = None
        self._second = None

    @property
    def _D(self):
        """The first-order derivative matrices of this degree."""
        return [ps.deriv_matrix(self.cell, self.degree, i)
                for i in range(self.cell.dim)]

    @property
    def A1(self):
        """I plus the modal stiffness: the H1 Gram of the modes."""
        if self._A1 is None:
            if self.top is None:
                S = sum(Di.T @ Di for Di in self._D)
            else:
                S = _stiffness(self.cell, self.top)[: self.n, : self.n]
            self._A1 = cache.freeze(np.eye(self.n) + S)
        return self._A1

    def _first_data(self):
        """(clipped eigenvalues, eigenvectors) of A1."""
        if self._first is None:
            lam, U = scipy.linalg.eigh(self.A1, driver="evd")
            self._first = cache.freeze((np.clip(lam, 1.0, None), U))
        return self._first

    def _cholesky(self):
        """The upper Cholesky factor of A1: the leading n x n block of the
        shared `_top_factor` with a `top`, else this Gram's own."""
        if self.top is not None:
            return _top_factor(self.cell, self.top)[: self.n, : self.n]
        if self._cho is None:
            self._cho = cache.freeze(scipy.linalg.cholesky(self.A1))
        return self._cho

    @property
    def A2(self):
        """A1 plus the multinomial-weighted second-derivative Gram."""
        if self._A2 is None:
            d, D = self.cell.dim, self._D
            A2 = self.A1.copy()
            for i in range(d):
                for j in range(i, d):
                    w = 1.0 if i == j else 2.0
                    Mij = D[i] @ D[j]
                    A2 += w * (Mij.T @ Mij)
            self._A2 = cache.freeze(A2)
        return self._A2

    def _second_data(self):
        """(clipped eigenvalues, A1-orthonormal eigenvectors) of the (A2, A1)
        pencil; only orders above 1 read them."""
        if self._second is None:
            mu, V = scipy.linalg.eigh(self.A2, self.A1)
            self._second = cache.freeze((np.clip(mu, 1.0, None), V))
        return self._second

    def half(self, x, s):
        """F^T x for modal columns x (k, m), k <= n, read as if padded with
        zero rows to n; exact at s in {0, 1, 2}."""
        _check_order(s)
        x = np.asarray(x, dtype=float)
        k = len(x)
        if s == 0.0:
            return np.pad(x, ((0, self.n - k), (0, 0)))
        if s == 1.0:
            return self._cholesky()[:, :k] @ x
        if s < 1.0:
            lam, U = self._first_data()
            return lam[:, None] ** (s / 2.0) * (U[:k].T @ x)
        mu, V = self._second_data()
        return mu[:, None] ** ((s - 1.0) / 2.0) * (V.T @ (self.A1[:, :k] @ x))

    def half_inverse(self, b, s):
        """F^{-1} b for columns b (n, m) of L2 pairings with the modes."""
        _check_order(s)
        b = np.asarray(b, dtype=float)
        if s == 0.0:
            return b
        if s == 1.0:
            return scipy.linalg.solve_triangular(self._cholesky(), b,
                                                 trans="T")
        if s < 1.0:
            lam, U = self._first_data()
            return lam[:, None] ** (-s / 2.0) * (U.T @ b)
        mu, V = self._second_data()
        # V is A1-orthonormal: V^{-1} = V^T A1, so F^{-1} = mu^((1-s)/2) V^T
        return mu[:, None] ** ((1.0 - s) / 2.0) * (V.T @ b)


def _check_order(s):
    if not 0.0 <= s <= 2.0:
        raise ValueError(f"fractional order s={s} outside [0, 2]")


@cache.memo
def gram(cell, degree, top=None):
    """The memoised `SobolevGram` of (cell, degree); with `top`, its A1 is
    the leading block of the degree-`top` stiffness table.

    The rate sweep reads its dual and fractional norms this way, from one
    table per cell; they stay memoised across degrees, since the P + 2 Gram
    of degree p is the P Gram of degree p + 2. Their order-1 dual forms
    share one top Cholesky factor per cell (`_top_factor`) and slice it, so
    these Grams keep no A1 or factor of their own; each makes one
    triangular solve for all the components of a record. The integer
    best-approximation forms (the H1full, H2 and H1curl denominators, each
    solved by `np.linalg.solve`) keep the per-degree Gram: at high degree
    their values sit on a roundoff floor, which the two routes place
    differently. The fractional
    denominators' rich Gram is not read from here: `best_approx` builds
    its own for each call, so its A1 and spectrum (or, with a `top` at
    order 1, no table of its own) live for one degree.
    """
    return SobolevGram(cell, degree, top)


@cache.memo
def _stiffness(cell, top):
    """The modal stiffness sum_i G_i W G_i^T of degree `top`, straight from
    the gradient tables: the degree-(2 top - 2) rule is exact for products
    of gradients of degree top - 1, and the points are summed a block at a
    time. No derivative matrix or value table is formed."""
    q = quadrature(cell, max(2 * top - 2, 0))
    root = np.sqrt(q.weights)
    S = np.zeros((cell.n_modes(top), cell.n_modes(top)))
    for start in range(0, len(root), ps._POINT_BLOCK):
        block = slice(start, start + ps._POINT_BLOCK)
        for direction in range(cell.dim):
            G = cell.tabulate_grad(top, q.points[block], direction)
            G *= root[block]
            S += G @ G.T
    return S


@cache.memo
def _top_factor(cell, top):
    """The upper Cholesky factor U of I + `_stiffness(cell, top)`. Its
    leading n x n block is the factor of every lower degree's A1 that the
    stiffness table gives, so one factor serves every `gram(cell, d, top)`."""
    n = cell.n_modes(top)
    # the sum is symmetric, so its transpose is the same matrix in the
    # Fortran order that LAPACK factors in place, without a copy
    return scipy.linalg.cholesky((np.eye(n) + _stiffness(cell, top)).T,
                                 overwrite_a=True)


def fractional_norm(g, coeffs, s):
    """H^s norm of a scalar or component-stacked field from modal coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.size % g.n:
        raise ValueError("coefficient length is not a multiple of the mode count")
    return float(np.linalg.norm(g.half(c.reshape(-1, g.n).T, s)))


def mode_pairings(V, weights, values):
    """L2 pairings of sampled values with the modes of a table V (nm, n_pts).

    values: (n_pts,) or (n_pts, k); returns (k, nm), one row per column, from
    one GEMM. The raveled rows of a vector field's components are its
    component-major slot covector.
    """
    vals = np.asarray(values, dtype=float).reshape(len(weights), -1)
    return (V @ (weights[:, None] * vals)).T


def rule_pairings(cell, degree, points, weights, samples):
    """`mode_pairings` of each of a list of samples, (n_pts,) or (n_pts, k),
    with the degree-`degree` modes on a rule: one (k, n_modes) block each.
    The sums run over blocks of `ps._POINT_BLOCK` points, each tabulated
    once for all the samples, so no table of the whole rule is formed."""
    cols = [np.asarray(v, dtype=float).reshape(len(weights), -1)
            for v in samples]
    vals = np.hstack(cols)
    out = np.zeros((cell.n_modes(degree), vals.shape[1]))
    for start in range(0, len(weights), ps._POINT_BLOCK):
        block = slice(start, start + ps._POINT_BLOCK)
        out += cell.tabulate(degree, points[block]) @ (
            weights[block, None] * vals[block])
    return np.split(out.T, np.cumsum([c.shape[1] for c in cols])[:-1])


def dual_norm(g, pairings, s):
    """Discrete dual norm sup_{v in P_degree} (e, v)/||v||_{H^s}, from the
    component-stacked covector of L2 pairings of e with the modes."""
    b = np.asarray(pairings, dtype=float).reshape(-1, g.n)
    return float(np.linalg.norm(g.half_inverse(b.T, s)))


# ---------------------------------------------------------------------------
# best approximation

# order of the multi-indices of each integer norm, and the derivative family
# whose graph norm it is (if any)
_ORDER = {"L2": 0, "H1full": 1, "H2": 2, "H1curl": 1}
_FAMILY = {"H1curl": "curl", "Hhalf_curl": "curl", "Hhalf_div": "div"}


def _parts(space, norm):
    """The parts of a norm on `space`, whose squares sum to its square: the
    value and, for a graph norm, the family derivative. Each part is (value
    dimension, map from slot rows of the space to the part's slot rows, map
    from a field to the part's field)."""
    parts = [(space.value_dim, lambda rows: rows, lambda f: f)]
    family = _FAMILY.get(norm)
    if family:
        name = derivative_name(family, space.cell.dim)
        d = DERIVATIVES[name]
        parts.append((d.value_dim(space.cell.dim),
                      lambda rows: diff_slots(name, space, rows), d.field))
    return parts


def _form_on(space, G):
    """Gram of the space's basis in the modal form G, summed over components."""
    comps = space.components(space.basis)
    return sum(comps[:, c] @ G @ comps[:, c].T for c in range(space.value_dim))


def _derivative_multiindices(dim, order):
    """(multi-index, multinomial weight) pairs defining the H^order norm."""
    out = [((0,) * dim, 1.0)]
    if order >= 1:
        for i in range(dim):
            a = [0] * dim
            a[i] = 1
            out.append((tuple(a), 1.0))
    if order >= 2:
        for i in range(dim):
            for j in range(i, dim):
                a = [0] * dim
                a[i] += 1
                a[j] += 1
                out.append((tuple(a), 1.0 if i == j else 2.0))
    return out


def _jet_pairings(space, field, quad, order, V):
    """Sum over the H^order multi-indices of the L2 pairings of d^alpha of the
    field against d^alpha of the basis, in space coordinates; V is the modal
    table of the space's degree at the rule's points."""
    cell = space.cell
    alphas = _derivative_multiindices(cell.dim, order)
    comps = space.components(space.basis)
    jets = [field.jet(quad.points, alpha) for alpha, _ in alphas]
    b = mode_pairings(V, quad.weights, np.column_stack(jets))
    b = b.reshape(-1, space.value_dim, space.n_modes)
    rhs = np.zeros(space.dim)
    for (alpha, weight), b_alpha in zip(alphas, b):
        mat = ps.deriv_alpha(cell, space.degree, alpha)
        rhs += weight * np.einsum("dcm,cm->d", comps, b_alpha @ mat)
    return rhs


def _l2sq(weights, diff):
    if diff.ndim == 1:
        return float(np.sum(weights * diff**2))
    return float(np.einsum("q,qi->", weights, diff**2))


def error_in_norm(space, field, slots, quad, norm, table):
    """Quadrature error ||field - polynomial|| in the requested integer norm.

    Sums the squared L2 errors of d^alpha, over the multi-indices of the
    norm's order, of the value and, for graph norms, of the family derivative
    of field and polynomial alike; fractional norms are handled by their
    surrogate forms elsewhere. `table` is the modal table of the space's
    degree at the rule's points.
    """
    if norm not in _ORDER:
        raise ValueError(f"no direct error formula for norm {norm!r}")
    cell, pts = space.cell, quad.points
    total = 0.0
    for vd, rows, field_of in _parts(space, norm):
        f, comps = field_of(field), np.reshape(rows(slots), (vd, -1))
        for alpha, weight in _derivative_multiindices(cell.dim, _ORDER[norm]):
            fv = f.jet(pts, alpha)
            pv = (comps @ ps.deriv_alpha(cell, space.degree, alpha).T) @ table
            total += weight * _l2sq(quad.weights, fv - pv.T.reshape(fv.shape))
    return float(np.sqrt(total))


def best_approx(space, fields, norm, quad, table, rich_degree=None, s=0.5,
                top=None):
    """Best approximations of a sequence of analytic fields in `space`.

    norm:
      L2       plain L2 projection
      H1full   full H1-norm minimization
      H2       full H2-norm minimization
      H1curl   full (H1, curl-H1) norm minimization
      Hhalf    fractional H^s minimization through a rich-space surrogate
      Hhalf_div, Hhalf_curl   graph-norm surrogates ||.||_{H^s}^2 + ||D.||_{H^s}^2

    Returns one (slot coefficients, error) pair per field, where the error is
    the quadrature error in the norm for integer norms and the surrogate-form
    error for the fractional ones.

    quad is the rule of the pairings and the errors. The integer norms read
    `table`, the modal table of the space's degree at its points, for the
    pairings and the error alike. The fractional norms pair with the rich
    modes of degree `rich_degree` a block of points at a time
    (`rule_pairings`), so no rich table is formed.

    Every norm is read through `_parts`: the value and, for a graph norm,
    its family derivative. The integer norms take one path: the form is the
    sum over the parts of `_form_on` in the modal form G of the order (the
    identity for L2, A1 for H1full and H1curl, A2 for H2), the right-hand
    side the sum of their `_jet_pairings`, and each field is solved with
    `np.linalg.solve`. The field-independent forms live for this call only
    and serve every field: the integer norms' form, and the fractional
    surrogate's rich `SobolevGram(cell, rich_degree, top)`, whose `half`
    gives every H_s product, and the Cholesky factor of its form, one solve
    for all fields. Only the integer norms' per-degree Gram is memoised
    (see `gram`).
    """
    cell = space.cell
    if norm in ("Hhalf", "Hhalf_div", "Hhalf_curl"):
        return _fractional_best_approx(space, fields, norm, s, rich_degree,
                                       quad, top)
    if norm not in _ORDER:
        raise ValueError(f"unknown norm {norm!r}")
    order = _ORDER[norm]
    if order == 0:
        G = np.eye(space.n_modes)  # the modes are L2-orthonormal
    else:
        g = gram(cell, space.degree)
        G = g.A1 if order == 1 else g.A2
    parts = [(ps.PolySpace(cell, vd, space.degree, rows(space.basis)), field_of)
             for vd, rows, field_of in _parts(space, norm)]
    A = sum(_form_on(part, G) for part, _ in parts)
    out = []
    for field in fields:
        rhs = sum(_jet_pairings(part, field_of(field), quad, order, table)
                  for part, field_of in parts)
        slots = np.linalg.solve(A, rhs) @ space.basis
        out.append((slots, error_in_norm(space, field, slots, quad, norm,
                                         table)))
    return out


def _fractional_best_approx(space, fields, norm, s, P, q, top):
    """The rich-space fractional minimizers of the fields, on one
    `SobolevGram(cell, P, top)` built for this call, with H_s = F F^T.

    Every field (and, for graph norms, its derivative) is paired with the
    rich modes first, all fields in one `rule_pairings` pass, so no rich
    table is formed, and z = F^T b for every pairing row b comes from one
    `half`. A row of a block (the basis, then for graph norms its
    derivative) reaches only the leading k = n_modes(space.degree) rich
    modes, so each component c of the block's rows R_c (dim, k) gives
    Y = `half`(R_c^T), which adds Y^T Y to the form and Y^T z_c to every
    field's right-hand side and is freed after its products. One Cholesky
    solve serves all fields; a field's surrogate error is
    ||z_c - `half`((x R_c)^T)|| summed over the components."""
    cell = space.cell
    parts = _parts(space, norm)
    pairings = rule_pairings(cell, P, q.points, q.weights, [
        field_of(field)(q.points) for field in fields
        for _, _, field_of in parts])
    g = SobolevGram(cell, P, top)
    k = cell.n_modes(space.degree)
    blocks = [rows(space.basis).reshape(space.dim, vd, k)
              for vd, rows, _ in parts]
    # one R_c per component, in the order of a field's pairing rows;
    # z[:, i, j] is F^T of row j of field i
    comps = [R[:, c] for R in blocks for c in range(R.shape[1])]
    z = g.half(np.vstack(pairings).T, s).reshape(g.n, len(fields), -1)
    A = np.zeros((space.dim, space.dim))
    rhs = np.zeros((space.dim, len(fields)))
    for j, Rc in enumerate(comps):
        Y = g.half(Rc.T, s)
        A += Y.T @ Y
        rhs += Y.T @ z[:, :, j]
        del Y
    x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), rhs).T
    # surrogate error: the H_s distance inside the rich space
    err2 = sum(np.sum((z[:, :, j] - g.half((x @ Rc).T, s)) ** 2, axis=0)
               for j, Rc in enumerate(comps))
    return [(xi @ space.basis, float(np.sqrt(e))) for xi, e in zip(x, err2)]
