"""Inner products, integer and fractional Sobolev norms, dual norms, and
unconstrained best-approximation projectors.

Fractional orders are realized by spectral interpolation of the (mass,
H1-Gram) pencil (and (H1, H2) for orders in (1,2]); dual norms are inner
approximations over a rich polynomial test space. Both are the standard
computable surrogates; equivalence constants are never asserted, only
measured by the studies.

Every derivative comes from one table: a graph norm's family derivative (curl
or div) from `calculus.DERIVATIVES`, whose coefficient tensor gives
both the slot rows of a polynomial's derivative and the same derivative of a
field, and each d^alpha of the norms' multi-indices from
`polyspace.deriv_alpha` on the polynomial side and the field's jets on the
other.
"""

import numpy as np
import scipy.linalg

from . import cache
from . import polyspace as ps
from .calculus import DERIVATIVES, derivative_name, diff_rows, diff_slots
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

    Every table is built on first read and is read-only, like the memoised
    Gram that shares it, so a form that reads only `n` (order 0) builds
    nothing. The spectrum of A1 is computed only for fractional orders:
    order 1 is the A1 form (a Cholesky solve with A1 for the dual form).
    Orders above 1 use the (A2, A1) pencil, whose spectrum is computed only
    for them: the H2 form reads A2 alone. A2 always reads this degree's
    derivative matrices.
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

    def _solve_a1(self, b):
        if self._cho is None:
            self._cho = cache.freeze(scipy.linalg.cho_factor(self.A1))
        return scipy.linalg.cho_solve(self._cho, b)

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

    def fractional_quadform(self, coeffs, s):
        """<H_s c, c> for scalar modal coefficients; exact at s in {0,1,2}."""
        if not 0.0 <= s <= 2.0:
            raise ValueError(f"fractional order s={s} outside [0, 2]")
        c = np.asarray(coeffs, dtype=float)
        if s == 0.0:
            return float(c @ c)
        if s == 1.0:
            return float(c @ (self.A1 @ c))
        if s < 1.0:
            lam, U = self._first_data()
            y = U.T @ c
            return float(np.sum(lam**s * y**2))
        mu, V = self._second_data()
        # V is A1-orthonormal: V^{-1} = V^T A1, H_s = V^{-T} mu^{s-1} V^{-1}
        y = V.T @ (self.A1 @ c)
        return float(np.sum(mu ** (s - 1.0) * y**2))

    def dual_quadform(self, b, s):
        """<H_s^{-1} b, b> for a covector b of L2 pairings against the modes."""
        if not 0.0 <= s <= 2.0:
            raise ValueError(f"fractional order s={s} outside [0, 2]")
        b = np.asarray(b, dtype=float)
        if s == 0.0:
            return float(b @ b)
        if s == 1.0:
            return float(b @ self._solve_a1(b))
        if s < 1.0:
            lam, U = self._first_data()
            y = U.T @ b
            return float(np.sum(lam ** (-s) * y**2))
        mu, V = self._second_data()
        y = V.T @ b
        return float(np.sum(mu ** (1.0 - s) * y**2))


@cache.memo
def gram(cell, degree, top=None):
    """The memoised `SobolevGram` of (cell, degree); with `top`, its A1 is
    the leading block of the degree-`top` stiffness table.

    The rate sweep reads its dual and fractional norms this way, from one
    table per cell; they stay memoised across degrees, since the P + 2 Gram
    of degree p is the P Gram of degree p + 2. The best-approximation forms
    (the H1full, H2 and H1curl denominators) keep the per-degree Gram: at
    high degree their values sit on a roundoff floor, which the two routes
    place differently. The fractional denominators' rich Gram is not read
    from here: `best_approx` builds its own for each call, so its spectrum
    lives for one degree.
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


def fractional_norm(g, coeffs, s):
    """H^s norm of a scalar or component-stacked field from modal coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.size % g.n:
        raise ValueError("coefficient length is not a multiple of the mode count")
    comps = c.reshape(-1, g.n)
    return float(np.sqrt(sum(g.fractional_quadform(ci, s) for ci in comps)))


def mode_pairings(V, weights, values):
    """L2 pairings of sampled values with the modes of a table V (nm, n_pts).

    values: (n_pts,) or (n_pts, k); returns (k, nm), one row per column, from
    one GEMM. The raveled rows of a vector field's components are its
    component-major slot covector.
    """
    vals = np.asarray(values, dtype=float).reshape(len(weights), -1)
    return (V @ (weights[:, None] * vals)).T


def dual_norm(g, pairings, s):
    """Discrete dual norm sup_{v in P_degree} (e, v)/||v||_{H^s}, from the
    component-stacked covector of L2 pairings of e with the modes."""
    comps = np.asarray(pairings, dtype=float).reshape(-1, g.n)
    return float(np.sqrt(sum(g.dual_quadform(bi, s) for bi in comps)))


# ---------------------------------------------------------------------------
# best approximation

# order of the multi-indices of each integer norm, and the derivative family
# whose graph norm it is (if any)
_ORDER = {"L2": 0, "H1full": 1, "H2": 2, "H1curl": 1}
_FAMILY = {"H1curl": "curl", "Hhalf_curl": "curl", "Hhalf_div": "div"}


def _graph_derivative(norm, dim):
    """The DERIVATIVES entry of a graph norm on a dim-cell, or None."""
    family = _FAMILY.get(norm)
    return family and derivative_name(family, dim)


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
    parts = [(field, space.value_dim, slots)]
    name = _graph_derivative(norm, cell.dim)
    if name:
        d = DERIVATIVES[name]
        parts.append((d.field(field), d.value_dim(cell.dim),
                      diff_slots(name, space, slots)))
    total = 0.0
    for f, vd, sl in parts:
        comps = np.reshape(sl, (vd, -1))
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
    modes of degree `rich_degree` and read no such table.

    The field-independent forms live for this call only and serve every
    field: the H2/H1full Gram of the basis, the H1curl Cholesky factor, and
    the fractional surrogate's rich `SobolevGram(cell, rich_degree, top)`,
    its factor and H_s images; its rich modal table is freed before they
    are built. Only the integer norms' per-degree Gram is memoised (see
    `gram`). Each field still has its own pairings, solve and error.
    """
    cell = space.cell
    if norm in ("Hhalf", "Hhalf_div", "Hhalf_curl"):
        return _fractional_best_approx(space, fields, norm, s, rich_degree,
                                       quad, top)
    if norm not in _ORDER:
        raise ValueError(f"unknown norm {norm!r}")

    if norm in ("H1full", "H2"):
        g = gram(cell, space.degree)
        A = _form_on(space, g.A1 if norm == "H1full" else g.A2)
    elif norm == "H1curl":
        cho, dcomp = _h1curl_form(space)
    out = []
    for field in fields:
        if norm == "L2":
            b = mode_pairings(table, quad.weights, field(quad.points)).ravel()
            coords = space.basis @ b
        elif norm == "H1curl":
            coords = _h1curl_minimizer(space, field, quad, table, cho, dcomp)
        else:
            rhs = _jet_pairings(space, field, quad, _ORDER[norm], table)
            coords = np.linalg.solve(A, rhs)
        slots = coords @ space.basis
        err = error_in_norm(space, field, slots, quad, norm, table)
        out.append((slots, err))
    return out


def _h1curl_form(space):
    """The Cholesky factor of the (H1, curl-H1) Gram of the space's basis,
    and the component rows of the basis's curls."""
    cell = space.cell
    g = gram(cell, space.degree)
    curl = derivative_name("curl", cell.dim)
    curls = ps.PolySpace(cell, DERIVATIVES[curl].value_dim(cell.dim),
                         space.degree, diff_rows(curl, space))
    A = _form_on(space, g.A1) + _form_on(curls, g.A1)
    return scipy.linalg.cho_factor(A), curls.components(curls.basis)


def _h1curl_minimizer(space, field, q, V, cho, dcomp):
    cell = space.cell
    d, vd = cell.dim, space.value_dim
    comps = space.components(space.basis)
    curl = DERIVATIVES[derivative_name("curl", d)].field(field)
    # rhs: (u, phi)_{H1} + (curl u, curl phi)_{H1}, all pairings in one product
    alphas = [alpha for alpha, _ in _derivative_multiindices(d, 1)]
    b = mode_pairings(V, q.weights, np.column_stack(
        [f.jet(q.points, alpha) for f in (field, curl) for alpha in alphas]))
    bu, *bdu = np.split(b[: vd * (d + 1)], d + 1)
    bc, *bdc = np.split(b[vd * (d + 1) :], d + 1)
    D = [ps.deriv_matrix(cell, space.degree, i) for i in range(d)]
    bu = bu + sum(bi @ Di for bi, Di in zip(bdu, D))
    bc = bc + sum(bi @ Di for bi, Di in zip(bdc, D))
    rhs = np.einsum("dcm,cm->d", comps, bu) + np.einsum("dcm,cm->d", dcomp, bc)
    return scipy.linalg.cho_solve(cho, rhs)


def _fractional_best_approx(space, fields, norm, s, P, q, top):
    """The rich-space fractional minimizers of the fields, on one
    `SobolevGram(cell, P, top)` built for this call.

    Every field (and, for graph norms, its derivative) is paired with the
    rich modes on the rule first, and the rich modal table is freed before
    the Gram is built, so the table never sits beside the forms. Then the
    factored form and, per block (the value, then for graph norms the
    derivative), the rows and the H_s images of their rich-degree copies,
    (dim, value_dim, n_modes(P)), serve every field's kept pairings."""
    cell = space.cell
    name = _graph_derivative(norm, cell.dim)
    V = cell.tabulate(P, q.points)
    pairings = []
    for field in fields:
        fs = [field] + ([DERIVATIVES[name].field(field)] if name else [])
        cols = [f(q.points).reshape(len(q.weights), -1) for f in fs]
        # pairings of u (and of D u) with the rich modes in one product
        b = mode_pairings(V, q.weights, np.column_stack(cols))
        cuts = np.cumsum([c.shape[1] for c in cols])[:-1]
        pairings.append(np.split(b, cuts))
    del V
    g = SobolevGram(cell, P, top)
    blocks = [(space.basis, space.value_dim)]
    if name:
        blocks.append((diff_rows(name, space),
                       DERIVATIVES[name].value_dim(cell.dim)))
    A, parts = 0, []
    for rows, vd in blocks:
        R = ps.pad_slots(rows, cell, vd, space.degree, P)
        R = R.reshape(space.dim, vd, cell.n_modes(P))
        Hs = np.stack([_apply_hs(g, R[:, c], s) for c in range(vd)], axis=1)
        A = A + sum(Hs[:, c] @ R[:, c].T for c in range(vd))
        parts.append((rows, Hs))
    cho = scipy.linalg.cho_factor(A)
    out = []
    for b in pairings:
        rhs = 0
        for (_, Hs), bk in zip(parts, b):
            rhs = rhs + sum(Hs[:, c] @ bk[c] for c in range(len(bk)))
        coords = scipy.linalg.cho_solve(cho, rhs)
        slots = coords @ space.basis
        # surrogate error: H_s distance inside the rich space
        err2 = 0
        for (rows, Hs), bk in zip(parts, b):
            R = ps.pad_slots(rows, cell, Hs.shape[1], space.degree, P)
            diff = bk - np.tensordot(coords, R.reshape(Hs.shape), axes=(0, 0))
            err2 += sum(g.fractional_quadform(diff[c], s)
                        for c in range(len(diff)))
        out.append((slots, float(np.sqrt(max(err2, 0.0)))))
    return out


def _apply_hs(g, X, s):
    """Apply H_s to rows of X (n, nm)."""
    if s == 0.0:
        return X
    if s == 1.0:
        return X @ g.A1
    if s < 1.0:
        lam, U = g._first_data()
        return ((X @ U) * lam**s) @ U.T
    mu, V = g._second_data()
    Vi = V.T @ g.A1  # V is A1-orthonormal, so V^{-1} = V^T A1
    Y = X @ Vi.T
    return (Y * mu ** (s - 1.0)) @ Vi
