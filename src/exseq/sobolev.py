"""Inner products, integer and fractional Sobolev norms, dual norms, and
unconstrained best-approximation projectors.

Fractional orders are realized by spectral interpolation of the (mass,
H1-Gram) pencil (and (H1, H2) for orders in (1,2]); dual norms are inner
approximations over a rich polynomial test space. Both are the standard
computable surrogates; equivalence constants are never asserted, only
measured by the studies.
"""

import numpy as np
import scipy.linalg

from . import cache
from . import polyspace as ps
from .calculus import diff_rows, diff_slots
from .refsimplex import quadrature


class SobolevGram:
    """Spectral data of the scalar modal space of a given degree on a cell.

    In modal coordinates the mass matrix is the identity; A1 = I + stiffness
    and A2 adds the (multinomial-weighted) second-derivative Gram, so the
    generalized eigenvalues are >= 1 and fractional powers interpolate the
    integer-order norms exactly at s in {0, 1, 2}.

    The spectrum of A1 is computed only for fractional orders: order 0 is the
    Euclidean form, and order 1 is the A1 form (a Cholesky solve with A1 for
    the dual form). Orders above 1 use the (A2, A1) pencil.
    """

    def __init__(self, cell, degree):
        self.cell = cell
        self.degree = degree
        self.n = cell.n_modes(degree)
        D = [ps.deriv_matrix(cell, degree, i) for i in range(cell.dim)]
        self._D = D
        S = sum(Di.T @ Di for Di in D)
        self.A1 = np.eye(self.n) + S
        self._first = None
        self._cho = None
        self._second = None

    def _first_data(self):
        """(clipped eigenvalues, eigenvectors) of A1."""
        if self._first is None:
            lam, U = scipy.linalg.eigh(self.A1)
            self._first = (np.clip(lam, 1.0, None), U)
        return self._first

    def _solve_a1(self, b):
        if self._cho is None:
            self._cho = scipy.linalg.cho_factor(self.A1)
        return scipy.linalg.cho_solve(self._cho, b)

    def _second_data(self):
        if self._second is None:
            d = self.cell.dim
            A2 = self.A1.copy()
            for i in range(d):
                for j in range(i, d):
                    w = 1.0 if i == j else 2.0
                    Mij = self._D[i] @ self._D[j]
                    A2 += w * (Mij.T @ Mij)
            mu, V = scipy.linalg.eigh(A2, self.A1)
            self._second = (A2, np.clip(mu, 1.0, None), V)
        return self._second

    @property
    def A2(self):
        return self._second_data()[0]

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
        _, mu, V = self._second_data()
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
        _, mu, V = self._second_data()
        y = V.T @ b
        return float(np.sum(mu ** (1.0 - s) * y**2))


@cache.memo
def gram(cell, degree):
    return SobolevGram(cell, degree)


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


def field_mode_pairings(cell, degree, quad, values):
    """L2 pairings of sampled field values with the modal basis.

    values: (n_pts,) or (n_pts, vd); returns (vd*nm,) slot covector.
    """
    V = cell.tabulate(degree, quad.points)
    return mode_pairings(V, quad.weights, values).ravel()


def dual_norm(g, field_or_values, s, quad_degree=None):
    """Discrete dual norm sup_{v in P_degree} (e, v)/||v||_{H^s}.

    `field_or_values` is an evaluator pts -> values, a (pairings,) covector,
    or an array of sampled values matching the quadrature.
    """
    if callable(field_or_values):
        qd = quad_degree or (2 * g.degree + 10)
        q = quadrature(g.cell, min(qd, 40))
        vals = field_or_values(q.points)
        b = field_mode_pairings(g.cell, g.degree, q, vals)
    else:
        b = np.asarray(field_or_values, dtype=float)
    comps = b.reshape(-1, g.n)
    return float(np.sqrt(sum(g.dual_quadform(bi, s) for bi in comps)))


# ---------------------------------------------------------------------------
# best approximation


def _h1_gram_on(space):
    g = gram(space.cell, space.degree)
    comps = space.components(space.basis)
    return sum(comps[:, c] @ g.A1 @ comps[:, c].T for c in range(space.value_dim))


def _h2_gram_on(space):
    g = gram(space.cell, space.degree)
    comps = space.components(space.basis)
    return sum(comps[:, c] @ g.A2 @ comps[:, c].T for c in range(space.value_dim))


def _jet_pairings(space, field, quad, order_matrices):
    """Sum of L2 pairings of prescribed derivatives of the field against the
    corresponding derivatives of the basis, in space coordinates."""
    cell = space.cell
    nm = space.n_modes
    vd = space.value_dim
    comps = space.components(space.basis)
    V = cell.tabulate(space.degree, quad.points)
    jets = [field.jet(quad.points, alpha) for alpha, _ in order_matrices]
    b = mode_pairings(V, quad.weights, np.column_stack(jets)).reshape(-1, vd, nm)
    rhs = np.zeros(space.dim)
    for (alpha, weight), b_alpha in zip(order_matrices, b):
        mat = np.eye(nm)
        for i, a in enumerate(alpha):
            for _ in range(a):
                mat = ps.deriv_matrix(cell, space.degree, i) @ mat
        rhs += weight * np.einsum("dcm,cm->d", comps, b_alpha @ mat)
    return rhs


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


def _diff_values(space, slots, V, alpha):
    """Values of d^alpha of a polynomial given by slot coefficients, from the
    modal table V of the space's degree at the points."""
    cell = space.cell
    mat = np.eye(space.n_modes)
    for i, a in enumerate(alpha):
        for _ in range(a):
            mat = ps.deriv_matrix(cell, space.degree, i) @ mat
    comp = space.components(slots) @ mat.T
    vals = comp @ V
    return vals[0] if space.value_dim == 1 else vals.T


def _l2sq(quad, diff):
    diff = np.asarray(diff, dtype=float)
    if diff.ndim == 1:
        return float(np.sum(quad.weights * diff**2))
    return float(np.einsum("q,qi->", quad.weights, diff**2))


def error_in_norm(space, field, slots, quad, norm):
    """Quadrature error ||field - polynomial|| in the requested norm.

    Derivative parts come from the field's jets; fractional norms are handled
    by their surrogate forms elsewhere.
    """
    cell = space.cell
    dim = cell.dim
    V = cell.tabulate(space.degree, quad.points)

    def jet_err_sq(alphas):
        total = 0.0
        for alpha, wgt in alphas:
            fv = field.jet(quad.points, alpha)
            pv = _diff_values(space, slots, V, alpha)
            total += wgt * _l2sq(quad, np.asarray(fv, dtype=float) - pv)
        return total

    if norm == "L2":
        return float(np.sqrt(jet_err_sq([((0,) * dim, 1.0)])))
    if norm in ("H1", "H1full"):
        return float(np.sqrt(jet_err_sq(_derivative_multiindices(dim, 1))))
    if norm == "H2":
        return float(np.sqrt(jet_err_sq(_derivative_multiindices(dim, 2))))
    if norm in ("Hcurl", "Hdiv", "H1curl"):
        base_order = 1 if norm == "H1curl" else 0
        total = jet_err_sq(_derivative_multiindices(dim, base_order))
        if norm in ("Hcurl", "H1curl"):
            dname = "curl3d" if dim == 3 else "curl2d_vector"
            out_vd = 3 if dim == 3 else 1
            du = _field_curl(field, quad.points, dim)
            dfield = _field_curl_jet(field, quad.points, dim) if norm == "H1curl" else None
        else:
            dname = "div"
            out_vd = 1
            du = sum(
                field.jet(quad.points, _unit(dim, i))[:, i] for i in range(dim)
            )
            dfield = None
        drows = diff_slots(dname, space, slots)
        dspace = ps.PolySpace(cell, out_vd, space.degree, drows[None, :])
        pv = _diff_values(dspace, drows, V, (0,) * dim)
        du = np.asarray(du, dtype=float)
        total += _l2sq(quad, du - pv)
        if norm == "H1curl":
            for i in range(dim):
                pv_i = _diff_values(dspace, drows, V, _unit(dim, i))
                fv_i = dfield[i]
                if fv_i.ndim == 2 and out_vd == 1:
                    fv_i = fv_i[:, 0]
                total += _l2sq(quad, np.asarray(fv_i, dtype=float) - pv_i)
        return float(np.sqrt(total))
    raise ValueError(f"no direct error formula for norm {norm!r}")


def _error_norm(space, field, coeffs_slots, quad, kind):
    """Error of the approximation in its own norm (L2 for the plain kinds)."""
    direct = {
        "L2": "L2",
        "H1": "H1full",
        "H1full": "H1full",
        "H2": "H2",
        "Hcurl": "Hcurl",
        "Hdiv": "Hdiv",
        "H1curl": "H1curl",
    }
    return error_in_norm(space, field, coeffs_slots, quad, direct[kind])


def best_approx(space, field, norm="L2", rich_degree=None, quad_degree=None,
                s=0.5, quad=None):
    """Best approximation of an analytic field in `space`.

    norm:
      L2       plain L2 projection
      H1       gradient orthogonality plus zero-mean matching
      H1full   full H1-norm minimization
      H2       full H2-norm minimization
      Hcurl    curl-curl orthogonality plus orthogonality to gradients
      Hdiv     div-div orthogonality plus orthogonality to the curl range
      H1curl   full (H1, curl-H1) norm minimization
      Hhalf    fractional H^s minimization through a rich-space surrogate
      Hhalf_div, Hhalf_curl   graph-norm surrogates ||.||_{H^s}^2 + ||D.||_{H^s}^2

    Returns (slot coefficients, error) where the error is the L2-part
    quadrature error for integer norms and the surrogate-form error for the
    fractional ones.
    """
    cell = space.cell
    if quad is None:
        qd = quad_degree or min(2 * space.degree + 14, 40)
        q = quadrature(cell, qd)
    else:
        q = quad

    if norm == "L2":
        b = field_mode_pairings(cell, space.degree, q, field(q.points))
        coords = space.basis @ b
    elif norm == "H1":
        if space.value_dim != 1:
            raise ValueError("the gradient-orthogonal projector is scalar")
        grad_rows = calculus_grad_rows(space)
        A = grad_rows @ grad_rows.T
        gvals = np.stack(
            [field.jet(q.points, _unit(cell.dim, i)) for i in range(cell.dim)], axis=1
        )
        b = field_mode_pairings(cell, space.degree, q, gvals)
        rhs = grad_rows @ b
        mean = ps.mean_row(cell, 1, space.degree)[0] @ space.basis.T
        A = np.vstack([A, mean[None, :]])
        target_mean = float(np.sum(q.weights * field(q.points)))
        rhs = np.concatenate([rhs, [target_mean]])
        coords, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    elif norm == "H1full":
        A = _h1_gram_on(space)
        rhs = _jet_pairings(space, field, q, _derivative_multiindices(cell.dim, 1))
        coords = np.linalg.solve(A, rhs)
    elif norm == "H2":
        A = _h2_gram_on(space)
        rhs = _jet_pairings(space, field, q, _derivative_multiindices(cell.dim, 2))
        coords = np.linalg.solve(A, rhs)
    elif norm in ("Hcurl", "Hdiv"):
        coords = _two_block_projector(space, field, q, norm)
    elif norm == "H1curl":
        coords = _h1curl_minimizer(space, field, q)
    elif norm in ("Hhalf", "Hhalf_div", "Hhalf_curl"):
        return _fractional_best_approx(space, field, norm, s, rich_degree, q)
    else:
        raise ValueError(f"unknown norm {norm!r}")

    slots = coords @ space.basis
    return slots, _error_norm(space, field, slots, q, norm)


def _unit(dim, i):
    a = [0] * dim
    a[i] = 1
    return tuple(a)


def calculus_grad_rows(space):
    return diff_rows("grad", space)


def _two_block_projector(space, field, q, norm):
    cell = space.cell
    if norm == "Hcurl":
        dname = "curl3d" if cell.dim == 3 else "curl2d_vector"
        d_rows = diff_rows(dname, space)
        scalar = ps.scalar_space(cell, space.degree)
        g_rows = diff_rows("grad", scalar)
        g_basis = ps.span_from_rows(g_rows)
        # complement of gradients inside the space, to test the curl block
        compl = ps.subspace_from_constraints(space, g_basis)
        d_compl = diff_rows(dname, compl)
        rows_a = d_compl @ d_rows.T  # curl-curl conditions against complement
        rows_b = g_basis @ space.basis.T  # gradient orthogonality
        if field.value_dim != space.value_dim:
            raise ValueError("field/value-dim mismatch")
        du = _field_curl(field, q.points, cell.dim)
        test_b = g_basis
    else:
        d_rows = diff_rows("div", space)
        ned = ps.nedelec_space(cell, space.degree - 1)
        c_rows = diff_rows("curl3d", ned)
        c_basis = ps.span_from_rows(c_rows)
        c_basis = ps.pad_slots(c_basis, cell, 3, ned.degree, space.degree)
        compl = ps.subspace_from_constraints(space, c_basis)
        d_compl = diff_rows("div", compl)
        rows_a = d_compl @ d_rows.T
        rows_b = c_basis @ space.basis.T
        du = field.jet(q.points, (1, 0, 0))[:, 0] + field.jet(q.points, (0, 1, 0))[
            :, 1
        ] + field.jet(q.points, (0, 0, 1))[:, 2]
        test_b = c_basis
    # pair D u and u with the modes in one product
    V = cell.tabulate(space.degree, q.points)
    du = np.asarray(du, dtype=float).reshape(len(q.weights), -1)
    b = mode_pairings(V, q.weights, np.column_stack([du, field(q.points)]))
    k = du.shape[1]
    A = np.vstack([rows_a, rows_b])
    rhs = np.concatenate([d_compl @ b[:k].ravel(), test_b @ b[k:].ravel()])
    return np.linalg.solve(A, rhs)


def _field_curl(field, pts, dim):
    if dim == 3:
        j = {a: field.jet(pts, a) for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        return np.stack(
            [
                j[(0, 1, 0)][:, 2] - j[(0, 0, 1)][:, 1],
                j[(0, 0, 1)][:, 0] - j[(1, 0, 0)][:, 2],
                j[(1, 0, 0)][:, 1] - j[(0, 1, 0)][:, 0],
            ],
            axis=1,
        )
    jx = field.jet(pts, (1, 0))
    jy = field.jet(pts, (0, 1))
    return jx[:, 1] - jy[:, 0]


@cache.memo
def _h1curl_matrices(space):
    cell = space.cell
    g = gram(cell, space.degree)
    comps = space.components(space.basis)
    A = sum(comps[:, c] @ g.A1 @ comps[:, c].T for c in range(space.value_dim))
    d_rows = diff_rows("curl3d" if cell.dim == 3 else "curl2d_vector", space)
    vd_curl = 3 if cell.dim == 3 else 1
    dcomp = d_rows.reshape(space.dim, vd_curl, space.n_modes)
    A = A + sum(dcomp[:, c] @ g.A1 @ dcomp[:, c].T for c in range(vd_curl))
    return scipy.linalg.cho_factor(A), dcomp, vd_curl


def _h1curl_minimizer(space, field, q):
    cell = space.cell
    d, vd = cell.dim, space.value_dim
    comps = space.components(space.basis)
    cho, dcomp, vd_curl = _h1curl_matrices(space)
    # rhs: (u, phi)_{H1} + (curl u, curl phi)_{H1}, all pairings in one product
    V = cell.tabulate(space.degree, q.points)
    du = [field.jet(q.points, _unit(d, i)) for i in range(d)]
    curl_u = _field_curl(field, q.points, d)
    dcurl = _field_curl_jet(field, q.points, d)
    b = mode_pairings(V, q.weights,
                      np.column_stack([field(q.points), *du, curl_u, *dcurl]))
    bu, *bdu = np.split(b[: vd * (d + 1)], d + 1)
    bc, *bdc = np.split(b[vd * (d + 1) :], d + 1)
    D = [ps.deriv_matrix(cell, space.degree, i) for i in range(d)]
    bu = bu + sum(bi @ Di for bi, Di in zip(bdu, D))
    bc = bc + sum(bi @ Di for bi, Di in zip(bdc, D))
    rhs = np.einsum("dcm,cm->d", comps, bu) + np.einsum("dcm,cm->d", dcomp, bc)
    return scipy.linalg.cho_solve(cho, rhs)


def _field_curl_jet(field, pts, dim):
    """Spatial derivatives of the curl, from order-2 jets of the field."""
    out = []
    for i in range(dim):
        if dim == 3:
            def second(a, b):
                alpha = [0, 0, 0]
                alpha[a] += 1
                alpha[b] += 1
                return field.jet(pts, tuple(alpha))
            ji = [second(i, k) for k in range(3)]
            out.append(
                np.stack(
                    [
                        ji[1][:, 2] - ji[2][:, 1],
                        ji[2][:, 0] - ji[0][:, 2],
                        ji[0][:, 1] - ji[1][:, 0],
                    ],
                    axis=1,
                )
            )
        else:
            alpha_x = [0, 0]
            alpha_x[i] += 1
            ax = tuple(a + b for a, b in zip(alpha_x, (1, 0)))
            ay = tuple(a + b for a, b in zip(alpha_x, (0, 1)))
            out.append((field.jet(pts, ax)[:, 1] - field.jet(pts, ay)[:, 0])[:, None])
    return out


@cache.memo
def _fractional_matrices(space, norm, s, P):
    """Field-independent structures of the rich-space fractional minimizer."""
    cell = space.cell
    g = gram(cell, P)
    nm_rich = cell.n_modes(P)
    B = ps.pad_slots(space.basis, cell, space.value_dim, space.degree, P)
    Bc = B.reshape(space.dim, space.value_dim, nm_rich)
    Hs_B = np.stack(
        [_apply_hs(g, Bc[:, c], s) for c in range(space.value_dim)], axis=1
    )
    A = sum(Hs_B[:, c] @ Bc[:, c].T for c in range(space.value_dim))
    dc = Hs_d = None
    out_vd = 0
    if norm in ("Hhalf_div", "Hhalf_curl"):
        if norm == "Hhalf_div":
            d_rows = diff_rows("div", space)
            out_vd = 1
        else:
            dname = "curl3d" if cell.dim == 3 else "curl2d_vector"
            d_rows = diff_rows(dname, space)
            out_vd = 3 if cell.dim == 3 else 1
        d_rows = ps.pad_slots(d_rows, cell, out_vd, space.degree, P)
        dc = d_rows.reshape(space.dim, out_vd, nm_rich)
        Hs_d = np.stack(
            [_apply_hs(g, dc[:, c], s) for c in range(out_vd)], axis=1
        )
        A = A + sum(Hs_d[:, c] @ dc[:, c].T for c in range(out_vd))
    return scipy.linalg.cho_factor(A), Bc, Hs_B, dc, Hs_d, out_vd


def _fractional_best_approx(space, field, norm, s, rich_degree, q):
    cell = space.cell
    P = rich_degree or (space.degree + 6)
    g = gram(cell, P)
    cho, Bc, Hs_B, dc, Hs_d, out_vd = _fractional_matrices(space, norm, s, P)
    uvals = np.asarray(field(q.points), dtype=float).reshape(len(q.weights), -1)
    cols = [uvals]
    if out_vd:
        if norm == "Hhalf_div":
            du = sum(
                field.jet(q.points, _unit(cell.dim, i))[:, i]
                for i in range(cell.dim)
            )
        else:
            du = _field_curl(field, q.points, cell.dim)
        cols.append(du)
    # pairings of u (and of D u) with the rich modes in one product
    b = mode_pairings(cell.tabulate(P, q.points), q.weights, np.column_stack(cols))
    u_rich, du_rich = b[: uvals.shape[1]], b[uvals.shape[1] :]
    rhs = sum(Hs_B[:, c] @ u_rich[c] for c in range(space.value_dim))
    rhs = rhs + sum(Hs_d[:, c] @ du_rich[c] for c in range(out_vd))
    coords = scipy.linalg.cho_solve(cho, rhs)
    slots = coords @ space.basis
    # surrogate error: H_s distance inside the rich space
    diff = u_rich - np.tensordot(coords, Bc, axes=(0, 0))
    err2 = sum(
        g.fractional_quadform(diff[c], s) for c in range(diff.shape[0])
    )
    if out_vd:
        ddiff = du_rich - np.tensordot(coords, dc, axes=(0, 0))
        err2 += sum(
            g.fractional_quadform(ddiff[c], s) for c in range(ddiff.shape[0])
        )
    return slots, float(np.sqrt(max(err2, 0.0)))


def _apply_hs(g, X, s):
    """Apply H_s to rows of X (n, nm)."""
    if s == 0.0:
        return X
    if s == 1.0:
        return X @ g.A1
    if s < 1.0:
        lam, U = g._first_data()
        return ((X @ U) * lam**s) @ U.T
    _, mu, V = g._second_data()
    Vi = V.T @ g.A1  # V is A1-orthonormal, so V^{-1} = V^T A1
    Y = X @ Vi.T
    return (Y * mu ** (s - 1.0)) @ Vi
