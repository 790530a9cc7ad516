from fractions import Fraction
from itertools import product
from math import factorial, prod

import numpy as np
import pytest
from scipy.special import roots_jacobi

from exseq import calculus as ca
from exseq import poincare as pc
from exseq import polyspace as ps
from exseq.refsimplex import quadrature


def _project_field(cell, degree, fn, vd):
    q = quadrature(cell, 2 * degree + 4)
    V = cell.tabulate(degree, q.points)
    vals = fn(q.points)
    if vd == 1:
        return (V * q.weights) @ vals
    return np.concatenate([(V * q.weights) @ vals[:, i] for i in range(vd)])


def test_laplacian_moments_match_radial_quadrature(rc3, rc2):
    # f = |y|^2n is homogeneous, so the bump's Taylor expansion gives
    # int theta f = c_n Lap^n f = c_n prod_k 2k (2k + d - 2). The left side is
    # radial: a 1-D Gauss-Jacobi rule in t = |y|^2 / r^2 with weight
    # (1 - t)^m t^(d/2 - 1). n = 0 is the unit mass.
    for rc, kind in ((rc3, "div3d"), (rc2, "curl2d")):
        inv = pc.regularized_inverse(rc, kind)
        d, r = rc.dim, inv.radius
        x, w = roots_jacobi(8, pc.BUMP_POWER, d / 2 - 1)
        t = (1 + x) / 2
        for n in range(5):
            radial = r ** (2 * n) * (w @ t**n) / w.sum()
            lap_n = prod(2 * k * (2 * k + d - 2) for k in range(1, n + 1))
            assert pc._laplacian_moment(d, n, r) * lap_n == pytest.approx(
                radial, rel=1e-13)
        # support inside the cell
        assert inv.radius < rc.inradius


def _multi_index_moment(dim, alpha, radius):
    # centered moment mu_alpha of the unit-mass bump over the radius-r ball
    if any(a % 2 for a in alpha):
        return 0.0
    val = Fraction(1)
    for a in alpha:
        for k in range(1, a // 2 + 1):
            val *= Fraction(2 * k - 1, 2)
    for k in range(sum(alpha) // 2):
        val /= Fraction(dim, 2) + pc.BUMP_POWER + 1 + k
    return float(val) * radius ** sum(alpha)


@pytest.mark.parametrize("dim", [2, 3])
def test_taylor_levels_collapse_to_laplacian_powers(dim, rc2, rc3):
    # each level of sum_alpha mu_alpha d^alpha / alpha! on the modal matrices
    # equals the power of the modal Laplacian the right inverses are built from
    cell, degree = {2: rc2, 3: rc3}[dim], 5
    r = pc.RADIUS_FACTOR * cell.inradius
    D = [ps.deriv_matrix(cell, degree, i) for i in range(dim)]
    lap = sum(Di @ Di for Di in D)

    def level(L, shift):
        return sum(
            _multi_index_moment(dim, tuple(np.add(alpha, shift)), r)
            * ps.deriv_alpha(cell, degree, alpha) / prod(map(factorial, alpha))
            for alpha in product(range(L + 1), repeat=dim) if sum(alpha) == L)

    for L in range(degree + 1):
        n = L // 2
        lap_n = np.linalg.matrix_power(lap, n)
        if L % 2 == 0:
            pairs = [(level(L, [0] * dim),
                      pc._laplacian_moment(dim, n, r) * lap_n)]
        else:
            c = 2 * (n + 1) * pc._laplacian_moment(dim, n + 1, r)
            pairs = [(level(L, np.eye(dim, dtype=int)[i]), c * D[i] @ lap_n)
                     for i in range(dim)]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_div_inverse_of_one(rc3):
    rd = pc.regularized_inverse(rc3, "div3d")
    cell = rc3
    one = ps.scalar_space(cell, 0)
    slots = np.array([np.sqrt(cell.measure)])
    osp, out = rd.apply(one, slots)
    dv = ca.diff_slots("div", osp, out)
    target = np.zeros(cell.n_modes(1))
    target[0] = np.sqrt(cell.measure)
    assert np.abs(dv - target).max() < 1e-12
    # the output equals (x - c)/3 exactly, c the bump centroid
    q = quadrature(cell, 4)
    vals = osp.evaluate(out, q.points)
    assert np.abs(vals - (q.points - cell.centroid) / 3).max() < 1e-12


def test_grad_inverse_on_gradient(rc3):
    rg = pc.regularized_inverse(rc3, "grad3d")
    cell = rc3
    vs = ps.vector_space(cell, 1, 3)
    slots = _project_field(cell, 1, lambda x: np.stack(
        [2 * x[:, 0], np.zeros(len(x)), np.zeros(len(x))], axis=1), 3)
    osp, out = rg.apply(vs, slots)
    g = ca.diff_slots("grad", osp, out)
    assert np.abs(g - ps.pad_slots(slots, cell, 3, 1, osp.degree)).max() < 1e-12


def test_curl_inverse_on_divfree(rc3):
    rcu = pc.regularized_inverse(rc3, "curl3d")
    cell = rc3
    vs = ps.vector_space(cell, 1, 3)
    slots = _project_field(cell, 1, lambda x: np.stack(
        [-x[:, 1], x[:, 0], np.zeros(len(x))], axis=1), 3)
    osp, out = rcu.apply(vs, slots)
    c = ca.diff_slots("curl3d", osp, out)
    assert np.abs(c - ps.pad_slots(slots, cell, 3, 1, osp.degree)).max() < 1e-12


@pytest.mark.parametrize("p", [1, 3, 5, 8])
def test_right_inverse_identities_random(rc3, rng, p):
    cell = rc3
    rg = pc.regularized_inverse(rc3, "grad3d")
    rcu = pc.regularized_inverse(rc3, "curl3d")
    rd = pc.regularized_inverse(rc3, "div3d")
    # (iii): unrestricted scalars
    sc = ps.scalar_space(cell, p)
    for u in sc.random_elements(3, rng):
        osp, o = rd.apply(sc, u)
        dv = ca.diff_slots("div", osp, o)
        assert np.abs(dv - ps.pad_slots(u, cell, 1, p, osp.degree)).max() < 1e-10
    # (ii): curl-free inputs
    scp = ps.scalar_space(cell, p + 1)
    for phi in scp.random_elements(3, rng):
        g = ca.diff_rows("grad", ps.PolySpace(cell, 1, p + 1, phi[None, :]))[0]
        osp, o = rg.apply(ps.vector_space(cell, p + 1, 3), g)
        gg = ca.diff_slots("grad", osp, o)
        assert np.abs(gg - ps.pad_slots(g, cell, 3, p + 1, osp.degree)).max() < 1e-10
    # (i): divergence-free inputs
    Q = ps.build_space(rc3, "hcurl", p)
    V = ps.build_space(rc3, "hdiv", p)
    cmat = ca.diff_op("curl3d", Q, V)
    for c in Q.random_elements(3, rng):
        w = ((Q.basis @ c) @ cmat) @ V.basis
        osp, o = rcu.apply(ps.vector_space(cell, p + 1, 3), w)
        cw = ca.diff_slots("curl3d", osp, o)
        scale = max(np.abs(w).max(), 1e-30)
        assert np.abs(cw - ps.pad_slots(w, cell, 3, p + 1, osp.degree)).max() \
            < 1e-10 * max(scale, 1.0)


@pytest.mark.parametrize("p", [0, 2, 5, 8])
def test_polynomial_preservation(rc3, p):
    cell = rc3
    rg = pc.regularized_inverse(rc3, "grad3d")
    rcu = pc.regularized_inverse(rc3, "curl3d")
    rd = pc.regularized_inverse(rc3, "div3d")
    W = ps.build_space(rc3, "h1", p)
    Q = ps.build_space(rc3, "hcurl", p)
    V = ps.build_space(rc3, "hdiv", p)
    img = Q.basis @ rg.matrix(p + 1)
    _, resid = ca._expand_in(W, img, cell, 1, p + 2)
    assert resid < 1e-10
    img = V.basis @ rcu.matrix(p + 1)
    _, resid = ca._expand_in(Q, img, cell, 3, p + 2)
    assert resid < 1e-10
    img = ps.scalar_space(cell, p).basis @ rd.matrix(p)
    _, resid = ca._expand_in(V, img, cell, 3, p + 1)
    assert resid < 1e-10


def test_2d_identities_and_preservation(rc2, rng):
    p = 4
    cell = rc2
    rg = pc.regularized_inverse(rc2, "grad2d")
    rcu = pc.regularized_inverse(rc2, "curl2d")
    # curl of the curl-inverse reproduces any scalar
    sc = ps.scalar_space(cell, p)
    for u in sc.random_elements(3, rng):
        osp, o = rcu.apply(sc, u)
        cr = ca.diff_slots("curl2d_vector", osp, o)
        assert np.abs(cr - ps.pad_slots(u, cell, 1, p, osp.degree)).max() < 1e-10
    # gradient-inverse on gradients
    scp = ps.scalar_space(cell, p + 1)
    for phi in scp.random_elements(3, rng):
        g = ca.diff_rows("grad", ps.PolySpace(cell, 1, p + 1, phi[None, :]))[0]
        osp, o = rg.apply(ps.vector_space(cell, p + 1, 2), g)
        gg = ca.diff_slots("grad", osp, o)
        assert np.abs(gg - ps.pad_slots(g, cell, 2, p + 1, osp.degree)).max() < 1e-10
    # memberships: scalar L2 slot into edge elements, edge elements into H1
    Q2 = ps.build_space(rc2, "hcurl", p)
    W2 = ps.build_space(rc2, "h1", p)
    img = ps.scalar_space(cell, p).basis @ rcu.matrix(p)
    _, resid = ca._expand_in(Q2, img, cell, 2, p + 1)
    assert resid < 1e-10
    img = Q2.basis @ rg.matrix(p + 1)
    _, resid = ca._expand_in(W2, img, cell, 1, p + 2)
    assert resid < 1e-10


def test_helmholtz_curl_gradient_branch(rc3):
    # curl-free input: z vanishes and grad(phi) reproduces u
    cell = rc3
    p = 3
    phi = ps.scalar_space(cell, p + 1).random_elements(
        1, np.random.default_rng(0))[0]
    g = ca.diff_rows("grad", ps.PolySpace(cell, 1, p + 1, phi[None, :]))[0]
    vs = ps.vector_space(cell, p + 1, 3)
    phi_s, phihat, z_s, z, res = pc.helmholtz_curl(rc3, vs, g)
    assert np.abs(z).max() < 1e-12 * max(np.abs(g).max(), 1.0)
    assert res < 1e-12


def test_helmholtz_div_divfree_branch(rc3):
    cell = rc3
    slots = _project_field(cell, 1, lambda x: np.stack(
        [-x[:, 1], x[:, 0], np.zeros(len(x))], axis=1), 3)
    vs = ps.vector_space(cell, 1, 3)
    psi_s, psi, z_s, z, res = pc.helmholtz_div(rc3, vs, slots)
    assert np.abs(z).max() < 1e-13
    assert res < 1e-12


def test_helmholtz_reconstruction_random(rc3, rng):
    cell = rc3
    for p in (3, 4):
        vs = ps.vector_space(cell, p, 3)
        for u in vs.random_elements(3, rng):
            *_, res = pc.helmholtz_curl(rc3, vs, u)
            assert res <= 1e-9
            *_, res = pc.helmholtz_div(rc3, vs, u)
            assert res <= 1e-9


def test_helmholtz_discrete_preservation(rc3, rng):
    # edge-element input: potential lands in H1 space, remainder in the
    # edge-element space
    p = 3
    Q = ps.build_space(rc3, "hcurl", p)
    W = ps.build_space(rc3, "h1", p)
    u = Q.random_elements(1, rng)[0]
    vs = ps.vector_space(rc3, p + 1, 3)
    phi_s, phi, z_s, z, _ = pc.helmholtz_curl(rc3, vs, u)
    _, resid = ca._expand_in(W, phi[None, :], rc3, 1, phi_s.degree)
    assert resid < 1e-9
    _, resid = ca._expand_in(Q, z[None, :], rc3, 3, z_s.degree)
    assert resid < 1e-9


def test_constant_divergence_case(rc3):
    # u = (x, y, z): div u = 3, remainder z = x - c with unit divergence x3
    cell = rc3
    slots = _project_field(cell, 1, lambda x: x, 3)
    vs = ps.vector_space(cell, 1, 3)
    _, _, z_s, z, _ = pc.helmholtz_div(rc3, vs, slots)
    q = quadrature(cell, 4)
    vals = z_s.evaluate(z, q.points)
    assert np.abs(vals - (q.points - cell.centroid)).max() < 1e-12
    dv = ca.diff_slots("div", z_s, z)
    target = np.zeros(cell.n_modes(z_s.degree))
    target[0] = 3 * np.sqrt(cell.measure)
    assert np.abs(dv - target).max() < 1e-12


def test_invalid_kind_and_dim(rc3, rc2):
    with pytest.raises(ValueError):
        pc.RegularizedInverse(rc3, "curl2d")
    with pytest.raises(ValueError):
        pc.RegularizedInverse(rc2, "div3d")
    with pytest.raises(ValueError):
        pc.RegularizedInverse(rc3, "nope")
