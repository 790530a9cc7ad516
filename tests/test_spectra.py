import numpy as np
import pytest

from exseq import calculus as ca
from exseq import polyspace as ps
from exseq import spectra as spc
from exseq.refsimplex import quadrature, tet_faces


def test_case_curl2d_full_p0_dimension():
    C, lam, dim = spc.friedrichs_constant("curl2d_full", 0)
    assert dim == 1
    assert C > 0 and np.isfinite(C)


def test_constraint_residuals():
    for case in spc.FRIEDRICHS_CASES:
        sub, rows = spc.constrained_subspace(case, 3)
        if sub.dim and len(rows):
            assert np.abs(rows @ sub.basis.T).max() < 1e-11


def test_gradient_field_violates_constraint(rng, rc3):
    # inserting a gradient into the constrained space is detected
    _, rows = spc.constrained_subspace("curl3d_full", 2)
    W = ps.build_space(rc3, "h1", 2)
    phi = W.random_elements(1, rng)[0]
    g = ca.diff_rows("grad", ps.PolySpace(rc3, 1, 3, phi[None, :]))[0]
    coords = rows @ g
    assert np.abs(coords).max() > 1e-6  # clearly rejected


@pytest.mark.parametrize("case", spc.FRIEDRICHS_CASES)
def test_friedrichs_p_stability(case):
    vals = []
    for p in range(1, 9):
        C, lam, dim = spc.friedrichs_constant(case, p)
        if dim:
            assert C > 0
            vals.append(C)
    assert vals, f"no nonempty subspaces for {case}"
    assert max(vals) / min(vals) <= 2.0


def test_lifting_curl_properties(rng, rc3):
    p = 4
    Q = ps.build_space(rc3, "hcurl", p)
    for w in Q.random_elements(3, rng):
        res = spc.discrete_lifting_curl(p, w)
        assert res.trace_residual < 1e-10
        assert res.orthogonality_residual < 1e-10
        scale = np.linalg.norm(w)
        assert res.multiplier_norm <= 1e-10 * max(scale, 1.0)


def _energy(res, deriv):
    """The lifting's derivative norm ||deriv u||."""
    return np.linalg.norm(ca.diff_slots(deriv, res.space, res.slots))


def test_lifting_curl_zero_and_gradient_data(rng, rc3):
    p = 3
    Q = ps.build_space(rc3, "hcurl", p)
    res0 = spc.discrete_lifting_curl(p, np.zeros(3 * Q.n_modes))
    assert np.linalg.norm(res0.slots) == 0.0
    W = ps.build_space(rc3, "h1", p)
    phi = W.random_elements(1, rng)[0]
    g = ca.diff_rows("grad", ps.PolySpace(rc3, 1, p + 1, phi[None, :]))[0]
    res = spc.discrete_lifting_curl(p, g)
    # a curl-free lifting of gradient boundary data exists, so the
    # minimum-energy lifting has (numerically) zero curl
    assert _energy(res, "curl3d") <= 1e-9 * max(np.linalg.norm(g), 1.0)


def test_lifting_curl_minimality(rng, rc3):
    p = 3
    Q = ps.build_space(rc3, "hcurl", p)
    w = Q.random_elements(1, rng)[0]
    res = spc.discrete_lifting_curl(p, w)
    curl_w = ca.diff_slots("curl3d", Q, w)
    # the admissible field w itself is one constrained competitor only if it
    # satisfies the orthogonality; compare against the energy of w anyway
    assert _energy(res, "curl3d") <= np.linalg.norm(curl_w) + 1e-10


def test_lifting_div_properties(rng, rc3):
    p = 4
    V = ps.build_space(rc3, "hdiv", p)
    for w in V.random_elements(3, rng):
        res = spc.discrete_lifting_div(p, w)
        assert res.trace_residual < 1e-10
        assert res.orthogonality_residual < 1e-10
        assert res.multiplier_norm <= 1e-10 * max(np.linalg.norm(w), 1.0)


def test_lifting_div_mean_equals_boundary_flux(rng, rc3):
    p = 2
    V = ps.build_space(rc3, "hdiv", p)
    w = V.random_elements(1, rng)[0]
    res = spc.discrete_lifting_div(p, w)
    div_rows = ca.diff_slots("div", V, res.slots)
    mean_div = div_rows[0] * np.sqrt(rc3.measure)
    flux = 0.0
    for face in tet_faces(rc3):
        q2 = quadrature(face.cell, 2 * p + 6)
        vals = V.evaluate(w, face.embed(q2.points)) @ face.normal
        flux += float(np.sum(q2.weights * vals))
    assert mean_div == pytest.approx(flux, rel=1e-10, abs=1e-12)


def test_lifting_div_minimality_for_divfree_normal_data(rng, rc3):
    # data from a divergence-free field admits liftings with tiny divergence
    p = 3
    Q = ps.build_space(rc3, "hcurl", p)
    V = ps.build_space(rc3, "hdiv", p)
    cmat = ca.diff_op("curl3d", Q, V)
    c = Q.random_elements(1, rng)[0]
    w = ((Q.basis @ c) @ cmat) @ V.basis
    res = spc.discrete_lifting_div(p, w)
    assert _energy(res, "div") <= 1e-9 * max(np.linalg.norm(w), 1.0)


def test_kkt_full_rank(rc3):
    for p in (2, 5, 8):
        Qb = ps.build_space(rc3, "hcurl_bubble", p)
        if Qb.dim == 0:
            continue
        res = spc.discrete_lifting_curl(
            p, np.zeros(3 * ps.build_space(rc3, "hcurl", p).n_modes)
        )
        assert res.kkt_min_singular > 1e-8


def test_inf_sup_positive(rc3):
    for p in (2, 4, 6):
        beta = spc.inf_sup_constant(p)
        assert beta > 0.1
