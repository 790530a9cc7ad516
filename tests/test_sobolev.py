import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from exseq import cache
from exseq import fields as fl
from exseq import polyspace as ps
from exseq import sobolev as sb
from exseq.refsimplex import make_reference_cell, quadrature


def test_gram_spd_and_endpoints(rc3, rng):
    g = sb.gram(rc3, 6)
    lam_a1 = np.linalg.eigvalsh(g.A1)
    assert lam_a1.min() > 1e-13 * lam_a1.max()
    lam_a2 = np.linalg.eigvalsh(g.A2)
    assert lam_a2.min() > 1e-13 * lam_a2.max()
    c = rng.standard_normal(g.n)
    assert sb.fractional_norm(g, c, 0.0) == pytest.approx(np.linalg.norm(c),
                                                          rel=1e-12)
    assert sb.fractional_norm(g, c, 1.0) == pytest.approx(
        float(np.sqrt(c @ g.A1 @ c)), rel=1e-10
    )
    assert sb.fractional_norm(g, c, 2.0) == pytest.approx(
        float(np.sqrt(c @ g.A2 @ c)), rel=1e-10
    )


def test_a2_is_built_without_the_pencil_spectrum(rc3, monkeypatch):
    # the H2 form reads A2 alone; the (A2, A1) spectrum waits for an order
    # above 1. A2 is A1 plus the multinomial-weighted second-derivative Gram
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    g = sb.SobolevGram(rc3, 6, None)
    A2 = g.A1.copy()
    for i in range(3):
        for j in range(i, 3):
            Mij = g._D[i] @ g._D[j]
            A2 += (1.0 if i == j else 2.0) * (Mij.T @ Mij)
    assert g.A2.tobytes() == A2.tobytes()
    assert g.A2 is g.A2 and not g.A2.flags.writeable
    assert sb.gram(rc3, 6).A2.tobytes() == A2.tobytes()
    assert g._second is None


def test_fractional_gram_matrix_endpoints(rc2):
    # the interpolated quadratic form at the endpoints matches M and A1 in
    # Frobenius norm through random probing
    g = sb.gram(rc2, 5)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((g.n, 8))
    h0 = np.stack([[g.fractional_quadform(X[:, i] + X[:, j], 0.0)
                    for i in range(8)] for j in range(8)])
    m0 = np.stack([[float((X[:, i] + X[:, j]) @ (X[:, i] + X[:, j]))
                    for i in range(8)] for j in range(8)])
    assert np.abs(h0 - m0).max() <= 1e-10 * np.abs(m0).max()


@settings(max_examples=15, deadline=None)
@given(s1=hst.floats(0, 2), s2=hst.floats(0, 2), seed=hst.integers(0, 10))
def test_fractional_norm_monotone_in_s(s1, s2, seed):
    from exseq.refsimplex import make_reference_cell

    g = sb.gram(make_reference_cell(2).cell, 4)
    c = np.random.default_rng(seed).standard_normal(g.n)
    lo, hi = min(s1, s2), max(s1, s2)
    assert sb.fractional_norm(g, c, lo) <= sb.fractional_norm(g, c, hi) * (
        1 + 1e-12
    )


def test_dual_norm_of_orthogonal_field_vanishes(rc3):
    g = sb.gram(rc3, 4)
    # pairings of a field orthogonal to the test space are zero
    b = np.zeros(g.n)
    assert sb.dual_norm(g, b, 0.5) == 0.0


def test_dual_norm_s0_is_l2_of_projection(rc3):
    g = sb.gram(rc3, 8)
    f = fl.suite("entire", 3)[0]
    q = quadrature(rc3, 26)
    b = sb.mode_pairings(rc3.tabulate(8, q.points), q.weights,
                        f(q.points))[0]
    assert sb.dual_norm(g, b, 0.0) == pytest.approx(np.linalg.norm(b), rel=1e-12)


def test_dual_norm_weakens_with_s(rc3):
    g = sb.gram(rc3, 8)
    f = fl.suite("entire", 3)[1]
    q = quadrature(rc3, 26)
    b = sb.mode_pairings(rc3.tabulate(8, q.points), q.weights,
                        f(q.points))[0]
    vals = [sb.dual_norm(g, b, s) for s in (0.0, 0.25, 0.5, 1.0)]
    assert all(vals[i + 1] <= vals[i] + 1e-13 for i in range(len(vals) - 1))


def test_dual_norm_stable_under_richer_test_space(rc3):
    f = fl.suite("entire", 3)[0]
    q = quadrature(rc3, 36)

    def dual_at(P):
        g = sb.gram(rc3, P)
        b = sb.mode_pairings(rc3.tabulate(P, q.points), q.weights,
                            f(q.points))[0]
        return sb.dual_norm(g, b, 0.5)

    d8, d10 = dual_at(8), dual_at(10)
    assert d10 >= d8 - 1e-13  # monotone nondecreasing in P
    assert abs(d10 - d8) <= 0.05 * d8


def _best_approx(space, fields, norm, **kwargs):
    """`sb.best_approx` on the rule of degree min(2 * degree + 14, 40) and
    the space's modal table there, as the rate studies call it."""
    q = quadrature(space.cell, min(2 * space.degree + 14, 40))
    table = space.cell.tabulate(space.degree, q.points)
    return sb.best_approx(space, fields, norm, q, table, **kwargs)


def test_best_approx_reproduces_members(rc3, rng):
    W = ps.build_space(rc3, "h1", 3)
    el = W.random_elements(1, rng)[0]
    f = fl.polynomial_fields()("member", W, el)
    for norm in ("L2", "H2"):
        [(slots, err)] = _best_approx(W, [f], norm)
        assert np.abs(slots - el).max() < 1e-10
        assert err < 1e-10
    for norm in ("H1", "Hcurl"):  # no denominator reads them
        with pytest.raises(ValueError):
            _best_approx(W, [f], norm)


def test_best_approx_l2_monotone_for_exp(rc3):
    f = fl.suite("entire", 3)[0]
    errs = []
    for p in range(1, 7):
        W = ps.build_space(rc3, "h1", p)
        [(_, e)] = _best_approx(W, [f], "L2")
        errs.append(e)
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_h1curl_solver_cache_keyed_by_content(rc3):
    # two unnamed spaces of one dimension must not share a cached factor
    rng = np.random.default_rng(3)
    A, B = (
        ps.PolySpace(rc3, 3, 3, ps.span_from_rows(rng.standard_normal((45, 60))))
        for _ in range(2)
    )
    f = [g for g in fl.suite("entire", 3) if g.value_dim == 3][0]
    cache.clear()
    _best_approx(A, [f], "H1curl")
    [(_, after_a)] = _best_approx(B, [f], "H1curl")
    cache.clear()
    [(_, fresh)] = _best_approx(B, [f], "H1curl")
    assert after_a == pytest.approx(fresh, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_order_above_one_matches_explicit_inverse(dim, rng):
    # V from eigh(A2, A1) is A1-orthonormal, so V^T A1 stands in for inv(V)
    g = sb.gram(make_reference_cell(dim).cell, 8)
    mu, V = g._second_data()
    Vi = np.linalg.inv(V)
    s = 1.5
    c = rng.standard_normal(g.n)
    y = Vi @ c
    assert g.fractional_quadform(c, s) == pytest.approx(
        float(np.sum(mu ** (s - 1.0) * y**2)), rel=1e-12
    )
    X = rng.standard_normal((4, g.n))
    ref = ((X @ Vi.T) * mu ** (s - 1.0)) @ Vi
    assert np.abs(sb._apply_hs(g, X, s) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_weaker_norm_error_smaller(rc3):
    f = fl.suite("entire", 3)[0]
    W = ps.build_space(rc3, "h1", 3)
    [(_, e_l2)] = _best_approx(W, [f], "L2")
    [(_, e_h1)] = _best_approx(W, [f], "H1full")
    [(_, e_h2)] = _best_approx(W, [f], "H2")
    assert e_l2 <= e_h1 <= e_h2 * 1.000001


def test_fractional_best_approx_between_integer_orders(rc3):
    vf = [g for g in fl.suite("entire", 3) if g.value_dim == 3][0]
    V = ps.build_space(rc3, "hdiv", 2)
    [(_, e_half)] = _best_approx(V, [vf], "Hhalf_div", s=0.5,
                                 rich_degree=V.degree + 6)
    assert np.isfinite(e_half) and e_half > 0


def test_rich_table_is_freed_before_the_spectrum(rc3, monkeypatch):
    # the fractional surrogate pairs every field with the rich modes on the
    # study rule and frees their table before it builds the rich Gram: when
    # eigh runs, the table has been made and is dead
    import weakref

    from exseq.refsimplex import Cell

    V = ps.build_space(rc3, "hdiv", 2)
    rich = V.degree + 6
    rule = quadrature(rc3, min(2 * V.degree + 14, 40)).points
    tables, seen = [], []
    tabulate, eigh = Cell.tabulate, scipy.linalg.eigh

    def spy_tabulate(self, degree, pts):
        out = tabulate(self, degree, pts)
        if degree == rich and np.array_equal(pts, rule):
            tables.append(weakref.ref(out))
        return out

    def spy_eigh(*args, **kwargs):
        seen.append((len(tables), sum(t() is not None for t in tables)))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(Cell, "tabulate", spy_tabulate)
    monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
    fields = [g for g in fl.suite("entire", 3) if g.value_dim == 3]
    _best_approx(V, fields, "Hhalf_div", s=0.5, rich_degree=rich)
    assert seen and all(made == 1 and alive == 0 for made, alive in seen)


def test_fractional_norm_rejects_out_of_range(rc3):
    g = sb.gram(rc3, 3)
    with pytest.raises(ValueError):
        g.fractional_quadform(np.zeros(g.n), 2.5)
    with pytest.raises(ValueError):
        g.fractional_quadform(np.zeros(g.n), -0.1)


def test_field_without_jets_raises():
    f = fl.AnalyticField("raw", 3, 1, lambda pts: pts[:, 0], None)
    with pytest.raises(ValueError, match="derivatives"):
        f.jet(np.zeros((2, 3)), (1, 0, 0))


@pytest.mark.parametrize("dim", [2, 3])
def test_integer_orders_need_no_spectrum(dim, rng, monkeypatch):
    # orders 0 and 1 are the Euclidean and A1 forms: no eigendecomposition
    import scipy.linalg

    calls = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    g = sb.SobolevGram(make_reference_cell(dim).cell, 6, None)
    c = rng.standard_normal(g.n)
    got = {(form, s): getattr(g, form)(c, s)
           for form in ("fractional_quadform", "dual_quadform") for s in (0.0, 1.0)}
    assert not calls
    monkeypatch.undo()
    lam, U = np.linalg.eigh(g.A1)
    y = U.T @ c
    for s in (0.0, 1.0):
        assert got["fractional_quadform", s] == pytest.approx(
            float(np.sum(lam**s * y**2)), rel=1e-12)
        assert got["dual_quadform", s] == pytest.approx(
            float(np.sum(lam ** (-s) * y**2)), rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_stiffness_leading_blocks_match_per_degree(dim):
    # the modes nest, so the degree-4 and degree-8 stiffness are leading
    # blocks of the degree-12 table; measured margin: at most 2.5e-14 of the
    # largest entry, against the 1e-12 asserted
    cell = make_reference_cell(dim).cell
    S = sb._stiffness(cell, 12)
    assert not S.flags.writeable
    for degree in (4, 8):
        n = cell.n_modes(degree)
        D = [ps.deriv_matrix(cell, degree, i) for i in range(dim)]
        ref = sum(Di.T @ Di for Di in D)
        assert np.abs(S[:n, :n] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [2, 3])
def test_leading_block_gram_norms_match_per_degree(dim, rng):
    # measured margin: at most 4.8e-15 relative, against the 1e-10 asserted
    cell = make_reference_cell(dim).cell
    P, top = 6, 12
    g, gt = sb.gram(cell, P), sb.gram(cell, P, top)
    assert gt is not g and gt.n == g.n
    q = quadrature(cell, 2 * top)
    f = [f for f in fl.suite("entire", dim) if f.value_dim == 1][0]
    b = sb.mode_pairings(cell.tabulate(P, q.points), q.weights, f(q.points))
    c = rng.standard_normal(g.n)
    for s in (0.25, 0.5, 1.0):
        assert sb.dual_norm(gt, b, s) == pytest.approx(sb.dual_norm(g, b, s),
                                                       rel=1e-10)
        assert sb.fractional_norm(gt, c, s) == pytest.approx(
            sb.fractional_norm(g, c, s), rel=1e-10)


def test_gram_builds_its_tables_on_first_read(rc3, monkeypatch):
    # order 0 reads only the mode count; A1 and the stiffness wait for a
    # form that reads them
    calls = []
    stiffness = sb._stiffness
    monkeypatch.setattr(sb, "_stiffness",
                        lambda *a: calls.append(a) or stiffness(*a))
    g = sb.SobolevGram(rc3, 5, 7)
    c = np.ones(g.n)
    assert sb.dual_norm(g, c, 0.0) == pytest.approx(np.sqrt(g.n), rel=1e-14)
    assert g._A1 is None and not calls
    n = g.n
    assert g.A1 is g.A1 and not g.A1.flags.writeable
    assert np.array_equal(g.A1, np.eye(n) + stiffness(rc3, 7)[:n, :n])
    assert len(calls) == 1
    with pytest.raises(ValueError, match="below"):
        sb.SobolevGram(rc3, 5, 4)
