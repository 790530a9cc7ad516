from itertools import product

import numpy as np
import pytest
import sympy as sp

import oracles
from exseq import fields as fl

SUITES = [(name, dim) for dim in (1, 2, 3) for name in ("entire", "singular",
                                                         "poly")]
# worst relative jet defect against sympy's, over 20 seeds of the points
# below: 2.8e-16 at order 1 and 4.4e-16 at order 2
_JET_BOUND = 1e-14


def _interior_points(dim, rng, n=64):
    """Random points strictly inside the reference interval, triangle or
    tetrahedron (whose corner at the origin centres the singular fields)."""
    if dim == 1:
        return rng.uniform(-1.0, 1.0, (n, 1))
    bary = rng.dirichlet(np.ones(dim + 1), n)
    return bary[:, 1:]


def _jet_defects(field, ref, pts):
    """{order: worst relative defect of the field's jets against ref's}."""
    worst = {1: 0.0, 2: 0.0}
    for alpha in product(range(3), repeat=field.dim):
        order = sum(alpha)
        if order in worst:
            want = ref.jet(pts, alpha)
            got = field.jet(pts, alpha)
            assert got.shape == want.shape
            scale = np.abs(want).max()
            defect = np.abs(got - want).max()
            ratio = defect / scale if scale else (np.inf if defect else 0.0)
            worst[order] = max(worst[order], ratio)
    return worst


@pytest.mark.parametrize("name,dim", SUITES)
def test_suite_fields_match_sympy(name, dim, rng):
    # values are the sympy reference's bit for bit; jets through order 2
    # agree to roundoff; order 3 is refused
    pts = _interior_points(dim, rng)
    fields = fl.suite(name, dim)
    refs = oracles.reference_suite(name, dim)
    assert [f.name for f in fields] == [r.name for r in refs]
    for field, ref in zip(fields, refs):
        assert field.value_dim == ref.value_dim
        assert np.array_equal(field(pts), ref(pts)), field.name
        for order, defect in _jet_defects(field, ref, pts).items():
            assert defect <= _JET_BOUND, (field.name, order, defect)
        with pytest.raises(ValueError):
            field.jet(pts, (3,) + (0,) * (dim - 1))


def test_mixed_suite_is_entire_then_singular():
    for dim in (1, 2, 3):
        assert fl.suite("mixed", dim) == (fl.suite("entire", dim)
                                          + fl.suite("singular", dim))
    with pytest.raises(ValueError):
        fl.suite("nonesuch", 3)


def test_expression_jets_through_products_and_powers():
    # the hyper-dual arithmetic beyond the suites' operations: a product of
    # three varying factors and a negative power; a quotient is refused
    x = sp.Symbol("x")
    ref = oracles.from_sympy("f", sp.exp(x) * sp.sin(x) * (1 + x) ** -0.5
                             - sp.cos(x) ** sp.Rational(3, 2), 1)
    field = fl.expression_field(
        "f", 1, lambda x: np.exp(x)*np.sin(x)*(1 + x)**(-0.5)
        - np.cos(x)**(3/2))
    pts = np.linspace(-0.9, 0.9, 41)[:, None]
    np.testing.assert_allclose(field(pts), ref(pts), rtol=1e-15)
    for order, defect in _jet_defects(field, ref, pts).items():
        assert defect <= _JET_BOUND, (order, defect)
    with pytest.raises(TypeError):  # no quotient of varying terms
        fl.expression_field("g", 1, lambda x: 1 / (1 + x)).jet(pts, (1,))
