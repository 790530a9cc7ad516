"""Analytic input fields: black-box evaluators with optional derivative jets.

Named suite fields are defined symbolically and compiled lazily, so strong
norms and best-approximation denominators pair against exact derivatives.
Polynomial fields wrap modal coefficients and differentiate exactly, reading
their values and jets from one modal table per point set. The derivative of a
field is read off the derivative's coefficient tensor in
`calculus.DERIVATIVES`, jet by jet.
"""

import numpy as np
import sympy as sp

from . import cache
from . import polyspace as ps


class AnalyticField:
    """A scalar or vector function on a cell, evaluable at quadrature points.

    `jets[alpha]` returns the derivative d^alpha of every component; fields
    built from symbolic expressions or polynomial coefficients provide jets
    of any order, sampled black boxes (a `jet_factory` of None) only order
    zero.
    """

    def __init__(self, name, dim, value_dim, func, jet_factory):
        self.name = name
        self.dim = dim
        self.value_dim = value_dim
        self._func = func
        self._jet_factory = jet_factory
        self._jet_cache = {}

    def __call__(self, pts):
        vals = self._func(np.asarray(pts, dtype=float))
        return np.asarray(vals, dtype=float)

    def jet(self, pts, alpha):
        alpha = tuple(alpha)
        if sum(alpha) == 0:
            return self(pts)
        if self._jet_factory is None:
            raise ValueError(f"field {self.name!r} provides no derivatives")
        if alpha not in self._jet_cache:
            self._jet_cache[alpha] = self._jet_factory(alpha)
        return np.asarray(self._jet_cache[alpha](np.asarray(pts, dtype=float)), dtype=float)

    def __repr__(self):
        return f"AnalyticField({self.name}, dim={self.dim}, vdim={self.value_dim})"


_XYZ = sp.symbols("x y z")


def from_sympy(name, exprs, dim):
    """Field from sympy expressions in x, y(, z); exprs is a list per component."""
    if not isinstance(exprs, (list, tuple)):
        exprs = [exprs]
    exprs = [sp.sympify(e) for e in exprs]
    syms = _XYZ[:dim]
    vd = len(exprs)

    def compile_exprs(es):
        fns = [sp.lambdify(syms, e, modules="numpy") for e in es]

        def evaluate(pts):
            cols = [np.broadcast_to(np.asarray(f(*pts.T), dtype=float), (pts.shape[0],))
                    for f in fns]
            if vd == 1:
                return np.array(cols[0])
            return np.stack(cols, axis=1)

        return evaluate

    def jet_factory(alpha):
        des = [sp.diff(e, *[s for s, a in zip(syms, alpha) for _ in range(a)])
               for e in exprs]
        return compile_exprs(des)

    return AnalyticField(name, dim, vd, compile_exprs(exprs), jet_factory)


def polynomial_fields():
    """A maker of fields from PolySpace elements, make(name, space, slots),
    whose fields share one store of modal tables.

    The store is keyed by content (cell vertices, degree and point bytes), so
    each point set is tabulated once for the values and jets of all its
    fields, and it lives as long as one of them does.
    """
    tables = {}

    def table(cell, degree, pts):
        key = (cell.vertices.tobytes(), degree, pts.shape, pts.tobytes())
        if key not in tables:
            tables[key] = cell.tabulate(degree, pts)
        return tables[key]

    def make(name, space, slots):
        slots = np.asarray(slots, dtype=float)
        cell = space.cell

        def evaluate(pts):
            return space.values(slots, table(cell, space.degree, pts))

        def jet_factory(alpha):
            mat = ps.deriv_alpha(cell, space.degree, alpha)
            dslots = (space.components(slots) @ mat.T).reshape(slots.shape)

            def evaluate_d(pts):
                return space.values(dslots, table(cell, space.degree, pts))

            return evaluate_d

        return AnalyticField(name, cell.dim, space.value_dim, evaluate,
                             jet_factory)

    return make


def derivative_field(name, C, f):
    """The field (D f)_k = sum_{i,c} C[k, i, c] d_i f_c of a derivative's
    coefficient tensor C, with shifted jets. The image is a scalar field when
    it is one component of a vector field, a vector field otherwise (the
    gradient on an interval too)."""
    scalar = len(C) == 1 < C.shape[2]

    def evaluate_at(alpha):
        def evaluate(pts):
            d = [np.reshape(f.jet(pts, [a + (j == i) for j, a in enumerate(alpha)]),
                            (len(pts), -1)) for i in range(f.dim)]
            parts = [ps.signed_sum(Ck, lambda i, c: d[i][:, c]) for Ck in C]
            return parts[0] if scalar else np.stack(parts, axis=1)

        return evaluate

    return AnalyticField(f"{name}({f.name})", f.dim, len(C),
                         evaluate_at((0,) * f.dim), evaluate_at)


# ---------------------------------------------------------------------------
# named suites

x, y, z = _XYZ


@cache.memo
def suite(name, dim):
    """Named field suites for studies.

    "entire": exponential/trigonometric fields (superalgebraic decay)
    "singular": vertex-centered r^alpha families with finite Sobolev index
    "poly": fixed low-degree polynomial fields for exactness floors
    """
    fields = []
    if dim == 3:
        r2 = x**2 + y**2 + z**2
        if name == "entire":
            fields = [
                from_sympy("exp_sum", sp.exp(x + y / 2 + z / 3), 3),
                from_sympy("trig_mix", sp.sin(x) * sp.cos(y) * sp.exp(z / 2), 3),
                from_sympy(
                    "vec_entire",
                    [sp.exp(x + y / 2), sp.sin(x + z), sp.cos(y) * z],
                    3,
                ),
                from_sympy(
                    "vec_swirl",
                    [sp.sin(y + z), sp.exp(x / 2) * z, x * sp.cos(z)],
                    3,
                ),
            ]
        elif name == "singular":
            alpha = sp.Rational(5, 2)
            fields = [
                from_sympy("r_alpha", r2 ** (alpha / 2), 3),  # H^{4-eps}
                from_sympy(
                    "vec_r_alpha",
                    [r2 ** (alpha / 2), x * r2 ** ((alpha - 1) / 2), 0],
                    3,
                ),  # H^{3-eps}
            ]
        elif name == "poly":
            fields = [
                from_sympy("cubic", x**2 * y + z**3 / 3 + x * y * z, 3),
                from_sympy("vec_poly", [y**2, x * z, x + z], 3),
            ]
    elif dim == 2:
        r2 = x**2 + y**2
        if name == "entire":
            fields = [
                from_sympy("exp_sum", sp.exp(x + y / 2), 2),
                from_sympy("trig_mix", sp.sin(x) * sp.cos(y), 2),
                from_sympy("vec_entire", [sp.exp(x / 2 + y), sp.sin(x + y)], 2),
            ]
        elif name == "singular":
            alpha = sp.Rational(5, 2)
            fields = [
                from_sympy("r_alpha", r2 ** (alpha / 2), 2),  # H^{3.5-eps}
                from_sympy(
                    "vec_r_alpha", [r2 ** (alpha / 2), x * y], 2
                ),  # H^{3.5-eps}
            ]
        elif name == "poly":
            fields = [
                from_sympy("cubic", x**2 * y + y**3 / 3, 2),
                from_sympy("vec_poly", [y**2, x * y], 2),
            ]
    elif dim == 1:
        if name == "entire":
            fields = [
                from_sympy("exp", sp.exp(x), 1),
                from_sympy("cos", sp.cos(2 * x), 1),
            ]
        elif name == "singular":
            fields = [
                # H^{2-eps}
                from_sympy("edge_pow_3_2", (1 + x) ** sp.Rational(3, 2), 1),
                # H^{3-eps}
                from_sympy("edge_pow_5_2", (1 + x) ** sp.Rational(5, 2), 1),
            ]
        elif name == "poly":
            fields = [from_sympy("cubic", x**3 - x, 1)]
    if not fields and name == "mixed":
        return suite("entire", dim) + suite("singular", dim)
    if not fields:
        raise ValueError(f"unknown suite {name!r} in dimension {dim}")
    return tuple(fields)
