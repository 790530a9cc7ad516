"""Analytic input fields: black-box evaluators with optional derivative jets.

Named suite fields are numpy expressions of the coordinates whose jets
through order 2 come from evaluating the same expression on hyper-dual
numbers, so strong norms and best-approximation denominators pair against
exact derivatives with no symbolic step.
Polynomial fields wrap modal coefficients and differentiate exactly, reading
their values and jets from one modal table per point set. The derivative of a
field is read off the derivative's coefficient tensor in
`calculus.DERIVATIVES`, jet by jet.
"""

import numpy as np

from . import cache
from . import polyspace as ps


class AnalyticField:
    """A scalar or vector function on a cell, evaluable at quadrature points.

    `jet(pts, alpha)` returns the derivative d^alpha of every component;
    fields built from polynomial coefficients provide jets of any order,
    expression fields through order 2, sampled black boxes (a `jet_factory`
    of None) only order zero.
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


class HyperDual(np.lib.mixins.NDArrayOperatorsMixin):
    """Hyper-dual numbers a + b e1 + c e2 + d e1 e2, with e1^2 = e2^2 = 0 and
    arrays in every part (Fike and Alonso, AIAA 2011-886).

    A function evaluated at x + e1 u + e2 v carries its value, its
    derivatives along u and v, and its second derivative along u and v, all
    exact. Sums, differences, products, real constant powers, exp, sin and
    cos are defined. A part may be a scalar zero, and constants and plain
    arrays enter as numbers whose e parts are zero; a product with a zero
    part is skipped, and f'' only formed where it is read.
    """

    def __init__(self, *parts):
        self.parts = parts

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        u = [t.parts if isinstance(t, HyperDual) else (t, 0, 0, 0)
             for t in inputs]
        if ufunc in (np.add, np.subtract):
            return HyperDual(*(_plus(p, q, ufunc) for p, q in zip(*u)))
        if ufunc is np.multiply:
            (a, b, c, d), (e, f, g, h) = u
            return HyperDual(a * e, _plus(_times(a, f), _times(b, e)),
                             _plus(_times(a, g), _times(c, e)),
                             _plus(_plus(_times(a, h), _times(b, g)),
                                   _plus(_times(c, f), _times(d, e))))
        a, b, c, d = u[0]
        if ufunc is np.power and not isinstance(inputs[1], HyperDual):
            g = _power(a, inputs[1])
        elif ufunc in _CHAINS:
            g = _CHAINS[ufunc](a)
        else:
            return NotImplemented
        # f(u) = f(a) + f'(a) (b e1 + c e2 + d e1 e2) + f''(a) b c e1 e2
        bc = _times(b, c)
        return HyperDual(g[0], _times(g[1], b), _times(g[1], c),
                         _plus(_times(g[1], d),
                               _times(g[2](), bc) if _live(bc) else 0))


def _live(p):
    """Whether a hyper-dual part can be nonzero: every array, and every
    scalar but zero."""
    return isinstance(p, np.ndarray) or p != 0


def _times(p, q):
    return p * q if _live(p) and _live(q) else 0


def _plus(p, q, ufunc=np.add):
    """p + q, or p - q for np.subtract, skipped for a zero q."""
    return ufunc(p, q) if _live(q) else p


def _power(a, r):
    return a**r, r * a ** (r - 1), lambda: r * (r - 1) * a ** (r - 2)


def _exp(a):
    e = np.exp(a)
    return e, e, lambda: e


def _sin(a):
    s = np.sin(a)
    return s, np.cos(a), lambda: -s


def _cos(a):
    c = np.cos(a)
    return c, -np.sin(a), lambda: -c


# ufunc -> f(a), f'(a) and a maker of f''(a), at the value part a
_CHAINS = {np.exp: _exp, np.sin: _sin, np.cos: _cos}


def _samples(out, n):
    """An expression's output, one component or a list, as (n,) or (n, vd)."""
    comps = out if isinstance(out, list) else [out]
    cols = [np.broadcast_to(np.asarray(c, dtype=float), (n,)) for c in comps]
    return np.array(cols[0]) if len(cols) == 1 else np.stack(cols, axis=1)


def expression_field(name, dim, func):
    """Field of a numpy expression func(x, y(, z)) of the coordinate columns,
    which returns one component or a list of them; its jets through order 2
    evaluate the same expression on hyper-dual coordinates seeded along the
    one or two directions of alpha."""
    out = func(*np.full((dim, 1), 0.25))  # one inner point, for the count
    vd = len(out) if isinstance(out, list) else 1

    def evaluate(pts):
        return _samples(func(*pts.T), len(pts))

    def jet_factory(alpha):
        order = sum(alpha)
        if order > 2:
            raise ValueError(f"field {name!r} has jets through order 2, "
                             f"not {order}")
        i, j = np.repeat(np.arange(dim), alpha)[[0, -1]].tolist()
        part = 1 if order == 1 else 3
        # e1 along i, e2 along j for order 2; the other coordinates stay
        # plain arrays
        seeds = {i: [1, 0], j: [0, 1]} if i != j else {i: [1, order - 1]}

        def evaluate_d(pts):
            out = func(*(HyperDual(col, *seeds[k], 0) if k in seeds else col
                         for k, col in enumerate(pts.T)))
            comps = out if isinstance(out, list) else [out]
            return _samples([c.parts[part] if isinstance(c, HyperDual) else 0.0
                             for c in comps], len(pts))

        return evaluate_d

    return AnalyticField(name, dim, vd, evaluate, jet_factory)


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
# named suites, each field one numpy expression of the coordinates. The
# operand order sets the samples' last bits: these are the order in which
# sympy's lambdify printed the suites' expressions, so keep it

_SUITES = {
    (3, "entire"): {
        "exp_sum": lambda x, y, z: np.exp(x + (1/2)*y + (1/3)*z),
        "trig_mix": lambda x, y, z: np.exp((1/2)*z)*np.sin(x)*np.cos(y),
        "vec_entire": lambda x, y, z: [np.exp(x + (1/2)*y), np.sin(x + z),
                                       z*np.cos(y)],
        "vec_swirl": lambda x, y, z: [np.sin(y + z), z*np.exp((1/2)*x),
                                      x*np.cos(z)],
    },
    (3, "singular"): {
        "r_alpha": lambda x, y, z: (x**2 + y**2 + z**2)**(5/4),  # H^{4-eps}
        "vec_r_alpha": lambda x, y, z: [(x**2 + y**2 + z**2)**(5/4),
                                        x*(x**2 + y**2 + z**2)**(3/4),
                                        0],  # H^{3-eps}
    },
    (3, "poly"): {
        "cubic": lambda x, y, z: x**2*y + x*y*z + (1/3)*z**3,
        "vec_poly": lambda x, y, z: [y**2, x*z, x + z],
    },
    (2, "entire"): {
        "exp_sum": lambda x, y: np.exp(x + (1/2)*y),
        "trig_mix": lambda x, y: np.sin(x)*np.cos(y),
        "vec_entire": lambda x, y: [np.exp((1/2)*x + y), np.sin(x + y)],
    },
    (2, "singular"): {
        "r_alpha": lambda x, y: (x**2 + y**2)**(5/4),  # H^{3.5-eps}
        "vec_r_alpha": lambda x, y: [(x**2 + y**2)**(5/4), x*y],  # H^{3.5-eps}
    },
    (2, "poly"): {
        "cubic": lambda x, y: x**2*y + (1/3)*y**3,
        "vec_poly": lambda x, y: [y**2, x*y],
    },
    (1, "entire"): {
        "exp": lambda x: np.exp(x),
        "cos": lambda x: np.cos(2*x),
    },
    (1, "singular"): {
        "edge_pow_3_2": lambda x: (x + 1)**(3/2),  # H^{2-eps}
        "edge_pow_5_2": lambda x: (x + 1)**(5/2),  # H^{3-eps}
    },
    (1, "poly"): {
        "cubic": lambda x: x**3 - x,
    },
}


@cache.memo
def suite(name, dim):
    """Named field suites for studies.

    "entire": exponential/trigonometric fields (superalgebraic decay)
    "singular": vertex-centered r^alpha families with finite Sobolev index
    "poly": fixed low-degree polynomial fields for exactness floors
    "mixed": "entire" followed by "singular"
    """
    if name == "mixed":
        return suite("entire", dim) + suite("singular", dim)
    if (dim, name) not in _SUITES:
        raise ValueError(f"unknown suite {name!r} in dimension {dim}")
    return tuple(expression_field(n, dim, func)
                 for n, func in _SUITES[dim, name].items())
