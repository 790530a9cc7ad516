"""Independent references that the tests check the package against: exact
monomial integrals, trace operators expanded in a space on the trace cell,
the sum of two analytic fields, and the interpolants' stage equations."""

from fractions import Fraction
from itertools import pairwise
from math import factorial

import numpy as np

from exseq import calculus as ca
from exseq import fields as fl
from exseq import polyspace as ps
from exseq.refsimplex import MAX_QUAD_DEGREE, quadrature


def monomial_integral(cell_name, alpha):
    """Exact integral of x^alpha over a default reference cell, as a Fraction."""
    if cell_name == "edge":
        (a,) = alpha
        return Fraction(0) if a % 2 else Fraction(2, a + 1)
    if cell_name == "tri":
        a, b = alpha
        return Fraction(factorial(a) * factorial(b), factorial(a + b + 2))
    if cell_name == "tet":
        a, b, c = alpha
        return Fraction(
            factorial(a) * factorial(b) * factorial(c), factorial(a + b + c + 3)
        )
    raise ValueError(f"unknown reference cell {cell_name}")


# trace operator -> (trace part of `polyspace.trace_matrix`, derivative of the
# traced rows on the trace cell)
_TRACES = {
    "restrict": (None, None),
    "Pi_tau": ("tangential", None),
    "gamma_tau": ("tangential", None),  # Pi_tau rotated: n x u
    "normal": ("normal", None),
    "surf_curl": ("tangential", "curl2d_vector"),
}


def _trace_rows(name, source, sub):
    """Slot rows on `sub.cell` of the traced basis, and their value dimension."""
    part, deriv = _TRACES[name]
    deg = source.degree
    rows = source.basis @ ps.trace_matrix(source.cell, deg, sub, part).T
    nm = sub.cell.n_modes(deg)
    if name == "gamma_tau":
        rows = np.concatenate([-rows[:, nm:], rows[:, :nm]], axis=1)
    if deriv:
        rows = ca.diff_rows(deriv, ps.PolySpace(sub.cell, rows.shape[1] // nm,
                                                deg, rows))
    return rows, rows.shape[1] // nm


def trace_op(name, source, sub, target):
    """Trace operator expanded in a target space living on the trace cell,
    as its coordinate matrix (target_coords = source_coords @ matrix); the
    trace reads its frame from the Face or Edge `sub`."""
    rows, vd = _trace_rows(name, source, sub)
    if not np.array_equal(target.cell.vertices, sub.cell.vertices):  # by content
        raise ValueError("target space does not live on the trace cell")
    coords, resid = ca._expand_in(target, rows, sub.cell, vd, source.degree)
    if resid > 1e-11:
        raise ValueError(f"trace image not contained in target: residual {resid:.2e}")
    return coords


def trace_space(space, sub, family):
    """Image space of a trace: restriction (h1), tangential (hcurl), normal
    (hdiv)."""
    name = {"h1": "restrict", "hcurl": "Pi_tau", "hdiv": "normal"}[family]
    rows, vd = _trace_rows(name, space, sub)
    return ps.PolySpace(sub.cell, vd, space.degree, ps.span_from_rows(rows))


def shifted(field, delta):
    """field + delta, with the jets of both."""

    def evaluate(pts):
        return field(pts) + delta(pts)

    def jet_factory(alpha):
        def evaluate_d(pts):
            return field.jet(pts, alpha) + delta.jet(pts, alpha)

        return evaluate_d

    return fl.AnalyticField(f"{field.name}+{delta.name}", field.dim,
                            field.value_dim, evaluate, jet_factory)


# The stage equations of the interpolants, in the paper's derivative form.
# The part of a field's trace that each slot of the complex fixes on a
# boundary piece (`polyspace.trace_matrix`'s part; the top slot's successor
# has none), and the bubble kind of each slot.
_PARTS = (None, "tangential", "normal", None)
_BUBBLES = ("h1_bubble", "hcurl_bubble", "hdiv_bubble")


def stage_residuals(plan, field, slots):
    """The defining functionals of every piece of `plan`, checked on the
    interpolant `slots` of `field` in derivative form and independently of
    the plan's stages: {piece name: largest residual}.

    - slot 0: the vertex values, then (D(f - Pi f), D b) over the H1
      bubbles b of each edge, face and the cell;
    - slots 1 and 2: the tangential or normal moments on each piece of the
      slot's dimension, then on each higher piece the energy rows
      (D(f - Pi f), D w) over the slot's bubbles w and the gauge rows
      (f - Pi f, D v) over the previous slot's bubbles v;
    - the top slot: the cell moments.

    D is the derivative leaving the slot on the piece's own cell, applied to
    the piece's trace, and the test spaces come from `build_space` on that
    cell. The field side pairs the field's jets on a rule that the plan does
    not use; the polynomial side pairs the modal coefficients of the
    interpolant's trace, which are L2 coordinates. A residual
    |l(f) - l(Pi f)| is scaled by the L2 norms of its own two factors,
    ||D f|| ||D b|| for a derivative row. Where the field's factor vanishes
    (the curl of a gradient, a field that is zero on an edge), the field's
    L2 norm on the cell stands in for it.
    """
    slot = ca.OPERATORS[plan.operator][1]
    pts, w = _oracle_rule(plan.target.cell, plan.quad_degree)
    f = np.reshape(field(pts), (len(w), -1))
    cell_norm = float(np.sqrt(w @ (f ** 2).sum(axis=1)))
    out = {}
    for m, pieces in plan.pieces.items():
        for piece in pieces:
            if m == 0:
                out[piece.name] = _vertex_residual(plan.target, field, slots,
                                                   cell_norm)
                continue
            rows = _stage_rows(plan, piece, field, slots, m == slot)
            out[piece.name] = max((_residual(*row, cell_norm) for row in rows),
                                  default=0.0)
    return out


def _vertex_residual(target, field, slots, cell_norm):
    """Largest mismatch of the vertex values over the largest vertex value.
    Only the part the target can take counts: P_0 on an interval takes the
    mean of its two vertex values."""
    v = target.cell.vertices
    values = np.reshape(field(v), -1)
    E = target.evaluate(target.basis, v).T  # (vertices, target dim)
    r = values - target.evaluate(slots, v)
    r = E @ np.linalg.lstsq(E, r, rcond=None)[0]
    return float(np.abs(r).max() / (np.abs(values).max() or cell_norm))


def _stage_rows(plan, piece, field, slots, moments):
    """One piece's sets of functionals, each as (rule, the field factor's
    values on it, the polynomial factor, the test space): the moments of the
    piece of the slot's dimension, or the energy and gauge rows above it."""
    target, sub, cell = plan.target, piece.boundary, piece.cell
    dim, slot = ca.OPERATORS[plan.operator]
    rule = _oracle_rule(cell, plan.quad_degree)
    amb = rule[0] if sub is None else sub.embed(rule[0])
    trace = slots
    if sub is not None:
        trace = ps.trace_matrix(target.cell, target.degree, sub,
                                _PARTS[slot]) @ slots
    u = ps.PolySpace(cell, ca.slot_value_dim(cell.dim, slot), target.degree,
                     trace[None])
    values = _trace_values(field(amb), sub, _PARTS[slot])
    if moments:
        return [(rule, values, u, ps.build_space(cell, "l2", plan.p))]
    # the energy rows: the derivative leaving the slot, on the piece's cell
    deriv = ca.COMPLEX[cell.dim][slot]
    Df = ca.DERIVATIVES[ca.COMPLEX[dim][slot]].field(field)(amb)
    Du = ps.PolySpace(cell, ca.DERIVATIVES[deriv].value_dim(cell.dim),
                      target.degree, ca.diff_rows(deriv, u))
    # the H1 bubbles have the target's degree: P_p on the interval
    degree = target.degree - 1 if slot == 0 else plan.p
    rows = [(rule, _trace_values(Df, sub, _PARTS[slot + 1]), Du,
             _images(deriv, cell, _BUBBLES[slot], degree))]
    if slot:  # the gauge rows: the derivative entering the slot
        gauge = _images(ca.COMPLEX[cell.dim][slot - 1], cell,
                        _BUBBLES[slot - 1], plan.p)
        rows.append((rule, values, u, gauge))
    return rows


def _images(deriv, cell, kind, p):
    """An orthonormal basis of the derivatives of a kind's elements (none
    below complex degree 0); the span drops the elements whose derivative
    vanishes."""
    if p < 0:
        return ps.PolySpace(cell, 1, 0, np.zeros((0, 1)))
    space = ps.build_space(cell, kind, p)
    rows = ps.span_from_rows(ca.diff_rows(deriv, space))
    return ps.PolySpace(cell, ca.DERIVATIVES[deriv].value_dim(cell.dim),
                        space.degree, rows)


def _trace_values(values, sub, part):
    """A trace part of ambient values, (n_pts, components) in the frame of
    a Face or Edge; the values themselves on the cell."""
    values = np.reshape(values, (len(values), -1))
    if sub is None or part is None:
        return values
    if part == "normal":
        return values @ sub.normal[:, None]
    return values @ (sub.frame if hasattr(sub, "frame")
                     else sub.tangent[:, None])


def _residual(rule, values, u, tests, cell_norm):
    """Largest |(f, t) - (u, t)| / (||f|| ||t||) over the rows t of `tests`,
    for the field factor f given by its `values` on the rule.

    The field side sums the rule after projecting the values onto the
    modes; the polynomial side is a dot product of modal coefficients.
    """
    if tests.dim == 0:
        return 0.0
    pts, w = rule
    V = tests.cell.tabulate(tests.degree, pts)
    field_side = tests.basis @ ((values * w[:, None]).T @ V.T).ravel()
    deg = max(u.degree, tests.degree)
    a = ps.pad_slots(u.basis[0], u.cell, u.value_dim, u.degree, deg)
    b = ps.pad_slots(tests.basis, tests.cell, tests.value_dim, tests.degree,
                     deg)
    norm = float(np.sqrt(w @ (values ** 2).sum(axis=1))) or cell_norm
    scale = norm * np.linalg.norm(tests.basis, axis=1)
    return float(np.max(np.abs(field_side - b @ a) / scale))


def _oracle_rule(cell, plan_degree):
    """A rule that no plan reads: the degree-40 rule (39 for a plan of
    degree 40) on a triangle or tetrahedron, and on an interval a composite
    Gauss rule graded into both ends, finer than the plan's graded rule, so
    endpoint singularities integrate to roundoff."""
    if cell.dim > 1:
        q = quadrature(cell, MAX_QUAD_DEGREE - (plan_degree == MAX_QUAD_DEGREE))
        return q.points, q.weights
    x, w = np.polynomial.legendre.leggauss(20)
    breaks = np.append(1.0 - 0.15 ** np.arange(19), 1.0)
    half = np.concatenate([(lo + hi + (hi - lo) * x) / 2
                           for lo, hi in pairwise(breaks)])
    wts = np.concatenate([(hi - lo) * w / 2 for lo, hi in pairwise(breaks)])
    s = np.concatenate([-half[::-1], half])
    ws = np.concatenate([wts[::-1], wts])
    a, b = cell.vertices[:, 0]
    return ((a + b) / 2 + (b - a) / 2 * s)[:, None], (b - a) / 2 * ws
