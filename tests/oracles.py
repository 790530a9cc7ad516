"""Independent references that the tests check the package against: exact
monomial integrals, trace operators expanded in a space on the trace cell,
and the sum of two analytic fields."""

from fractions import Fraction
from math import factorial

import numpy as np

from exseq import calculus as ca
from exseq import fields as fl
from exseq import polyspace as ps


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
