"""Discrete Friedrichs constants and minimum-energy trace liftings with
orthogonality constraints.

The liftings apply the saddle-point correction to a minimum-coefficient
discrete lifting of the trace data; they reproduce traces and satisfy the
orthogonality constraints exactly, while uniformity of their norms in p is a
measured quantity, not an asserted one.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import polyspace as ps
from .calculus import COMPLEX, OPERATORS, bubble_images, diff_rows, diff_slots
from .refsimplex import make_reference_cell

# case -> (operator whose slot holds the members, the members' space kind,
# the kind whose images under the derivative entering the slot they are
# L2-orthogonal to)
FRIEDRICHS_CASES = {
    "curl2d_full": ("curl2d", "hcurl", "h1"),
    "curl2d_bubble": ("curl2d", "hcurl_bubble", "h1_bubble"),
    "curl3d_full": ("curl3d", "hcurl", "h1"),
    "curl3d_bubble": ("curl3d", "hcurl_bubble", "h1_bubble"),
    "div3d_full": ("div3d", "hdiv", "hcurl"),
    "div3d_bubble": ("div3d", "hdiv_bubble", "hcurl_bubble"),
}


def constrained_subspace(case, p):
    """The orthogonality-constrained space of one Friedrichs inequality, a
    subspace of the case's space, and its constraint rows."""
    if case not in FRIEDRICHS_CASES:
        raise ValueError(f"unknown case {case!r}")
    op, kind, constraint_kind = FRIEDRICHS_CASES[case]
    dim, slot = OPERATORS[op]
    cell = make_reference_cell(dim).cell
    parent = ps.build_space(cell, kind, p)
    vec = ps.build_space(cell, constraint_kind, p)
    rows = diff_rows(COMPLEX[dim][slot - 1], vec)
    return ps.subspace_from_constraints(parent, rows), rows


def friedrichs_constant(case, p):
    """Best constant in ||u|| <= C ||D u|| over the constrained subspace.

    Returns (C, lam_min, dim); an empty subspace yields C = 0 flagged by
    dim = 0.
    """
    sub, _ = constrained_subspace(case, p)
    if sub.dim == 0:
        return 0.0, np.inf, 0
    dim, slot = OPERATORS[FRIEDRICHS_CASES[case][0]]
    rows = diff_rows(COMPLEX[dim][slot], sub)
    A = rows @ rows.T
    lam = scipy.linalg.eigvalsh(A)
    lam_min = float(lam[0])
    if lam_min <= 0:
        return np.inf, lam_min, sub.dim
    return 1.0 / np.sqrt(lam_min), lam_min, sub.dim


def friedrichs_rows(p_min, p_max):
    """The Friedrichs sweep, case by case and then degree by degree: one row
    per (case, p) whose constrained subspace is not empty."""
    for case in FRIEDRICHS_CASES:
        for p in range(p_min, p_max + 1):
            C, lam, dim = friedrichs_constant(case, p)
            if dim:
                yield {"case": case, "p": p, "constant": float(C),
                       "min_singular_value": float(np.sqrt(max(lam, 0.0))),
                       "dim": dim}


# ---------------------------------------------------------------------------
# discrete liftings


@dataclass
class LiftingResult:
    space: ps.PolySpace
    slots: np.ndarray
    multiplier_norm: float
    trace_residual: float
    orthogonality_residual: float
    kkt_min_singular: float


def discrete_lifting_curl(p, w_slots):
    """Minimum-curl-energy lifting of the tangential trace of w.

    w is an edge-element field (slots at container degree p+1); only its
    tangential trace enters. The lifting reproduces the trace, is
    L2-orthogonal to gradients of interior scalar bubbles, and its saddle
    multiplier vanishes.
    """
    tet = make_reference_cell(3).cell
    Qb = ps.build_space(tet, "hcurl_bubble", p)
    Wb = ps.build_space(tet, "h1_bubble", p)
    grads = diff_rows("grad", Wb)
    traces = ps.boundary_traces(tet, p + 1, "tangential")
    return _saddle_lifting(ps.build_space(tet, "hcurl", p), Qb, grads, "curl3d",
                           traces, w_slots)


def discrete_lifting_div(p, w_slots):
    """Minimum-div-energy lifting of the facewise normal trace of w."""
    tet = make_reference_cell(3).cell
    Vb = ps.build_space(tet, "hdiv_bubble", p)
    traces = ps.boundary_traces(tet, p + 1, "normal", keep=p)
    return _saddle_lifting(ps.build_space(tet, "hdiv", p), Vb,
                           bubble_images(tet, 1, p), "div", traces, w_slots)


def _saddle_lifting(space, bubbles, constraints, deriv, traces, w_slots):
    """Lifting of the trace data `traces @ w` into `space`: a minimum-coefficient
    lift, corrected over `bubbles` to minimize ||deriv u|| subject to
    `constraints @ u = 0` by one saddle-point solve."""
    stack = traces @ space.basis.T
    data = traces @ np.asarray(w_slots, dtype=float)
    w_E = space.basis.T @ (np.linalg.pinv(stack, rcond=ps.SVD_CUTOFF) @ data)
    if bubbles.dim == 0:
        return LiftingResult(
            space, w_E, 0.0,
            float(np.abs(stack @ (space.basis @ w_E) - data).max()),
            0.0, np.inf,
        )
    d_b = diff_rows(deriv, bubbles)
    A = d_b @ d_b.T
    B = constraints @ bubbles.basis.T
    n, m = bubbles.dim, B.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = A
    K[:n, n:] = B.T
    K[n:, :n] = B
    rhs = np.concatenate([d_b @ diff_slots(deriv, space, w_E), constraints @ w_E])
    sol = np.linalg.solve(K, rhs)
    w0 = sol[:n] @ bubbles.basis
    mult = sol[n:]
    out = w_E - w0
    trace_res = float(np.abs(stack @ (space.basis @ out) - data).max())
    orth = float(np.abs(constraints @ out).max()) if m else 0.0
    smin = float(np.linalg.svd(K, compute_uv=False)[-1])
    return LiftingResult(space, out, float(np.linalg.norm(mult)), trace_res,
                         orth, smin)


def inf_sup_constant(p):
    """Measured inf-sup constant of the gradient coupling in the curl lifting."""
    tet = make_reference_cell(3).cell
    Qb = ps.build_space(tet, "hcurl_bubble", p)
    Wb = ps.build_space(tet, "h1_bubble", p)
    if Qb.dim == 0 or Wb.dim == 0:
        return np.inf
    grads = diff_rows("grad", Wb)
    B = grads @ Qb.basis.T
    curl_b = diff_rows("curl3d", Qb)
    Mq = np.eye(Qb.dim) + curl_b @ curl_b.T
    Mphi = Wb.basis @ Wb.basis.T + grads @ grads.T
    S = B @ np.linalg.solve(Mq, B.T)
    lam = scipy.linalg.eigvalsh(S, Mphi)
    return float(np.sqrt(max(lam[0], 0.0)))
