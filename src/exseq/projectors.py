"""Projection-based interpolation operators as one list of staged solves.

Each operator fixes its interpolant hierarchically. An operator of slot k
on a d-cell builds one stage per piece of dimension m = k..d: the vertices
(one piece), the edges of `cell_edges`, the faces of `tet_faces`, then the
cell itself. A piece of the slot's own dimension, m = k, takes the slot's
data: `_vertex_stage` the values at the vertices and `_l2_stage` an L2
projection. Every piece above it takes the stage of the same slot's
operator on the piece's own cell, so a face's stage is the 2D operator's
and an edge's the interval's: energy conditions, plus gauge conditions for
curl and div, built in every slot by one `_energy_stage` from the
derivative's coefficient tensor. It reads the piece's parents and boundary
fluxes from one `_boundary`, in the order of the piece's trace.
A plan is the ordered list of those stages, and every stage is one `Stage`:

- `lift` L = pinv(T) extends the data fixed by earlier stages with minimal
  coefficients, for the trace T that maps the stage's coordinates to that
  data;
- `parents` gathers the data from earlier stages' outputs, applying the
  parameter flips and signs of edges shared with another orientation;
- `bubbles` B are the trace-free directions (T B^T = 0);
- `conditions` K are the stage's defining functionals, and `rhs` gives
  their values as moments of the samples s, in factored form: each entry
  (sample region, rows, modal table V, weights w, channel map G) adds
  rows (V (w G s)), so K x = sum rows (V (w G s)) (rows fewer than K's feed
  K's leading rows). The rows are the test functions in modal coordinates,
  V tabulates the modes at the region's points, and G maps the samples'
  channels at each point to the rows' vector components: a face's chart
  frame, a boundary flux, or a tangent or normal;
- `out` maps the stage's coordinates to the slot coefficients on its cell
  that later stages read.

Applying a plan runs one loop: x0 = L d, then
x = x0 + B^T (K B^T)^{-1} (sum rows (V (w G s)) - K x0), with K B^T factored
once when the plan is built. The result does not depend on the lift,
because the bubble correction absorbs any trace-free part of it. A plan
keeps only what that loop reads; `tests/oracles.py` checks the stage
equations of a result in their derivative form, independently of the plan.

Derivative conditions are rewritten by integration by parts, so all stage
data is read through point values of the input field at the plan's
quadrature nodes. For a derivative with coefficient tensor C
(`calculus.DERIVATIVES`) and outward normal n,

    (D u, e) = (u, D* e) + (u, F e)_boundary,
    (D* e)_c = -sum_{k,i} C[k, i, c] d_i e_k,  F[c, k] = sum_i C[k, i, c] n_i.

The flux F e is e . n for grad, e t for the 2D curl, with t the
counterclockwise tangent, -(n x e) for the 3D curl and e n for div.

The operators accept any evaluable field with finite traces.

The edge stages of the edge elements and the face stages of the face
elements impose moments: the mean and the derivative moments on each edge,
or the mean and the zero-mean moments on each face. Those moments span all
of P_p on the edge or face, so their square system solve(C, C X) returns X.
These stages are therefore plain L2 projections of the tangential or normal
trace onto P_p, the same stage that l2_2d and l2_3d use on the cell.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import polyspace as ps
from .calculus import (COMPLEX, DERIVATIVES, FAMILIES, OPERATORS,
                       bubble_images, diff_rows, diff_slots, operator_at)
from .refsimplex import (cell_edges, graded_interval_rule, make_reference_cell,
                         quadrature, tet_faces, triangle_edges)


def _pinv(mat):
    # rank decisions must match the package-wide SVD cutoff; numpy's
    # default rcond can keep null-space noise at higher degrees
    return np.linalg.pinv(mat, rcond=ps.SVD_CUTOFF)


def _rows_at(V, vd, rows):
    """Values of slot-coefficient rows from the modal table V (nm, n_pts) of
    their points, (n_rows, n_pts, vd), by one (n_rows*vd, nm) @ V product."""
    vals = (rows.reshape(-1, len(V)) @ V).reshape(len(rows), vd, V.shape[1])
    return np.moveaxis(vals, 1, 2)


def _channels(G, n_pts):
    """A constant channel map G (n_chan, n_comp) at each of n_pts points."""
    return np.broadcast_to(G, (n_pts, *np.shape(G)))


_SCALAR = np.ones((1, 1))  # the channel map of scalar samples and rows


def _flip(n_modes, sigma):
    """Modal map of the parameter change s -> sigma*s on a centred interval."""
    return np.diag(float(sigma) ** np.arange(n_modes))


# ---------------------------------------------------------------------------
# the stage primitive


@dataclass
class Stage:
    """One constrained solve of a plan; see the module docstring.

    `name` keys the stage's output for later stages' `parents`. Each `rhs`
    entry is (region, rows, table, weights, G), which `_data` applies.
    """

    name: str
    lift: np.ndarray
    parents: list
    bubbles: np.ndarray
    conditions: np.ndarray
    rhs: list
    out: np.ndarray
    factor: tuple | None


def _stage(name, bubbles, conditions, rhs, trace=None, parents=(), out=None):
    n = bubbles.shape[1]
    trace = np.zeros((0, n)) if trace is None else trace
    square = conditions @ bubbles.T
    return Stage(
        name=name,
        lift=_pinv(trace),
        parents=list(parents),
        bubbles=bubbles,
        conditions=conditions,
        rhs=list(rhs),
        out=np.eye(n) if out is None else out,
        factor=scipy.linalg.lu_factor(square) if len(square) else None,
    )


def _gather(stage, outs, nb):
    """The stage's trace data: its parents' outputs, oriented."""
    parts = [P @ outs[name] for name, P in stage.parents]
    return np.vstack([np.zeros((0, nb))] + parts)


def _data(stage, samples, nb):
    """Right-hand side of the stage's conditions, summed over its rhs
    entries (region, rows, table, weights, G), each rows (table (w G s)).

    G (n_pts, n_chan, n_comp) maps the region's sample channels at each
    point to the components of the rows' values, w weights the points, the
    modal table (n_modes, n_pts) pairs them with the modes, and the
    component-major rows (n_rows, n_comp * n_modes) take the moments: one
    product against the samples and one against the rows, so no (rows x
    samples) matrix is formed. Rows fewer than the conditions feed the
    leading ones.
    """
    r = np.zeros((len(stage.conditions), nb))
    for key, rows, table, w, G in stage.rhs:
        s = samples[key].reshape(*G.shape[:2], nb)
        u = np.einsum("qcl,qcb->lqb", G, s) * w[:, None]
        r[: len(rows)] += rows @ (table @ u).reshape(-1, nb)
    return r


# ---------------------------------------------------------------------------
# pieces and their stage builders


@dataclass
class Piece:
    """One piece of a plan's cell, whose stage the plan builds.

    `name` keys its stage and `region` its samples, at `points` in the plan
    cell's coordinates. `cell` is the piece's own cell (the plan's for the
    vertices), `vertex_ids` its vertices among the plan cell's, and `rule`
    its (points, weights) in `cell`'s coordinates. `boundary` is the `Edge`
    or `Face` that the piece is, None for the vertices and the cell itself.
    """

    name: str
    region: str
    points: np.ndarray
    cell: object
    vertex_ids: tuple
    rule: tuple | None
    boundary: object


def _pieces(cell, m, quad_degree):
    """The pieces of dimension m of `cell`, in stage order: the vertices as
    one piece, the edges of `cell_edges` or the faces of `tet_faces`, or the
    cell itself, whose rule on the interval is the graded one."""
    ids = tuple(range(cell.dim + 1))
    if m == 0:
        return [Piece("vertices", "vertices", cell.vertices, cell, ids, None,
                      None)]
    if m == cell.dim:
        if m == 1:
            pts, w = graded_interval_rule()
            pts = pts[:, None]
        else:
            q = quadrature(cell, quad_degree)
            pts, w = q.points, q.weights
        return [Piece("interior", "vol", pts, cell, ids, (pts, w), None)]
    kind, subs = {1: ("edge", cell_edges), 2: ("face", tet_faces)}[m]
    out = []
    for sub in subs(cell):
        key = f"{kind}{sub.index}"
        q = quadrature(sub.cell, quad_degree)
        out.append(Piece(key, key, sub.embed(q.points), sub.cell,
                         sub.vertex_ids, (q.points, q.weights), sub))
    return out


def _l2_stage(plan, piece):
    """L2 projection onto P_p(piece) of the samples' trace on the piece: the
    component along an edge's tangent or a face's normal, or the samples
    themselves on the cell."""
    p, cell, sub = plan.p, piece.cell, piece.boundary
    pts, w = piece.rule
    direction = (np.ones(1) if sub is None
                 else sub.tangent if cell.dim == 1 else sub.normal)
    V = cell.tabulate(p, pts)
    eye = np.eye(len(V))
    G = _channels(direction[:, None], len(w))
    return _stage(piece.name, eye, eye, [(piece.region, eye, V, w, G)])


def _boundary(plan, piece, n):
    """A piece's parents and boundary fluxes, in the order of its trace
    (`ps.boundary_traces`), with n trace rows per boundary piece.

    Each flux is (region, points, weights, conormals), one outward conormal
    per point in the piece's cell coordinates. An interval gives its two
    ends as one rule on the "vertices" region: every vertex at its parameter
    on the piece, with conormal -1 and +1 at the piece's ends and 0
    elsewhere. A triangle gives its sides counterclockwise, each read at the
    global edge's parameter s through its local one sigma*s; a tangential
    trace changes sign with the parameter, so the side's parent map is
    sigma**slot times the flip. The tetrahedron gives its face pieces.
    """
    cell, whole = piece.cell, plan.target.cell
    if cell.dim == 1:
        edge, (a, b) = piece.boundary, piece.vertex_ids
        s = (whole.vertices[:, 0] if edge is None
             else (whole.vertices - edge.midpoint) @ edge.tangent)
        eye = np.eye(len(s))
        conormal = (eye[b] - eye[a])[:, None]
        return [("vertices", eye[[a, b]])], [
            ("vertices", s[:, None], np.ones(len(s)), conormal)]
    if cell.dim == 3:
        faces = plan.pieces[2]
        return [(f.name, np.eye(n)) for f in faces], [
            (f.region, f.points, f.rule[1],
             np.broadcast_to(f.boundary.normal, (len(f.points), 3)))
            for f in faces]
    slot = OPERATORS[plan.operator][1]
    parents, fluxes = [], []
    for ledge, ccw in triangle_edges(cell):
        a, b = (piece.vertex_ids[i] for i in ledge.vertex_ids)
        key = next(f"edge{e.index}" for e in cell_edges(whole)
                   if set(e.vertex_ids) == {a, b})
        sigma = 1.0 if a < b else -1.0
        q = quadrature(ledge.cell, plan.quad_degree)
        outward = ccw * np.array([ledge.tangent[1], -ledge.tangent[0]])
        parents.append((key, sigma**slot * _flip(n, sigma)))
        fluxes.append((key, ledge.embed(sigma * q.points[:, 0]), q.weights,
                       np.broadcast_to(outward, (len(q.weights), 2))))
    return parents, fluxes


def _vertex_stage(plan, piece):
    """The values at the vertices."""
    n = len(piece.points)
    eye = np.eye(n)
    rhs = [(piece.region, eye, eye, np.ones(n), _channels(_SCALAR, n))]
    return _stage(piece.name, eye, eye, rhs)


def _energy_stage(plan, piece):
    """Stage of a piece above the slot's dimension: a grad3d edge or face,
    the grad2d triangle or the interval, a curl3d face, the curl2d
    triangle, or the curl3d or div3d tetrahedron.

    Lifts the boundary's data, then fixes the bubbles by an energy block,
    (D u, e) over the slot's `bubble_images` e under the derivative D that
    leaves the slot, and in the edge- and face-element slots a gauge block,
    (u, g) over the previous slot's. (D u, e) is integrated by parts as the
    module docstring says, from D's tensor: the adjoint D* is minus the
    divergence for grad, the 2D scalar curl for curl2d, the curl itself
    for curl3d and minus the gradient for div. Each boundary flux is the
    channel map of its region's entry. A face's chart frame maps the
    triangle's vectors, the rows' values and the fluxes alike, into the
    frame of the samples; on the cell, and for scalar samples, the frame
    is the identity.
    """
    cell, deg = piece.cell, plan.target.degree
    p, slot = deg - 1, OPERATORS[plan.operator][1]  # p: the kinds' degree
    kind, part = (("h1", None), ("hcurl", "tangential"),
                  ("hdiv", "normal"))[slot]
    # the boundary's L2 stages pass on the P_p modes of the trace, and the
    # curl3d faces the whole tangential trace
    trace = ps.boundary_traces(cell, deg, part,
                               keep=p if slot == cell.dim - 1 else None)
    parents, fluxes = _boundary(plan, piece, len(trace) // (cell.dim + 1))
    if deg == 0:  # grad1d's P_0 has no bubbles: the lift is the stage
        empty = np.zeros((0, 1))
        return _stage(piece.name, empty, empty, [], trace, parents)
    deriv = COMPLEX[cell.dim][slot]
    C = DERIVATIVES[deriv].C[cell.dim]
    energy = bubble_images(cell, slot, p)
    gauge = [bubble_images(cell, slot - 1, p)] if slot else []
    adjoint = ps.derivative_rows(-C.transpose(2, 1, 0),
                                 ps.PolySpace(cell, len(C), deg, energy))
    frame = (piece.boundary.frame if slot and piece.boundary
             else np.eye(C.shape[2]))
    # the piece's own region takes the energy rows over the gauge rows. The
    # energy rows have degree deg - 1, so their adjoint has degree deg - 2
    # and the gauge rows deg - 1: only the leading modes of that degree of
    # each component live (the rest hold roundoff), and they read that
    # degree's table, the leading rows of the full one
    low = max(deg - 1 if gauge else deg - 2, 0)
    live = (cell.n_modes(deg) * np.arange(C.shape[2])[:, None]
            + np.arange(cell.n_modes(low))).ravel()
    pts, w = piece.rule
    rhs = [(piece.region, np.vstack([adjoint, *gauge])[:, live],
            cell.tabulate(low, pts), w, _channels(frame, len(w)))]
    for region, pts, w, conormal in fluxes:
        flux = frame @ np.einsum("kic,pi->pck", C, conormal)
        rhs.append((region, energy, cell.tabulate(deg, pts), w, flux))
    space = ps.build_space(cell, kind, p)
    bubbles = ps.build_space(cell, f"{kind}_bubble", p).basis @ space.basis.T
    K = np.vstack([energy @ diff_rows(deriv, space).T,
                   *(g @ space.basis.T for g in gauge)])
    return _stage(piece.name, bubbles, K, rhs, trace @ space.basis.T,
                  parents, space.basis.T)


def target_space(operator, p):
    """The space that the operator's plan at complex degree p interpolates
    into: P_{p+1} in the H1 slot (P_p on the interval), the complex's H(curl)
    or H(div) space, and P_p in the top slot, which is L2 on any cell."""
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    if p < 0:
        raise ValueError("complex degree must be >= 0")
    dim, slot = OPERATORS[operator]
    cell = make_reference_cell(dim).cell
    if slot == dim:
        return ps.scalar_space(cell, p)
    if slot == 0:
        return ps.scalar_space(cell, p if dim == 1 else p + 1)
    return ps.build_space(cell, ("hcurl", "hdiv")[slot - 1], p)


class ProjectorPlan:
    """Staged solver for one interpolation operator at one degree.

    `target` is `target_space(operator, p)` and `pieces` maps each piece
    dimension m to `_pieces`' list, both read by the stage builders;
    `stages` is the ordered stage list, and the last stage's output is the
    target slot vector. Immutable after construction; `apply` allocates no
    shared state and may run concurrently on different fields.

    Plans are never memoised: at p = 10 the stage arrays of a plan hold
    23.5 MiB (grad3d), 55.1 MiB (curl3d) and 50.7 MiB (div3d), shared
    arrays counted once, mostly the interior's modal table at its 8,000
    points (of degree 9 in grad3d, 10 in the others), so each caller
    builds its own and drops it when done. The rate sweep and
    `run_verification` drop each plan before the next is built.
    """

    def __init__(self, operator, p):
        self.target = target_space(operator, p)
        self.operator = operator
        self.p = p
        self.quad_degree = min(2 * (p + 2) + 14, 40)
        self.sample_points = {}
        self.stages = []
        self.pieces = {}
        dim, slot = OPERATORS[operator]
        for m in range(slot, dim + 1):
            self.pieces[m] = _pieces(self.target.cell, m, self.quad_degree)
            # a piece of the slot's own dimension takes the slot's data, and
            # every piece above it the energy (and gauge) conditions
            build = ((_vertex_stage, _l2_stage)[slot > 0] if m == slot
                     else _energy_stage)
            for piece in self.pieces[m]:
                self.sample_points[piece.region] = piece.points
                self.stages.append(build(self, piece))

    def apply(self, field):
        """Interpolate an evaluable field; returns target slot coefficients."""
        samples = {}
        for key, pts in self.sample_points.items():
            vals = np.asarray(field(pts), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite field samples on region {key}")
            samples[key] = vals.reshape(-1, 1)
        return self._solve(samples)[:, 0]

    def apply_polynomials(self, space, slots_batch):
        """Vectorized interpolation of polynomial fields given by slot rows."""
        slots_batch = np.atleast_2d(np.asarray(slots_batch, dtype=float))
        nb = len(slots_batch)
        samples = {}
        for key, pts in self.sample_points.items():
            vals = space.evaluate(slots_batch, pts)  # (nb, npts[, vd])
            samples[key] = np.moveaxis(vals, 0, -1).reshape(-1, nb)
        return self._solve(samples).T

    def _solve(self, samples):
        nb = next(iter(samples.values())).shape[1]
        outs = {}
        for st in self.stages:
            x = st.lift @ _gather(st, outs, nb)
            if st.factor is not None:
                r = _data(st, samples, nb) - st.conditions @ x
                x = x + st.bubbles.T @ scipy.linalg.lu_solve(st.factor, r)
            outs[st.name] = st.out @ x
        return outs[self.stages[-1].name]


def projection_error(plan, slots):
    """Max relative L2 error of re-interpolating the target elements given by
    the slot rows `slots` through `plan`."""
    out = plan.apply_polynomials(plan.target, slots)
    num = np.linalg.norm(out - slots, axis=1)
    den = np.linalg.norm(slots, axis=1)
    return float((num / den).max())


def check_commuting(p, fields_by_op, plans):
    """Residuals of the five commuting identities on supplied fields: the
    operator of each slot chained, by the derivative that leaves the slot, to
    the next slot's operator (the interval's L2 slot has none).

    fields_by_op: {"grad3d": [scalar fields], "curl3d": [...], "div3d": [...],
    "grad2d": [...], "curl2d": [...]}; missing keys are skipped. Fields must
    provide first-derivative jets so the chained input can be formed.
    plans: an iterable of plans at degree p, in any order, for every operator
    applied, chained ones included. It is read once: each plan interpolates
    the fields of the chains that start at its operator and the derivatives
    of the fields of the operator chained into it, and only the slot vectors
    and targets are kept, so a caller may drop each plan as soon as the next
    one is asked for.
    Returns a list of {identity, field, residual, scale} records, in the
    order of `OPERATORS` and then of the fields.
    """
    chains = {}  # operator -> (chained operator, derivative leaving its slot)
    for operator, (dim, slot) in OPERATORS.items():
        chained = operator_at(dim, slot + 1)
        if chained is not None and fields_by_op.get(operator):
            chains[operator] = (chained, COMPLEX[dim][slot])
    starts, ends = {}, {}  # operator -> (target, slot vectors of its chain)
    for plan in plans:
        for operator, (chained, deriv) in chains.items():
            fields = fields_by_op[operator]
            if plan.operator == operator:
                starts[operator] = (plan.target,
                                    [plan.apply(f) for f in fields])
            if plan.operator == chained:
                ends[operator] = (plan.target, [
                    plan.apply(DERIVATIVES[deriv].field(f)) for f in fields])
        del plan  # not held while the iterable makes the next one
    out = []
    for operator, (chained, deriv) in chains.items():
        dim, slot = OPERATORS[operator]
        (t, a_slots), (nt, b_slots) = starts[operator], ends[operator]
        for f, a_s, b_s in zip(fields_by_op[operator], a_slots, b_slots):
            a = diff_slots(deriv, t, a_s)
            b = ps.pad_slots(b_s, t.cell, nt.value_dim, nt.degree, t.degree)
            residual = float(np.linalg.norm(a - b))
            scale = max(float(np.linalg.norm(a_s)), 1e-30)
            out.append(
                {
                    "identity": f"{FAMILIES[slot]}_chain_{dim}d",
                    "field": f.name,
                    "residual": residual,
                    "scale": scale,
                    "rel_residual": residual / scale,
                    "p": p,
                }
            )
    return out
