"""Experiment harness: verification report and p-convergence sweeps.

Rate sweeps measure the quasi-optimality ratio (interpolation error over the
matching best-approximation infimum) so unknown stability constants drop
out; slopes are fitted on the upper half of the degree range to skip
preasymptotics. Records are merged in a deterministic sort order so fixed
seeds give byte-identical output files. `_numerators` alone declares each
slot's records, with their norms, Grams and dual test modes.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import cache
from . import calculus as ca
from . import fields as fl
from . import poincare as pc
from . import polyspace as ps
from . import projectors as pj
from . import sobolev as sb
from . import spectra as spc
from .refsimplex import (MAX_QUAD_DEGREE, graded_interval_rule,
                         make_reference_cell, quadrature)

P_CAP = {1: 20, 2: 10, 3: 10}

DENOMINATOR_NORM = {
    "grad3d": ("H2", None),
    "curl3d": ("H1curl", None),
    "div3d": ("Hhalf_div", 0.5),
    "grad2d": ("Hhalf", 1.5),
    "curl2d": ("Hhalf_curl", 0.5),
    "l2_3d": ("L2", None),
    "l2_2d": ("L2", None),
    "grad1d": ("H1full", None),
}


def check_degree_range(p_min, p_max):
    """Refuse a degree range p_min..p_max that is empty or starts below 0."""
    if not 0 <= p_min <= p_max:
        raise ValueError(f"invalid degree range: p_min {p_min}, p_max "
                         f"{p_max}; need 0 <= p_min <= p_max")


@dataclass
class StudyConfig:
    operators: tuple = ("curl3d",)
    p_min: int = 2
    p_max: int = 6
    suite: str = "entire"
    s_values: tuple = (0.0,)
    dual_offset: int = 6
    seed: int = 0

    def validate(self):
        for name, values in (("operator", self.operators),
                             ("s value", self.s_values)):
            if len(set(values)) < len(values):
                raise ValueError(f"repeated {name} in {list(values)}")
        for op in self.operators:
            if op not in ca.OPERATORS:
                raise ValueError(f"unknown operator {op!r}")
            dim = ca.OPERATORS[op][0]
            if self.p_max > P_CAP[dim]:
                raise ValueError(
                    f"p_max {self.p_max} beyond cap {P_CAP[dim]} for {op}"
                )
            smax = 1.0 if dim != 2 else make_reference_cell(2).regularity_index
            for s in self.s_values:
                if not 0.0 <= s <= smax + 1e-12:
                    raise ValueError(f"s={s} outside [0, {smax}] for {op}")
        check_degree_range(self.p_min, self.p_max)
        if self.dual_offset < 2:
            raise ValueError("dual-test offset must be at least 2")
        for op, p, s, top in self._gram_tops():
            # a Gram's derivative matrices use a rule of twice its degree
            if 2 * top > MAX_QUAD_DEGREE:
                raise ValueError(
                    f"{op} at p={p}, s={s:g} needs a degree-{top} "
                    f"Sobolev Gram, whose rule of degree {2 * top} is "
                    f"beyond the quadrature cap {MAX_QUAD_DEGREE}")

    def _gram_tops(self):
        """(op, p, s, the highest degree of the Grams its records build)."""
        for op in self.operators:
            for s in self.s_values:
                for p in range(self.p_min, self.p_max + 1):
                    yield op, p, s, max(
                        _gram_degrees(op, p, s, self.dual_offset), default=0)

    def stiffness_tops(self):
        """Per cell dimension, the highest Gram degree of the sweep: the
        degree of the one stiffness table its dual and fractional norms
        slice (see `sobolev.gram`)."""
        tops = {}
        for op, _, _, top in self._gram_tops():
            dim = ca.OPERATORS[op][0]
            tops[dim] = max(tops.get(dim, 0), top)
        return tops


def _gram_degrees(op, p, s, dual_offset):
    """Degrees of the Sobolev Grams that the records of (op, p, s) build:
    the denominator's in `sobolev.best_approx` and the numerators' that
    `_numerators` declares, over the dual degree P."""
    dim, slot = ca.OPERATORS[op]
    target = p if dim == 1 else p + 1  # an L2 target needs no Gram
    P = p + 1 + dual_offset
    norm, den_s = DENOMINATOR_NORM[op]
    out = set()
    if den_s is not None:
        out.add(target + dual_offset)  # the rich space of the surrogate
    elif norm != "L2":
        out.add(target)
    # the s = 0 dual Grams too: read for their size only, they still set the
    # stiffness top, which a later s = 1 pass of the process reuses
    return out | {P + k for _, reading in _numerators(dim, slot, s)
                  if not isinstance(reading, str) for k in reading[3]}


def _numerators(dim, slot, s):
    """The records of a slot at s in output order, as (norm id, reading):
    the error's "l2" part, its "graph" part, or (form, order, rows, offsets),
    the norm `form(g, b[rows, :g.n], order)` of pairing rows (row 0 pairs
    e, the rest De) with the Gram g of each degree P + offset, a second
    offset giving pstab. The forms are looked up on each call, so wrappers
    installed on `sobolev` see them."""
    if slot == dim:
        return [("L2", "l2")]
    if slot > 0:  # the curl / div graph norms
        if s <= 0.0:
            return [("Hgraph", "graph")]
        return [(f"Hdual{s:g}", (sb.dual_norm, s, slice(None), (0,)))]
    if s <= 0.0:
        out = [("H1", "graph")]
    elif s >= 1.0:
        out = [("L2", "l2")]
    else:
        out = [(f"H{1 - s:g}", (sb.fractional_norm, 1.0 - s, 0, (0,)))]
    if dim > 1:
        out.append(("grad_dual", (sb.dual_norm, s, slice(1, None), (0, 2))))
    return out


@dataclass
class StudyRecord:
    operator: str
    p: int
    field: str
    s: float
    norm_id: str
    error: float
    denominator: float
    ratio: float
    pstab: float = float("nan")

    def row(self):
        return {
            "operator": self.operator,
            "p": self.p,
            "field": self.field,
            "s": self.s,
            "norm": self.norm_id,
            "error": self.error,
            "denominator": self.denominator,
            "ratio": self.ratio,
            "pstab": self.pstab,
        }


def fields_for(operator, suite_name):
    dim, slot = ca.OPERATORS[operator]
    vd = ca.slot_value_dim(dim, slot)
    return tuple(f for f in fl.suite(suite_name, dim) if f.value_dim == vd)


def _error_l2_parts(plan, field, slots, pts, w, V):
    """L2 norms of (e, De) for the operator's graph norm, by the rule (pts, w)
    and the target's modal table V at its points, which serves the target's
    values and those of its derivative.

    Returns (||e||, ||De||, e, De) with e and De sampled at `pts`; the L2
    operators have no derivative part, and None in its places.
    """
    target = plan.target
    cell = target.cell
    dim, slot = ca.OPERATORS[plan.operator]

    def error(f, vd, rows):
        fv = f(pts)  # in the field's own shape: grad on an interval is (n, 1)
        return fv - pj._rows_at(V, vd, rows[None, :])[0].reshape(fv.shape)

    e = error(field, target.value_dim, slots)
    l2 = float(np.sqrt(sb._l2sq(w, e)))
    if slot == dim:
        return l2, None, e, None
    name = ca.COMPLEX[dim][slot]
    d = ca.DERIVATIVES[name]
    de = error(d.field(field), d.value_dim(cell.dim),
               ca.diff_slots(name, target, slots))
    return l2, float(np.sqrt(sb._l2sq(w, de))), e, de


def run_convergence(cfg):
    """Sweep (operator, p, field, s); returns (records, slopes).

    For one degree: each (operator, p) builds its plan once, unmemoised, for
    all its fields, and tabulates its target's modes once on the study rule.
    Its dual test modes, and a fractional denominator's rich modes, are
    paired with every field in one pass over blocks of the rule's points,
    so no table of them is formed. The plan is freed before the
    denominators, and the target's table and the denominators' forms (the
    H1curl factor, the fractional surrogate's rich Gram and form) with the
    degree.

    For the process: what a degree yields for every s, its fields' L2 error
    parts, denominators and dual pairings, is memoised by `_degree_data`, so
    a later sweep of the same (operator, p) at other s, such as the gate's
    grad3d s = 1 pass after its s = 0 pass, builds none of it again. That is
    floats and one (k, n_modes) pairing row block per field. Records are
    sorted at the end, so the loop order does not reach the output.

    The dual norms, the fractional value norms and the fractional
    denominators read their Grams as leading blocks of one stiffness table
    per cell, built once at the sweep's highest Gram degree for that cell's
    dimension (`StudyConfig.stiffness_tops`); an order-1 dual norm makes
    one triangular solve, for all its components, with a leading block of
    its one shared Cholesky factor (`sobolev.gram`). The integer
    denominators (H2, H1curl, H1full) keep their per-degree Grams: at
    p = 9 and 10 their values sit on the roundoff floor that criterion 08
    reads, and the two routes agree to roundoff only.

    slopes: list of {operator, field, s, slope} fitted on log(ratio) against
    log(p) over the upper half of the degree range.
    """
    cfg.validate()
    tops = cfg.stiffness_tops()
    records = []
    for op in sorted(cfg.operators):
        dim = ca.OPERATORS[op][0]
        cell = make_reference_cell(dim).cell
        flds = fields_for(op, cfg.suite)
        top = tops[dim]
        # only the fractional denominators read the stiffness table
        den_top = None if DENOMINATOR_NORM[op][1] is None else top
        for p in range(cfg.p_min, cfg.p_max + 1):
            data = _degree_data(op, p, cfg.suite, cfg.dual_offset,
                                _pairing_degree(op, p, cfg), den_top)
            for f, fdata in zip(flds, data):
                for s in cfg.s_values:
                    records += _records_for(op, p, f, s, fdata,
                                            cfg.dual_offset, cell, top)
    records.sort(key=lambda r: (r.operator, r.field, r.s, r.norm_id, r.p))
    slopes = fit_slopes(records, cfg)
    return records, slopes


@cache.memo
def _degree_data(op, p, suite, dual_offset, pairing_degree, top):
    """Per field of (operator, p) on `suite`: (||e||, ||De|| or None,
    denominator, dual pairings or None), which every s reads alike. Its
    plan lives until the fields are interpolated and only its target is
    read after that; the target's table and the denominators' forms are
    locals, freed on return. The dual pairings of every field come from one
    `sobolev.rule_pairings` pass, which forms no table of the dual test
    modes. `pairing_degree` is `_pairing_degree`'s, and `top` the degree of
    the stiffness table that a fractional denominator slices (None for the
    others, which read none)."""
    flds = fields_for(op, suite)
    plan = pj.ProjectorPlan(op, p)
    target = plan.target
    cell = target.cell
    study = quadrature(cell, min(2 * target.degree + 14, 40))
    table = cache.freeze(cell.tabulate(target.degree, study.points))
    if cell.dim == 1:  # the interval's errors keep the graded rule
        pts, w = graded_interval_rule()
        errors = (pts[:, None], w, cell.tabulate(target.degree, pts[:, None]))
    else:
        errors = (study.points, study.weights, table)
    den_norm, den_s = DENOMINATOR_NORM[op]
    kwargs = {}
    if den_s is not None:
        kwargs["s"] = den_s
        kwargs["rich_degree"] = target.degree + dual_offset
        kwargs["top"] = top
    parts = [_error_l2_parts(plan, f, plan.apply(f), *errors) for f in flds]
    del plan
    pairings = [None] * len(flds)
    if pairing_degree is not None:
        # every field's (e, De) in one streamed pass over the dual test modes
        pts, w, _ = errors
        pairings = sb.rule_pairings(cell, pairing_degree, pts, w, [
            np.column_stack([e, de]) for _, _, e, de in parts])
    dens = [den for _, den in sb.best_approx(target, flds, den_norm, quad=study,
                                             table=table, **kwargs)]
    return tuple((l2, dl2, den, b)
                 for (l2, dl2, _, _), den, b in zip(parts, dens, pairings))


def _pairing_degree(op, p, cfg):
    """The degree of the dual test modes that the records of (op, p) read
    at the config's s values, or None where no `_numerators` record reads
    pairings: P + 2 in the H1 slot, P in the others."""
    dim, slot = ca.OPERATORS[op]
    if all(isinstance(reading, str) for s in cfg.s_values
           for _, reading in _numerators(dim, slot, s)):
        return None
    P = p + 1 + cfg.dual_offset
    # P + 2 in the H1 slot even where no Gram above P is read (grad1d at
    # 0 < s < 1): pairings with the degree-P modes differ in roundoff from
    # the leading columns of those with the degree-(P + 2) modes
    return P + 2 if slot == 0 else P


def _records_for(op, p, f, s, fdata, dual_offset, cell, top):
    """The records of one (field, s) that `_numerators` declares, from the
    field's `_degree_data`, whose pairings b are with the `_pairing_degree`
    modes; the Grams are leading blocks of the degree-`top` stiffness."""
    l2, dl2, den, b = fdata
    P = p + 1 + dual_offset
    out = []
    for norm_id, reading in _numerators(*ca.OPERATORS[op], s):
        pstab = float("nan")
        if reading == "l2":
            err = l2
        elif reading == "graph":
            err = float(np.sqrt(l2**2 + dl2**2))
        else:
            form, order, rows, offsets = reading
            err, *stab = [form(g, b[rows, : g.n], order) for g in
                          (sb.gram(cell, P + k, top) for k in offsets)]
            if stab:  # the relative change at the P-stability Gram
                pstab = abs(stab[0] - err) / err if err > 0 else 0.0
        out.append(StudyRecord(op, p, f.name, s, norm_id, err, den,
                               err / den if den > 0 else float("inf"), pstab))
    return out


def fit_slopes(records, cfg):
    """Least-squares slope of log(ratio) vs log(p) over the upper half range."""
    p_lo = max(cfg.p_min, (cfg.p_min + cfg.p_max) // 2)
    groups = {}
    for r in records:
        groups.setdefault((r.operator, r.field, r.s, r.norm_id), []).append(r)
    slopes = []
    for (op, fname, s, norm_id), rs in sorted(groups.items()):
        pts = [(r.p, r.ratio) for r in rs if r.p >= max(p_lo, 1) and r.ratio > 0
               and np.isfinite(r.ratio)]
        if len(pts) < 2:
            continue
        x = np.log([float(p) for p, _ in pts])
        y = np.log([rat for _, rat in pts])
        slope = float(np.polyfit(x, y, 1)[0])
        slopes.append(
            {"operator": op, "field": fname, "s": s, "norm": norm_id,
             "slope": slope}
        )
    return slopes


# ---------------------------------------------------------------------------
# consolidated verification


def _dims_table(p_max):
    check_degree_range(0, p_max)
    rows = []
    tet, tri = make_reference_cell(3).cell, make_reference_cell(2).cell
    for p in range(0, p_max + 1):
        entries = [
            ("h1_3d", ps.build_space(tet, "h1", p).dim, ps.h1_dimension(p, 3)),
            ("hcurl_3d", ps.build_space(tet, "hcurl", p).dim,
             ps.hcurl_dimension(p, 3)),
            ("hdiv_3d", ps.build_space(tet, "hdiv", p).dim, ps.hdiv_dimension(p)),
            ("h1_conditions_3d", ps.h1_condition_count(p), ps.h1_dimension(p, 3)),
            ("hdiv_conditions_3d",
             ps.build_space(tet, "hdiv_bubble", p).dim
             + 4 * ((p + 1) * (p + 2) // 2),
             ps.hdiv_dimension(p)),
            ("h1_2d", ps.build_space(tri, "h1", p).dim, ps.h1_dimension(p, 2)),
            ("hcurl_2d", ps.build_space(tri, "hcurl", p).dim,
             ps.hcurl_dimension(p, 2)),
        ]
        for name, dim, closed in entries:
            rows.append(
                {"p": p, "space": name, "dim": int(dim),
                 "closed_form": int(closed), "match": bool(dim == closed)}
            )
    return rows


_PROJECTION_SAMPLES = 40  # target elements per operator, over all degrees
_POINCARE_SAMPLES = 6  # random elements per right-inverse identity


def run_verification(p_max, seed):
    """Dimension counts, sequence checks, projections, commuting, right
    inverses, splittings and the Friedrichs sweep; pass/fail plus residuals.

    The projection and commuting checks run one degree at a time, one plan
    at a time (`_degree_checks`), so only one plan is alive; their random
    draws are all made first, in section order, so the report does not
    depend on that schedule."""
    check_degree_range(0, p_max)
    rng = np.random.default_rng(seed)
    tet, tri, interval = (make_reference_cell(d).cell for d in (3, 2, 1))
    max_angle = make_reference_cell(3).max_angle
    report = {
        "p_max": p_max,
        "seed": seed,
        "geometry": {
            "max_face_angle_3d": float(max_angle),
            "face_angle_hypothesis_2pi3": bool(max_angle < 2 * np.pi / 3),
            "regularity_index_2d": float(make_reference_cell(2).regularity_index),
        },
        "sections": {},
    }

    dims = _dims_table(min(p_max + 2, 8))
    report["sections"]["dims"] = {
        "ok": all(r["match"] for r in dims),
        "rows": dims,
    }

    seq = [ca.check_exact_sequence(p, tet, tri, interval)
           for p in range(p_max + 1)]
    complex_res = max(
        ca.complex_property_residual(tet, tri, p) for p in range(p_max + 1)
    )
    report["sections"]["sequences"] = {
        "ok": bool(all(r["ok"] for r in seq) and complex_res <= 1e-12),
        "complex_residual": complex_res,
        "per_p": [{"p": r["p"], "ok": r["ok"]} for r in seq],
    }

    ibp = ca.integration_by_parts_residual(tet, min(p_max, 4), rng)
    stokes = ca.stokes_2d_residual(tri, min(p_max, 4), rng)
    report["sections"]["integration_by_parts"] = {
        "ok": bool(ibp <= 1e-10 and stokes <= 1e-10),
        "residual_3d": ibp,
        "residual_2d": stokes,
    }

    # every draw first, in the order of the sections: the projection samples
    # operator by operator, then each degree's commuting suite
    degrees = range(p_max + 1)
    n = max(2, _PROJECTION_SAMPLES // (p_max + 1))
    samples = [{} for _ in degrees]
    for op in ca.OPERATORS:
        if op == "grad1d":
            continue
        for p in degrees:
            samples[p][op] = pj.target_space(op, p).random_elements(n, rng)
    suites = [_commuting_suite(p, rng) for p in degrees]
    proj = dict.fromkeys(samples[0], 0.0)
    comm_rows = []
    for p in degrees:
        errors, rows = _degree_checks(p, samples[p], suites[p])
        suites[p] = None  # its tables are freed before the next degree's
        for op, err in errors.items():
            proj[op] = max(proj[op], err)
        comm_rows.extend(rows)
    report["sections"]["projection"] = {
        "ok": bool(max(proj.values()) <= 1e-9),
        "worst": proj,
    }
    worst_comm = max(r["rel_residual"] for r in comm_rows)
    report["sections"]["commuting"] = {
        "ok": bool(worst_comm <= 1e-9),
        "worst": worst_comm,
        "n_cases": len(comm_rows),
    }

    poin = _poincare_checks(min(p_max, 8), rng, _POINCARE_SAMPLES)
    report["sections"]["poincare"] = poin

    lift_rows = []
    ok_lift = True
    rngl = np.random.default_rng(seed + 1)
    for p in range(1, min(p_max, 6) + 1):
        Q = ps.build_space(tet, "hcurl", p)
        V = ps.build_space(tet, "hdiv", p)
        res_c = spc.discrete_lifting_curl(p, Q.random_elements(1, rngl)[0])
        res_d = spc.discrete_lifting_div(p, V.random_elements(1, rngl)[0])
        beta = spc.inf_sup_constant(p)
        ok_p = (
            res_c.trace_residual <= 1e-10
            and res_c.orthogonality_residual <= 1e-10
            and res_c.multiplier_norm <= 1e-9
            and res_d.trace_residual <= 1e-10
            and res_d.orthogonality_residual <= 1e-10
            and res_d.multiplier_norm <= 1e-9
        )
        ok_lift = ok_lift and bool(ok_p)
        lift_rows.append(
            {
                "p": p,
                "ok": bool(ok_p),
                "kkt_min_singular_curl": res_c.kkt_min_singular,
                "kkt_min_singular_div": res_d.kkt_min_singular,
                "inf_sup": beta,
            }
        )
    report["sections"]["liftings"] = {"ok": ok_lift, "per_p": lift_rows}

    fried_rows = list(spc.friedrichs_rows(1, min(p_max, 8)))
    fried = []
    for case in spc.FRIEDRICHS_CASES:
        Cs = [[r["p"], r["constant"]] for r in fried_rows if r["case"] == case]
        vals = [c for _, c in Cs]
        # a case that no degree in range populates is vacuously true
        ratio = max(vals) / min(vals) if vals else float("nan")
        ok = not vals or bool(ratio <= 2.0 and min(vals) > 0)
        fried.append({"case": case, "ok": ok, "empty": not vals,
                      "ratio": ratio, "constants": Cs})
    report["sections"]["friedrichs"] = {
        "ok": all(c["ok"] for c in fried), "cases": fried}

    report["ok"] = all(s["ok"] for s in report["sections"].values())
    return report


def _degree_checks(p, samples, suite):
    """Degree p's projection errors, {operator: max relative error} over the
    slot rows `samples[operator]`, and its commuting records on `suite`.
    Each operator's plan is built, takes its projection error and feeds the
    commuting check on one pass, and is freed before the next is built, so
    only one plan is alive at a time."""
    errors = {}

    def plans():
        for op, s in samples.items():
            plan = pj.ProjectorPlan(op, p)
            errors[op] = pj.projection_error(plan, s)
            yield plan
            del plan  # before the next build

    rows = pj.check_commuting(p, suite, plans())
    return errors, rows


def _commuting_suite(p, rng):
    tet, tri = make_reference_cell(3).cell, make_reference_cell(2).cell
    deg = p + 3
    sc3 = ps.scalar_space(tet, deg)
    vec3 = ps.vector_space(tet, deg, 3)
    sc2 = ps.scalar_space(tri, deg)
    vec2 = ps.vector_space(tri, deg, 2)
    poly = fl.polynomial_fields()  # one table store for the whole suite

    def polys(space, tag, n=2):
        return [
            poly(f"{tag}{i}", space, s)
            for i, s in enumerate(space.random_elements(n, rng))
        ]

    ent3 = fl.suite("entire", 3)
    ent2 = fl.suite("entire", 2)
    return {
        "grad3d": polys(sc3, "poly_s3_") + [f for f in ent3 if f.value_dim == 1][:1],
        "curl3d": polys(vec3, "poly_v3_") + [f for f in ent3 if f.value_dim == 3][:1],
        "div3d": polys(vec3, "poly_w3_") + [f for f in ent3 if f.value_dim == 3][1:2],
        "grad2d": polys(sc2, "poly_s2_") + [f for f in ent2 if f.value_dim == 1][:1],
        "curl2d": polys(vec2, "poly_v2_") + [f for f in ent2 if f.value_dim == 2][:1],
    }


def _identity_residual(inverse, space, u):
    """Max entry residual of D R u = u, relative to u, for the right inverse R
    of the derivative D applied to the element u of `space`."""
    osp, o = inverse.apply(space, u)
    du = ca.diff_slots(inverse.derivative, osp, o)
    pad = ps.pad_slots(u, space.cell, space.value_dim, space.degree, osp.degree)
    return np.abs(du - pad).max() / max(np.abs(u).max(), 1e-30)


def _poincare_checks(p_max, rng, n_samples):
    cell, tri = make_reference_cell(3).cell, make_reference_cell(2).cell
    worst_identity = 0.0
    worst_member = 0.0
    worst_split = 0.0
    for p in range(1, p_max + 1, 2):
        rg = pc.regularized_inverse(cell, "grad3d")
        rcu = pc.regularized_inverse(cell, "curl3d")
        rd = pc.regularized_inverse(cell, "div3d")
        vs = ps.vector_space(cell, p + 1, 3)
        # (iii) div o R_div = id on scalars
        sc = ps.scalar_space(cell, p)
        for u in sc.random_elements(n_samples, rng):
            worst_identity = max(worst_identity, _identity_residual(rd, sc, u))
        # (ii) grad o R_grad = id on gradients
        scp = ps.scalar_space(cell, p + 1)
        for phi in scp.random_elements(n_samples, rng):
            g = ca.diff_slots("grad", scp, phi)
            worst_identity = max(worst_identity, _identity_residual(rg, vs, g))
        # (i) curl o R_curl = id on divergence-free fields
        Q = ps.build_space(cell, "hcurl", p)
        V = ps.build_space(cell, "hdiv", p)
        cmat = ca.diff_op("curl3d", Q, V)
        for c in Q.random_elements(n_samples, rng):
            w = (Q.basis @ c) @ cmat @ V.basis  # divergence-free field
            worst_identity = max(worst_identity, _identity_residual(rcu, vs, w))
        # memberships (iv)-(vi)
        W = ps.build_space(cell, "h1", p)
        for rows, op_, tgt, din in (
            (Q.basis, rg, W, p + 1),
            (V.basis, rcu, Q, p + 1),
            (ps.scalar_space(cell, p).basis, rd, V, p),
        ):
            img = rows @ op_.matrix(din)
            _, resid = ca._expand_in(tgt, img, cell, op_.out_vdim, din + 1)
            worst_member = max(worst_member, resid)
        # Helmholtz splittings
        for u in vs.random_elements(max(2, n_samples // 2), rng):
            *_, res = pc.helmholtz_curl(cell, vs, u)
            worst_split = max(worst_split, res)
            *_, res = pc.helmholtz_div(cell, vs, u)
            worst_split = max(worst_split, res)
        # 2D identities
        rg2 = pc.regularized_inverse(tri, "grad2d")
        rc2u = pc.regularized_inverse(tri, "curl2d")
        sc2 = ps.scalar_space(tri, p)
        for u in sc2.random_elements(n_samples, rng):
            worst_identity = max(worst_identity, _identity_residual(rc2u, sc2, u))
        sc2p = ps.scalar_space(tri, p + 1)
        vs2 = ps.vector_space(tri, p + 1, 2)
        for phi in sc2p.random_elements(n_samples, rng):
            g = ca.diff_slots("grad", sc2p, phi)
            worst_identity = max(worst_identity, _identity_residual(rg2, vs2, g))
    return {
        "ok": bool(worst_identity <= 1e-10 and worst_member <= 1e-10
                   and worst_split <= 1e-9),
        "identity_residual": worst_identity,
        "membership_residual": worst_member,
        "splitting_residual": worst_split,
    }


# ---------------------------------------------------------------------------
# serialization


def records_to_rows(records):
    return [r.row() for r in records]


def format_rows(rows, fmt):
    if fmt == "json":
        return json.dumps(_json_values(rows), indent=1) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    import csv
    import io

    buf = io.StringIO()
    if not rows:
        return ""
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                            lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({k: _fmt_value(v) for k, v in r.items()})
    return buf.getvalue()


def _fmt_value(v):
    if isinstance(v, float):
        return repr(v)
    return v


def format_report(report, fmt):
    if fmt == "json":
        return json.dumps(_json_values(report), indent=1) + "\n"
    lines = [f"verification p_max={report['p_max']} seed={report['seed']}"]
    for name, sec in report["sections"].items():
        lines.append(f"[{'PASS' if sec['ok'] else 'FAIL'}] {name}")
    lines.append(f"overall: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _json_values(x):
    """`x` with numpy values as Python ones and non-finite floats as None:
    strict JSON (RFC 8259) has no token for them, so they are written null."""
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _json_values(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_values(v) for v in x]
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x
