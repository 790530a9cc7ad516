"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them). Degree caps and tolerances are fixed here, not configurable.
"""

import numpy as np
import pytest

from exseq import calculus as ca
from exseq import cli
from exseq import fields as fl
from exseq import poincare as pc
from exseq import polyspace as ps
from exseq import projectors as pj
from exseq import sobolev as sb
from exseq import spectra as spc
from exseq import studies as st
from exseq.refsimplex import graded_interval_rule, make_reference_cell

RNG_SEED = 424242


def _verdict(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_dimension_counts(capsys):
    rc3 = make_reference_cell(3).cell
    ok = True
    for p in range(0, 9):
        dim_w = ps.build_space(rc3, "h1", p).dim
        ok &= dim_w == (p + 4) * (p + 3) * (p + 2) // 6
        ok &= ps.h1_condition_count(p) == dim_w
        dim_v = ps.build_space(rc3, "hdiv", p).dim
        ok &= dim_v == (p + 2) * (p + 1) * p // 2 + 4 * (p + 1) * (p + 2) // 2
        interior = ps.build_space(rc3, "hdiv_bubble", p).dim
        ok &= interior + 4 * (p + 1) * (p + 2) // 2 == dim_v
    _verdict(capsys, 1, "dimension-and-count-identities", bool(ok))


def test_criterion_02_exact_sequences(capsys):
    rc3, rc2, rc1 = (make_reference_cell(d).cell for d in (3, 2, 1))
    worst = max(
        ca.complex_property_residual(rc3, rc2, p) for p in range(0, 9)
    )
    seq_ok = all(
        ca.check_exact_sequence(p, rc3, rc2, rc1)["ok"] for p in range(0, 9)
    )
    ok = worst <= 1e-12 and seq_ok
    _verdict(capsys, 2, "exact-sequences", bool(ok), f"complex residual {worst:.2e}")


def test_criterion_03_projection_property(capsys):
    rng = np.random.default_rng(RNG_SEED)
    worst = {}
    for op in pj.OPERATORS:
        if op == "grad1d":
            continue
        w = 0.0
        n_total = 0
        for p in range(0, 9):
            n = 23 if p < 8 else 16  # 200 elements per operator overall
            n_total += n
            slots = pj.target_space(op, p).random_elements(n, rng)
            w = max(w, pj.projection_error(pj.ProjectorPlan(op, p), slots))
        assert n_total >= 200
        worst[op] = w
    ok = max(worst.values()) <= 1e-9
    _verdict(capsys, 3, "projection-property", bool(ok),
             f"worst {max(worst.values()):.2e}")


def test_criterion_04_commuting_diagrams(capsys):
    rng = np.random.default_rng(RNG_SEED + 1)
    rc3, rc2 = make_reference_cell(3).cell, make_reference_cell(2).cell
    worst_poly, worst_entire = 0.0, 0.0
    for p in range(0, 7):
        deg = p + 3
        sc3 = ps.scalar_space(rc3, deg)
        v3 = ps.vector_space(rc3, deg, 3)
        sc2 = ps.scalar_space(rc2, deg)
        v2 = ps.vector_space(rc2, deg, 2)
        poly = fl.polynomial_fields()
        plans = [pj.ProjectorPlan(op, p) for op in pj.OPERATORS
                 if op != "grad1d"]

        def pick(space, tag, n=2):
            return [poly(f"{tag}{i}", space, s)
                    for i, s in enumerate(space.random_elements(n, rng))]

        poly_suite = {
            "grad3d": pick(sc3, "s3"),
            "curl3d": pick(v3, "v3"),
            "div3d": pick(v3, "w3"),
            "grad2d": pick(sc2, "s2"),
            "curl2d": pick(v2, "v2"),
        }
        recs = pj.check_commuting(p, poly_suite, plans)
        worst_poly = max(worst_poly, max(r["rel_residual"] for r in recs))

        ent3, ent2 = fl.suite("entire", 3), fl.suite("entire", 2)
        entire_suite = {
            "grad3d": [f for f in ent3 if f.value_dim == 1],
            "curl3d": [f for f in ent3 if f.value_dim == 3],
            "div3d": [f for f in ent3 if f.value_dim == 3],
            "grad2d": [f for f in ent2 if f.value_dim == 1],
            "curl2d": [f for f in ent2 if f.value_dim == 2],
        }
        recs = pj.check_commuting(p, entire_suite, plans)
        worst_entire = max(worst_entire, max(r["rel_residual"] for r in recs))
    ok = worst_poly <= 1e-9 and worst_entire <= 1e-7
    _verdict(capsys, 4, "commuting-diagrams", bool(ok),
             f"poly {worst_poly:.2e} entire {worst_entire:.2e}")


def test_criterion_05_poincare_identities(capsys):
    rng = np.random.default_rng(RNG_SEED + 2)
    rc3, rc2 = make_reference_cell(3).cell, make_reference_cell(2).cell
    worst = 0.0
    for p in (1, 2, 4, 6, 8):
        cell = rc3
        rd = pc.regularized_inverse(rc3, "div3d")
        rg = pc.regularized_inverse(rc3, "grad3d")
        rcu = pc.regularized_inverse(rc3, "curl3d")
        sc = ps.scalar_space(cell, p)
        for u in sc.random_elements(4, rng):
            osp, o = rd.apply(sc, u)
            dv = ca.diff_slots("div", osp, o)
            worst = max(worst, np.abs(
                dv - ps.pad_slots(u, cell, 1, p, osp.degree)).max()
                / max(np.abs(u).max(), 1.0))
        scp = ps.scalar_space(cell, p + 1)
        for phi in scp.random_elements(4, rng):
            g = ca.diff_rows("grad", ps.PolySpace(cell, 1, p + 1,
                                                  phi[None, :]))[0]
            osp, o = rg.apply(ps.vector_space(cell, p + 1, 3), g)
            gg = ca.diff_slots("grad", osp, o)
            worst = max(worst, np.abs(
                gg - ps.pad_slots(g, cell, 3, p + 1, osp.degree)).max()
                / max(np.abs(g).max(), 1.0))
        Q = ps.build_space(rc3, "hcurl", p)
        V = ps.build_space(rc3, "hdiv", p)
        cmat = ca.diff_op("curl3d", Q, V)
        for c in Q.random_elements(4, rng):
            w = ((Q.basis @ c) @ cmat) @ V.basis
            osp, o = rcu.apply(ps.vector_space(cell, p + 1, 3), w)
            cw = ca.diff_slots("curl3d", osp, o)
            worst = max(worst, np.abs(
                cw - ps.pad_slots(w, cell, 3, p + 1, osp.degree)).max()
                / max(np.abs(w).max(), 1.0))
        # polynomial preservation (memberships)
        W = ps.build_space(rc3, "h1", p)
        for rows, inv, tgt, din in (
            (Q.basis, rg, W, p + 1),
            (V.basis, rcu, Q, p + 1),
            (ps.scalar_space(cell, p).basis, rd, V, p),
        ):
            img = rows @ inv.matrix(din)
            _, resid = ca._expand_in(tgt, img, cell, inv.out_vdim, din + 1)
            worst = max(worst, resid)
        # 2D analogs, including the rotated kernel
        rg2 = pc.regularized_inverse(rc2, "grad2d")
        rcu2 = pc.regularized_inverse(rc2, "curl2d")
        sc2 = ps.scalar_space(rc2, p)
        for u in sc2.random_elements(3, rng):
            osp, o = rcu2.apply(sc2, u)
            cr = ca.diff_slots("curl2d_vector", osp, o)
            worst = max(worst, np.abs(
                cr - ps.pad_slots(u, rc2, 1, p, osp.degree)).max()
                / max(np.abs(u).max(), 1.0))
        Q2 = ps.build_space(rc2, "hcurl", p)
        W2 = ps.build_space(rc2, "h1", p)
        img = Q2.basis @ rg2.matrix(p + 1)
        _, resid = ca._expand_in(W2, img, rc2, 1, p + 2)
        worst = max(worst, resid)
        img = sc2.basis @ rcu2.matrix(p)
        _, resid = ca._expand_in(Q2, img, rc2, 2, p + 1)
        worst = max(worst, resid)
    ok = worst <= 1e-10
    _verdict(capsys, 5, "poincare-identities", bool(ok), f"worst {worst:.2e}")


def test_criterion_06_helmholtz_reconstruction(capsys):
    rng = np.random.default_rng(RNG_SEED + 3)
    rc3 = make_reference_cell(3).cell
    worst = 0.0
    for p in (2, 4, 6):
        vs = ps.vector_space(rc3, p, 3)
        for u in vs.random_elements(4, rng):
            *_, res = pc.helmholtz_curl(rc3, vs, u)
            worst = max(worst, res)
            *_, res = pc.helmholtz_div(rc3, vs, u)
            worst = max(worst, res)
    ok = worst <= 1e-9
    _verdict(capsys, 6, "helmholtz-reconstruction", bool(ok), f"worst {worst:.2e}")


def test_criterion_07_friedrichs_stability(capsys):
    ok = True
    details = []
    for case in spc.FRIEDRICHS_CASES:
        vals = []
        for p in range(1, 9):
            C, _, dim = spc.friedrichs_constant(case, p)
            if dim:
                ok &= C > 0 and np.isfinite(C)
                vals.append(C)
        ratio = max(vals) / min(vals)
        ok &= ratio <= 2.0
        details.append(f"{case}:{ratio:.3f}")
    _verdict(capsys, 7, "friedrichs-p-stability", bool(ok), " ".join(details))


@pytest.fixture(scope="module")
def rate_records():
    cfg = st.StudyConfig(
        operators=("grad3d", "curl3d", "div3d"),
        p_min=2,
        p_max=10,
        suite="entire",
        s_values=(0.0,),
        dual_offset=6,
        seed=RNG_SEED,
    )
    records, slopes = st.run_convergence(cfg)
    cfg_dual = st.StudyConfig(
        operators=("grad3d",),
        p_min=2,
        p_max=10,
        suite="entire",
        s_values=(1.0,),
        dual_offset=6,
        seed=RNG_SEED,
    )
    records_dual, _ = st.run_convergence(cfg_dual)
    return records, slopes, records_dual


def test_criterion_08_rate_ratios(rate_records, capsys):
    records, slopes, records_dual = rate_records
    # (a) ratio to the best-approximation denominator stays below 10 on [2,10]
    primal = [r for r in records
              if r.norm_id in ("H1", "Hgraph") and np.isfinite(r.ratio)]
    max_ratio = max(r.ratio for r in primal)
    ok_a = max_ratio <= 10.0 and len({r.p for r in primal}) == 9

    # (b) fitted slope of the edge-element ratio at s=0 is at most -0.5
    curl_slopes = [s["slope"] for s in slopes
                   if s["operator"] == "curl3d" and s["norm"] == "Hgraph"]
    ok_b = bool(curl_slopes) and max(curl_slopes) <= -0.5

    # (c) dual-norm gap of the scalar operator: slope and P-stability
    h1 = {(r.field, r.p): r.error for r in records
          if r.operator == "grad3d" and r.norm_id == "H1"}
    ok_c = True
    gap_slopes = []
    for fname in sorted({r.field for r in records_dual}):
        rows = sorted(
            [r for r in records_dual
             if r.field == fname and r.norm_id == "grad_dual"],
            key=lambda r: r.p,
        )
        gaps = [(r.p, r.error / h1[(fname, r.p)]) for r in rows
                if h1[(fname, r.p)] > 0]
        upper = [(p, g) for p, g in gaps if p >= 6]
        x = np.log([p for p, _ in upper])
        y = np.log([g for _, g in upper])
        slope = float(np.polyfit(x, y, 1)[0])
        gap_slopes.append(slope)
        ok_c &= slope <= -0.5
        ok_c &= all(r.pstab <= 0.05 for r in rows)
    ok = ok_a and ok_b and ok_c
    _verdict(
        capsys, 8, "rate-ratios",
        bool(ok),
        f"max ratio {max_ratio:.2f}; curl slope {max(curl_slopes):.2f}; "
        f"gap slopes {['%.2f' % s for s in gap_slopes]}",
    )


def test_criterion_09_interval_operator(capsys):
    from dataclasses import dataclass

    @dataclass
    class GQ:
        points: np.ndarray
        weights: np.ndarray

    pts, w = graded_interval_rule()
    gq = GQ(pts[:, None], w)
    rc1 = make_reference_cell(1).cell
    worst_end = 0.0
    worst_ratio = 0.0
    for f in fl.suite("mixed", 1):
        # H1 scale of the field, for the measurement floor
        du = f.jet(gq.points, (1,))
        scale = float(np.sqrt(np.sum(w * (np.asarray(f(gq.points)) ** 2
                                          + du**2))))
        for p in range(2, 17, 2):
            plan = pj.ProjectorPlan("grad1d", p)
            slots = plan.apply(f)
            ends = rc1.vertices
            worst_end = max(
                worst_end,
                np.abs(plan.target.evaluate(slots, ends) - f(ends)).max(),
            )
            table = plan.target.cell.tabulate(plan.target.degree, gq.points)
            jets = sb.field_jets(plan.target, f, gq, "H1full")
            err = sb.error_in_norm(
                gq, sb.error_parts(plan.target, jets, slots, table))
            [(_, den)] = sb.best_approx(plan.target, [f], "H1full", gq, table)
            if err <= 1e-11 * scale:
                continue  # both sides converged to the roundoff floor
            worst_ratio = max(worst_ratio, err / den)
    ok = worst_end <= 1e-12 and worst_ratio <= 5.0
    _verdict(capsys, 9, "interval-operator", bool(ok),
             f"endpoint {worst_end:.2e} ratio {worst_ratio:.2f}")


def test_criterion_10_determinism(tmp_path, capsys):
    pairs = []
    va = tmp_path / "v1.json"
    vb = tmp_path / "v2.json"
    for out in (va, vb):
        assert cli.main(["verify", "--p-max", "2", "--seed", "7",
                         "--format", "json", "--out", str(out)]) == 0
    pairs.append(va.read_bytes() == vb.read_bytes())
    ca_, cb_ = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for out in (ca_, cb_):
        assert cli.main(
            ["convergence", "--operator", "grad1d", "--operator", "curl2d",
             "--p-min", "2", "--p-max", "5", "--suite", "entire", "--s", "0",
             "--seed", "7", "--format", "csv", "--out", str(out)]
        ) == 0
    pairs.append(ca_.read_bytes() == cb_.read_bytes())
    ok = all(pairs)
    _verdict(capsys, 10, "determinism", bool(ok))
