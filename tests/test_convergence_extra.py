import numpy as np
import sympy as sp

import oracles
from exseq import calculus as ca
from exseq import fields as fl
from exseq import polyspace as ps
from exseq import projectors as pj
from exseq import studies as st
from exseq.refsimplex import make_reference_cell, quadrature


def test_2d_operators_quasi_optimal():
    cfg = st.StudyConfig(operators=("curl2d", "grad2d"), p_min=2, p_max=6,
                         suite="entire", s_values=(0.0,), dual_offset=6,
                         seed=0)
    records, slopes = st.run_convergence(cfg)
    prim = [r for r in records if r.norm_id in ("H1", "Hgraph")]
    assert all(np.isfinite(r.ratio) and r.ratio <= 10 for r in prim)
    errs = {}
    for r in prim:
        errs.setdefault((r.operator, r.field), []).append((r.p, r.error))
    for rows in errs.values():
        rows.sort()
        assert rows[-1][1] < rows[0][1] * 1e-3  # strong decay by p=6


def test_fractional_error_norm_sandwich():
    cfg = st.StudyConfig(operators=("grad3d",), p_min=3, p_max=3,
                         suite="entire", s_values=(0.0, 0.5, 1.0),
                         dual_offset=6, seed=0)
    records, _ = st.run_convergence(cfg)
    vals = {}
    for r in records:
        if r.field == "exp_sum" and r.norm_id in ("H1", "H0.5", "L2"):
            vals[r.norm_id] = r.error
    assert vals["L2"] <= vals["H0.5"] <= vals["H1"]


def test_split_error_oracle_polynomial_curl_part():
    # when the rotational part of the input already lies in the target
    # space, the interpolation error is carried by the potential part alone
    p = 3
    rc3 = make_reference_cell(3).cell
    rng = np.random.default_rng(12)
    Q = ps.build_space(rc3, "hcurl", p)
    w_slots = Q.random_elements(1, rng)[0]
    w = fl.polynomial_fields()("w", ps.vector_space(rc3, p + 1, 3), w_slots)
    x, y, z = sp.symbols("x y z")
    phi = oracles.from_sympy("phi", sp.exp(x / 2 + y / 3 + z / 5), 3)
    gphi = ca.DERIVATIVES["grad"].field(phi)
    u = oracles.shifted(gphi, w)
    plan = pj.ProjectorPlan("curl3d", p)
    err_u = plan.apply(u) - _exactify(plan, u)
    err_g = plan.apply(gphi) - _exactify(plan, gphi)
    # the two error fields coincide: the polynomial part reproduces
    assert np.abs(err_u - err_g).max() < 1e-9 * max(np.abs(err_g).max(), 1.0)


def _exactify(plan, field):
    """High-degree reference coefficients of a smooth field, for comparing
    interpolation errors in coefficient space."""
    cell = plan.target.cell
    deg = plan.target.degree
    q = quadrature(cell, min(2 * deg + 14, 40))
    V = cell.tabulate(deg, q.points)
    vals = np.asarray(field(q.points))
    return np.concatenate([(V * q.weights) @ vals[:, c] for c in range(3)])
