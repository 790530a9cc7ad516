"""What the rate-sweep gate reads, pinned: the honest records of both gate
sweeps against the committed reference, and the slope fit's window."""

import json
from pathlib import Path

import numpy as np
import pytest

from exseq import studies as st

REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
             / "rate_sweep.json")

# every error and denominator at p <= 6 is at least 8.5e-11. The worst move
# from the reference, at one and at two BLAS threads, is 3.7e-16 absolute
# (the grad3d exp_sum s = 1 L2 error at p = 6, 8.4555e-11), 2.9e-16 above
# RTOL; ATOL sits 7 times above that
RTOL = 1e-6
ATOL = 2e-15
GATE_SWEEPS = ((("grad3d", "curl3d", "div3d"), 0.0), (("grad3d",), 1.0))


def _key(row):
    return row["operator"], row["field"], row["s"], row["norm"], row["p"]


@pytest.fixture(scope="module")
def honest_rows():
    rows = []
    for operators, s in GATE_SWEEPS:
        records, _ = st.run_convergence(st.StudyConfig(
            operators=operators, p_min=2, p_max=6, suite="entire",
            s_values=(s,), dual_offset=6))
        rows += st.records_to_rows(records)
    return {_key(r): r for r in rows}


def test_gate_records_match_the_reference_up_to_p6(honest_rows):
    reference = {_key(r): r for r in json.loads(REFERENCE.read_text())[
        "records"] if r["p"] <= 6}
    assert honest_rows.keys() == reference.keys()
    moved = [(key, name, row[name], reference[key][name])
             for key, row in sorted(honest_rows.items())
             for name in ("error", "denominator")
             if abs(row[name] - reference[key][name])
             > RTOL * abs(reference[key][name]) + ATOL]
    assert moved == []


def _synthetic(ratio_of_p, p_min, p_max):
    return [st.StudyRecord("grad3d", p, "f", 0.0, "H1", ratio_of_p(p), 1.0,
                           ratio_of_p(p)) for p in range(p_min, p_max + 1)]


def test_slope_is_fitted_on_the_upper_half_of_the_range():
    # ratios p^-3 from p = 6 on and anything below: the fit on [2, 10]
    # starts at (2 + 10) // 2 = 6 and reads -3
    cfg = st.StudyConfig(operators=("grad3d",), p_min=2, p_max=10)
    records = _synthetic(lambda p: p**-3.0 if p >= 6 else 10.0 * p, 2, 10)
    [fit] = st.fit_slopes(records, cfg)
    assert fit["slope"] == pytest.approx(-3.0, rel=0, abs=1e-12)


@pytest.mark.parametrize("p_min, p_max", [(2, 10), (4, 8), (3, 9), (1, 5)])
def test_slope_window_follows_the_degree_range(p_min, p_max):
    # a clean p^-3 from the window's start on, p^+2 below it
    start = (p_min + p_max) // 2
    cfg = st.StudyConfig(operators=("grad3d",), p_min=p_min, p_max=p_max)
    records = _synthetic(lambda p: p**-3.0 if p >= start else p**2.0,
                         p_min, p_max)
    [fit] = st.fit_slopes(records, cfg)
    assert fit["slope"] == pytest.approx(-3.0, rel=0, abs=1e-12)
    # the window holds p = start too: breaking the law there moves the fit
    records = _synthetic(lambda p: p**-3.0 if p > start else p**2.0,
                         p_min, p_max)
    [fit] = st.fit_slopes(records, cfg)
    assert abs(fit["slope"] + 3.0) > 1e-3
