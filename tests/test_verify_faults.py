"""Every check of `exseq verify` can fail: a fault planted at about ten
times a check's threshold turns its section's `ok` False, and one at about
a tenth leaves it True. The thresholds are written out here, not read from
the package, so that a loosened threshold does not scale the planted fault
with it."""

import dataclasses

import numpy as np
import pytest

from exseq import calculus as ca
from exseq import polyspace as ps
from exseq import projectors as pj
from exseq import spectra as spc
from exseq import studies as st
from exseq.refsimplex import make_reference_cell

COMPLEX_RESIDUAL = 1e-12
GREEN_RESIDUAL = 1e-10
PROJECTION_ERROR = 1e-9
COMMUTING_RESIDUAL = 1e-9
LIFTING = {"trace_residual": 1e-10, "orthogonality_residual": 1e-10,
           "multiplier_norm": 1e-9}
FRIEDRICHS_RATIO = 2.0
SEQUENCE_TOL = 1e-8  # check_exact_sequence's rank tolerance and distance
SVD_CUTOFF = 1e-10  # the relative rank cutoff of a span's rows

SCALES = [(10.0, False), (0.1, True)]


def _shifted(monkeypatch, module, name, fault):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + fault)


def _commuting_shifted(monkeypatch, fault):
    real = pj.check_commuting

    def planted(*args):
        return [{**row, "rel_residual": row["rel_residual"] + fault}
                for row in real(*args)]

    monkeypatch.setattr(pj, "check_commuting", planted)


def _green_shifted(derivative):
    def plant(monkeypatch, fault):
        real = ca.green_residual

        def planted(name, *args):
            return real(name, *args) + (fault if name == derivative else 0.0)

        monkeypatch.setattr(ca, "green_residual", planted)

    return plant


# case: (section, plant the fault, threshold, the reported value it moves)
CASES = {
    "sequences": ("sequences", lambda mp, f: _shifted(
        mp, ca, "complex_property_residual", f), COMPLEX_RESIDUAL,
        lambda sec: sec["complex_residual"]),
    "green_3d": ("integration_by_parts", _green_shifted("curl3d"),
                 GREEN_RESIDUAL, lambda sec: sec["residual_3d"]),
    "green_2d": ("integration_by_parts", _green_shifted("curl2d_scalar"),
                 GREEN_RESIDUAL, lambda sec: sec["residual_2d"]),
    "projection": ("projection", lambda mp, f: _shifted(
        mp, pj, "projection_error", f), PROJECTION_ERROR,
        lambda sec: max(sec["worst"].values())),
    "commuting": ("commuting", _commuting_shifted, COMMUTING_RESIDUAL,
                  lambda sec: sec["worst"]),
}


@pytest.mark.parametrize("scale, ok", SCALES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_section_fails_on_a_planted_fault(case, scale, ok, monkeypatch):
    section, plant, threshold, value = CASES[case]
    plant(monkeypatch, scale * threshold)
    report = st.run_verification(1, 0)
    sec = report["sections"][section]
    assert sec["ok"] is ok and report["ok"] is ok
    assert (value(sec) > threshold) is not ok


@pytest.mark.parametrize("scale, ok", SCALES)
@pytest.mark.parametrize("name", ["discrete_lifting_curl",
                                  "discrete_lifting_div"])
@pytest.mark.parametrize("residual", sorted(LIFTING))
def test_lifting_fails_on_a_planted_residual(name, residual, scale, ok,
                                              monkeypatch):
    real = getattr(spc, name)

    def planted(*args):
        res = real(*args)
        return dataclasses.replace(res, **{
            residual: getattr(res, residual) + scale * LIFTING[residual]})

    monkeypatch.setattr(spc, name, planted)
    report = st.run_verification(1, 0)
    assert report["sections"]["liftings"]["ok"] is ok and report["ok"] is ok


@pytest.mark.parametrize("scale, ok", SCALES)
def test_friedrichs_fails_on_a_growing_constant(scale, ok, monkeypatch):
    # every case's constants after its first grow by the factor 1 + g; the
    # check allows the growth FRIEDRICHS_RATIO - 1
    growth = scale * (FRIEDRICHS_RATIO - 1.0)
    real = spc.friedrichs_rows

    def planted(p_min, p_max):
        first = {}
        for row in real(p_min, p_max):
            c = first.setdefault(row["case"], row["constant"])
            if row["p"] > p_min:
                row = {**row, "constant": c * (1.0 + growth)}
            yield row

    monkeypatch.setattr(spc, "friedrichs_rows", planted)
    sec = st.run_verification(2, 0)["sections"]["friedrichs"]
    assert sec["ok"] is ok
    ratios = [c["ratio"] for c in sec["cases"] if len(c["constants"]) > 1]
    assert ratios and all(r == pytest.approx(1.0 + growth) for r in ratios)


# ---------------------------------------------------------------------------
# the labels of calculus.check_exact_sequence

def _with_singular_value(A, value):
    """A with its smallest singular value replaced by `value`."""
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    s[-1] = value
    return (u * s) @ vt


def _plant_arrow(monkeypatch, derivative, dim, value):
    real = ca.diff_op

    def planted(name, source, target):
        A = real(name, source, target)
        if name == derivative and source.cell.dim == dim:
            A = _with_singular_value(A, value)
        return A

    monkeypatch.setattr(ca, "diff_op", planted)


def _plant_distance(monkeypatch, value):
    _shifted(monkeypatch, ca, "subspace_distance", value)


def _plant_dropped_image(monkeypatch, dim, value):
    # the curl image's last direction shrunk to `value` relative to the
    # others: below the rank cutoff it drops out of the span
    real = ca.bubble_images

    def planted(cell, slot, p):
        rows = real(cell, slot, p)
        if slot == 1 and cell.dim == dim:
            scale = np.ones(len(rows))
            scale[-1] = value
            rows = ps.span_from_rows(rows * scale[:, None])
        return rows

    monkeypatch.setattr(ca, "bubble_images", planted)


# label: (plant the fault at a size, the size that fails, the size that
# passes); a rank check fails when a zero singular value grows past the
# tolerance, or a nonzero one drops below it
LABELS = {
    "3d.grad.kernel": (lambda mp, v: _plant_arrow(mp, "grad", 3, v),
                       10 * SEQUENCE_TOL, 0.1 * SEQUENCE_TOL),
    "3d.div_onto_l2": (lambda mp, v: _plant_arrow(mp, "div", 3, v),
                       0.1 * SEQUENCE_TOL, 10 * SEQUENCE_TOL),
    "2d.curl_onto_l2": (lambda mp, v: _plant_arrow(mp, "curl2d_vector", 2, v),
                        0.1 * SEQUENCE_TOL, 10 * SEQUENCE_TOL),
    "3d.bubble.dim_split": (lambda mp, v: _plant_dropped_image(mp, 3, v),
                            0.1 * SVD_CUTOFF, 10 * SVD_CUTOFF),
    "2d.bubble.dim_split": (lambda mp, v: _plant_dropped_image(mp, 2, v),
                            0.1 * SVD_CUTOFF, 10 * SVD_CUTOFF),
    **{label: (_plant_distance, 10 * SEQUENCE_TOL, 0.1 * SEQUENCE_TOL)
       for label in ("3d.ker_curl_eq_range_grad", "3d.ker_div_eq_range_curl",
                     "2d.ker_curl_eq_range_grad",
                     "3d.bubble.div_onto_zero_mean",
                     "2d.bubble.curl_eq_zero_mean",
                     "1d.bubble.grad_eq_zero_mean")},
}


def _sequence_report(p):
    tet, tri, interval = (make_reference_cell(d).cell for d in (3, 2, 1))
    return ca.check_exact_sequence(p, tet, tri, interval)


def test_every_sequence_label_has_a_planted_fault():
    assert sorted(c["label"] for c in _sequence_report(2)["checks"]) == \
        sorted(LABELS)


@pytest.mark.parametrize("fails", [True, False])
@pytest.mark.parametrize("label", sorted(LABELS))
def test_sequence_check_fails_on_a_planted_fault(label, fails, monkeypatch):
    plant, failing, passing = LABELS[label]
    plant(monkeypatch, failing if fails else passing)
    report = _sequence_report(2)
    verdicts = {c["label"]: c["ok"] for c in report["checks"]}
    assert verdicts[label] is not fails
    # an arrow left with a singular value near the tolerance is ill
    # conditioned, which can move a neighbouring check's kernel: only a
    # failing label must fail the report
    assert report["ok"] is False or not fails
