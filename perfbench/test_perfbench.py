"""Tests of the benchmark's own code: tracer, checks and inputs.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


def test_install_leaves_no_unwrapped_alias():
    tracer = tracing.Tracer()
    originals = tracer.install()
    try:
        modules = tracing.exseq_modules()
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                assert not (callable(obj) and obj in originals), \
                    f"exseq.{mod_name}.{attr} is still the unwrapped function"
        refsimplex = modules["refsimplex"]
        # bound by name in several modules: every binding is the wrapper
        assert modules["polyspace"].quadrature is refsimplex.quadrature
        assert modules["projectors"].make_reference_cell is \
            refsimplex.make_reference_cell
        cell = refsimplex.make_reference_cell(3).cell
        modules["polyspace"].quadrature(cell, 4)
    finally:
        tracer.uninstall()
    assert "refsimplex.quadrature" in tracer.names
    assert "refsimplex.make_reference_cell" in tracer.names
    assert not any(hasattr(obj, "__wrapped_by_tracer__")
                   for mod in tracing.exseq_modules().values()
                   for obj in vars(mod).values())


def test_self_time_subtracts_children_and_reports_remainder():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner())
    outer()
    stats = tracing.layer_stats(tracer, wall_s=12.0)
    assert stats["m.outer.self_s"] == 8.0
    assert stats["m.outer.incl_s"] == 10.0
    assert stats["m.inner.self_s"] == 2.0
    assert stats["m.inner.calls"] == 1
    assert stats["untraced.self_s"] == 2.0


def test_reference_passes_and_perturbations_fail(reference):
    output = {"records": copy.deepcopy(reference["records"]), "slopes": []}
    assert checks.check_rate_sweep(output, reference) == (108, 0)

    above_floor = max(output["records"], key=lambda r: r["error"])
    above_floor["error"] *= 1.001
    assert checks.check_rate_sweep(output, reference) == (108, 1)

    output = {"records": copy.deepcopy(reference["records"]), "slopes": []}
    output["records"][0]["ratio"] = math.nan
    output["records"].pop()
    assert checks.check_rate_sweep(output, reference) == (108, 2)


def test_floor_level_denominator_change_passes(reference):
    output = {"records": copy.deepcopy(reference["records"]), "slopes": []}
    at_floor = [r for r in output["records"] if r["denominator"] < 1e-9]
    assert at_floor
    for r in at_floor:  # a stabler solve lowering the floor, 4.2e-10 -> 1.2e-11
        r["denominator"] /= 35.0
        r["ratio"] = r["error"] / r["denominator"]
    assert checks.check_rate_sweep(output, reference) == (108, 0)


def test_injected_failure_raises_ops_failed_frac(monkeypatch, tmp_path):
    sections = {name: {"ok": True} for name in checks.VERIFY_SECTIONS}
    sections["poincare"]["ok"] = False

    def fake_unit(spec, result_path, deadline):
        return {"env": {}, "output": {"report": {"sections": sections}},
                "setup_s": 0.5, "wall_s": 1.0, "cpu_s": 1.0,
                "peak_rss_mb": 100.0, "unit_s": 1.5}

    monkeypatch.setattr(run, "run_unit", fake_unit)
    monkeypatch.setattr(run, "OUT", tmp_path)
    record = run.measure("verify", seed=1, seconds=0, trace=False)
    assert (record["attempted"], record["failed"]) == (8, 1)
    assert record["ops_failed_frac"] == 1 / 8
    assert set(record["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}


def test_seed_changes_verify_inputs_but_not_rate_sweep():
    assert run.workload_inputs("rate_sweep", 1) == run.workload_inputs("rate_sweep", 2)
    assert run.workload_inputs("verify", 1) != run.workload_inputs("verify", 2)
    assert run.workload_inputs("verify", 1) == run.workload_inputs("verify", 1)
