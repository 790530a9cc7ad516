"""Correctness checks of workload outputs; each returns (attempted, failed).

rate_sweep: every record (one operation) must be finite and match the
reference stored in reference/rate_sweep.json. Errors and denominators may
differ from the reference by RTOL relative plus ATOL absolute. ATOL sits at
the roundoff floor of these O(1) fields, so moving a floor-level value, such
as a stable solve taking a 4.2e-10 denominator to 1.2e-11, passes, while a
wrong value above the floor fails. The ratio must lie in the interval that
err/den spans over those tolerances; near a floor that interval is wide.

verify: every report section with an `ok` flag is one operation, and the
sections the report has at the parent commit must all be present.
"""

import math

RTOL = 1e-6
ATOL = 1e-9

RECORD_KEY = ("operator", "field", "s", "norm", "p")

VERIFY_SECTIONS = ("dims", "sequences", "integration_by_parts", "projection",
                   "commuting", "poincare", "liftings", "friedrichs")


def record_key(row):
    return tuple(row[k] for k in RECORD_KEY)


def _close(value, ref):
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def _ratio_ok(row, ref):
    err_tol = RTOL * abs(ref["error"]) + ATOL
    den_tol = RTOL * abs(ref["denominator"]) + ATOL
    den_lo = ref["denominator"] - den_tol
    if den_lo <= 0:
        return True  # denominator at the floor: any finite ratio
    lo = (ref["error"] - err_tol) / (ref["denominator"] + den_tol)
    hi = (ref["error"] + err_tol) / den_lo
    return lo <= row["ratio"] <= hi


def record_ok(row, ref):
    values = (row["error"], row["denominator"], row["ratio"])
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return False
    return (_close(row["error"], ref["error"])
            and _close(row["denominator"], ref["denominator"])
            and _ratio_ok(row, ref))


def check_rate_sweep(output, reference):
    rows = {record_key(r): r for r in output["records"]}
    refs = {record_key(r): r for r in reference["records"]}
    keys = rows.keys() | refs.keys()
    failed = sum(
        1 for k in keys
        if k not in rows or k not in refs or not record_ok(rows[k], refs[k])
    )
    return len(keys), failed


def check_verify(output):
    sections = output["report"]["sections"]
    attempted = failed = 0
    for name in VERIFY_SECTIONS:
        if name not in sections:
            attempted += 1
            failed += 1
    for sec in sections.values():
        if "ok" in sec:
            attempted += 1
            failed += sec["ok"] is not True
    return attempted, failed


def fingerprint(output):
    """Informational only: fitted slopes and the largest primal ratio."""
    primal = [r["ratio"] for r in output["records"]
              if r["norm"] in ("H1", "Hgraph") and math.isfinite(r["ratio"])]
    return {
        "max_primal_ratio": max(primal) if primal else None,
        "slopes": {f"{s['operator']}/{s['field']}/s={s['s']:g}/{s['norm']}":
                   s["slope"] for s in output["slopes"]},
    }
