"""exseq benchmark: cold workloads through the public API, measured from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 60 --trace 0

Each unit of work runs in a fresh worker process (worker.py), so every unit
is cold: no in-process cache or disk cache (EXSEQ_CACHE_DIR is removed from
the worker's environment) survives from an earlier unit. Workers see one
BLAS thread and import exseq from this checkout's src/ only.

--trace 0: a few set-up-only workers time set-up; then whole units run one
after another (closed loop, one client) until another unit would end past
--seconds, and at least one runs. Prints setup_s, wall_s and peak_rss_mb.

--trace 1: one untraced unit, then one unit under the outside-in tracer
(tracer.py). Prints the per-layer metrics named in BENCHMARK.json, including
the tracing overhead between the two.

Every unit's outputs are checked (checks.py). The full record, with the
environment, goes to perfbench/out/; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference" / "rate_sweep.json"

WORKLOADS = ("rate_sweep", "verify")
SETUP_PROBES = 5
DEADLINE_S = 170.0
# criterion 08's fixture passes this seed; run_convergence does not use it
GATE_SEED = 424242


class UnitFailed(RuntimeError):
    pass


def workload_inputs(workload, seed):
    """The generated inputs of one unit; the worker receives only these."""
    if workload == "rate_sweep":
        # the acceptance gate's criterion-08 sweep, fixed: the seed is unused
        base = {"p_min": 2, "p_max": 10, "suite": "entire", "dual_offset": 6,
                "seed": GATE_SEED}
        return {"configs": [
            dict(base, operators=["grad3d", "curl3d", "div3d"], s_values=[0.0]),
            dict(base, operators=["grad3d"], s_values=[1.0]),
        ]}
    if workload == "verify":
        return {"p_max": 8, "seed": random.Random(seed).randrange(2**31)}
    raise ValueError(f"unknown workload {workload!r}")


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "EXSEQ_CACHE_DIR"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


def run_unit(spec, result_path, deadline):
    """Run one worker to completion; returns its result with setup_s added."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(result_path),
         json.dumps(spec)],
        env=child_env(), stdin=subprocess.DEVNULL, stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise UnitFailed(f"worker exited with code {code}")
    with open(result_path) as fh:
        result = json.load(fh)
    exseq_file = Path(result["env"]["exseq_file"]).resolve()
    if SRC.resolve() not in exseq_file.parents:
        raise UnitFailed(f"worker imported exseq from {exseq_file}, not {SRC}")
    result["setup_s"] = result["t_ready"] - t_spawn
    result["unit_s"] = time.monotonic() - t_spawn
    return result


def check_unit(workload, result, reference):
    if workload == "rate_sweep":
        return checks.check_rate_sweep(result["output"], reference)
    return checks.check_verify(result["output"])


def host_environment():
    sources = sorted((SRC / "exseq").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "exseq_cache_dir_set_in_caller": "EXSEQ_CACHE_DIR" in os.environ,
    }


def self_time_table(layers, wall_s, top=25):
    """Lines of the largest self times, ending with the untraced remainder."""
    rows = sorted(((k[:-len(".self_s")], v) for k, v in layers.items()
                   if k.endswith(".self_s") and k != "untraced.self_s"
                   and k != "studies.self_s"),
                  key=lambda kv: -kv[1])
    lines = [f"{'layer':52s} {'calls':>8s} {'self_s':>9s} {'share':>6s}"]
    for name, value in rows[:top]:
        calls = layers.get(f"{name}.calls", 0)
        lines.append(f"{name:52s} {calls:8d} {value:9.3f} {value / wall_s:6.1%}")
    rest = sum(v for _, v in rows[top:])
    lines.append(f"{'(other spans)':52s} {'':8s} {rest:9.3f} {rest / wall_s:6.1%}")
    untraced = layers["untraced.self_s"]
    lines.append(f"{'(untraced remainder)':52s} {'':8s} {untraced:9.3f} "
                 f"{untraced / wall_s:6.1%}")
    return lines


def measure(workload, seed, seconds, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    reference = json.loads(REFERENCE.read_text())
    tag = f"{workload}_seed{seed}_trace{int(trace)}"
    spec = {"workload": workload, "inputs": workload_inputs(workload, seed),
            "trace": False, "setup_only": False}
    deadline = time.monotonic() + DEADLINE_S
    paths = (OUT / f"{tag}_unit{i}.json" for i in itertools.count())

    probes, units = [], []
    if trace:
        units.append(run_unit(spec, next(paths), deadline))
        units.append(run_unit(dict(spec, trace=True), next(paths), deadline))
    else:
        probes = [run_unit(dict(spec, setup_only=True), next(paths), deadline)
                  for _ in range(SETUP_PROBES)]
        t_loop = time.monotonic()
        while True:
            units.append(run_unit(spec, next(paths), deadline))
            typical = statistics.median(u["unit_s"] for u in units)
            if time.monotonic() - t_loop + typical > seconds:
                break

    attempted = failed = 0
    for unit in units:
        a, f = check_unit(workload, unit, reference)
        attempted, failed = attempted + a, failed + f

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "inputs": spec["inputs"],
        "env": dict(host_environment(), **units[0]["env"]),
        "setup_samples_s": [u["setup_s"] for u in probes + units],
        "units": [{k: u[k] for k in ("setup_s", "wall_s", "cpu_s",
                                     "peak_rss_mb", "unit_s")} for u in units],
        "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
    }
    if workload == "rate_sweep":
        record["fingerprint"] = checks.fingerprint(units[0]["output"])

    if trace:
        plain, traced = units
        layers = dict(traced["layers"])
        layers["process.cpu_s"] = plain["cpu_s"]
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        record["layers"] = layers
        record["self_time_table"] = self_time_table(layers, traced["wall_s"])
        values = {m["name"]: layers.get(m["name"], 0) for m in bench["per_layer"]}
        units_of = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(record["setup_samples_s"]),
            "wall_s": statistics.median(u["wall_s"] for u in units),
            "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
        }
        units_of = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units_of.items()}
    record["metrics"] = metrics
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exseq" / "__init__.py").is_file():
        print(f"error: no exseq sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (UnitFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in record.get("self_time_table", ()):
        print(line, file=sys.stderr)
    print(f"ops_failed_frac {record['ops_failed_frac']:.4g} "
          f"({record['failed']}/{record['attempted']})", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
