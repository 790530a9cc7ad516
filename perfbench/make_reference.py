"""Write reference/rate_sweep.json from one cold rate_sweep unit.

Run from the repository root, on a commit whose rate-sweep numbers are
trusted: python3 perfbench/make_reference.py
"""

import json
import time

import run


def main():
    run.OUT.mkdir(exist_ok=True)
    spec = {"workload": "rate_sweep",
            "inputs": run.workload_inputs("rate_sweep", 0),
            "trace": False, "setup_only": False}
    result = run.run_unit(spec, run.OUT / "reference_unit.json",
                          time.monotonic() + run.DEADLINE_S)
    records = [{k: r[k] for k in ("operator", "field", "s", "norm", "p",
                                  "error", "denominator", "ratio")}
               for r in result["output"]["records"]]
    run.REFERENCE.parent.mkdir(exist_ok=True)
    with open(run.REFERENCE, "w") as fh:
        env = {k: v for k, v in result["env"].items() if k != "exseq_file"}
        json.dump({"env": env, "records": records}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
