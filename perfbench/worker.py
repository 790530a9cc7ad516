"""One cold unit of a benchmark workload, in a fresh process.

Usage: python3 worker.py RESULT_PATH SPEC_JSON

SPEC_JSON holds the workload name, its generated inputs, whether to trace,
and whether to stop after set-up. The worker imports exseq, builds the
reference cells, notes the monotonic clock (the end of set-up), runs the
workload once and writes its outputs, timings and environment to
RESULT_PATH as JSON. `run.py` starts it and checks the outputs.
"""

import json
import os
import resource
import sys
import time


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs_dir, "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import platform

    import numpy as np
    import scipy
    import sympy

    import exseq

    blas = np.show_config("dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "exseq_cache_dir_unset": "EXSEQ_CACHE_DIR" not in os.environ,
        "exseq_file": exseq.__file__,
    }


def run_rate_sweep(inputs):
    from exseq import studies as st

    records, slopes = [], []
    for cfg in inputs["configs"]:
        cfg = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}
        recs, sl = st.run_convergence(st.StudyConfig(**cfg))
        records.extend(st.records_to_rows(recs))
        slopes.extend(sl)
    return {"records": records, "slopes": slopes}


def run_verify(inputs):
    from exseq import studies as st

    report = st.run_verification(p_max=inputs["p_max"], seed=inputs["seed"])
    return {"report": json.loads(st.format_report(report, "json"))}


WORKLOADS = {"rate_sweep": run_rate_sweep, "verify": run_verify}


def _cpu_s():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def main(argv):
    result_path, spec = argv[1], json.loads(argv[2])
    from exseq.refsimplex import make_reference_cell

    from exseq import studies  # noqa: F401  (the workload imports, as set-up)

    for dim in (1, 2, 3):
        make_reference_cell(dim)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "env": environment()}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        result["output"] = WORKLOADS[spec["workload"]](spec["inputs"])
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_stats(tracer, result["wall_s"])
            tracer.write_spans(os.path.splitext(result_path)[0] + "_spans.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)


if __name__ == "__main__":
    main(sys.argv)
