"""One fresh interpreter: set-up, then optionally one timed workload pass.

    python3 perfbench/worker.py WORKLOAD SEED MODE [OUT_JSON [VERIFY_SHA256]]

MODE is setup, plain or traced. The worker imports fplab, builds the
workload inputs from the seed and prints 'ready N', N being the operations
of one pass (run.py times set-up up to that line). In `setup` mode it
then exits. Otherwise it runs one pass, untraced or traced, and writes the
pass record (wall and CPU time, operation counts, gate values, and for a
traced pass the per-layer metrics, counts, problem sizes and spans) to
OUT_JSON. VERIFY_SHA256 is the report digest of the invocation's first
`verify` pass, which later passes must reproduce. Peak memory is read by
run.py from the exited process.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402  (imports fplab)


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if readable."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Environment stamp; the source line counts are informational only."""
    import numpy
    import scipy

    lines = {
        p.name: sum(1 for _ in p.open(encoding="utf-8"))
        for p in sorted((SRC / "fplab").glob("*.py"))
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def timed_pass(inputs, tracer=None, verify_reference=None):
    if tracer is not None:
        tracer.install()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        result = workloads.run_pass(
            inputs,
            log=lambda msg: print(msg, file=sys.stderr),
            verify_reference=verify_reference,
        )
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall": wall,
        "cpu": cpu,
        "attempted": result.attempted,
        "failed": result.failed,
        "gates": result.gate_values(),
        "bytes_written": result.bytes_written,
        "env": environment(),
    }, result


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    inputs = workloads.make_inputs(workload, seed)
    print(f"ready {workloads.OPERATIONS[workload]}", flush=True)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(f"{workload}-seed{seed}-{os.getpid()}")
    reference = argv[4] if len(argv) > 4 else None
    record, result = timed_pass(inputs, tracer, reference)
    if tracer is not None:
        import layers

        record.update(
            run_id=tracer.run_id,
            metrics=layers.per_layer_metrics(tracer, result),
            counts=tracer.counts(),
            problem_size=layers.problem_size(tracer),
            factorizations=tracer.factorizations,
            spans=tracer.span_records(),
        )
    Path(argv[3]).write_text(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
