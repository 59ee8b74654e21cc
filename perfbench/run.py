"""fplab benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload {resolvent-3d,density-2d,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Every pass runs in a fresh interpreter (perfbench/worker.py), one after
the other, with BLAS threads capped at the CPU count.

--trace 0 measures the end-to-end metrics with tracing off. Set-up is
timed in fresh interpreters, then passes run back to back for at most S
seconds (at least one pass; another starts only if it should end in time):

    run_s        median wall time of one pass, first call into fplab to the
                 last report written and checked
    setup_s      median over fresh interpreters of the time until
                 `import fplab` and the workload inputs are ready
    cpu_s        median user+sys CPU time of one pass
    peak_rss_mb  peak resident memory of the pass processes over the run

Failed operations go to the `failed` and `attempted` fields of the result;
their ratio, with its base, is printed in the summary line. A pass still
running 170 s after the start is killed and, like a pass whose worker
dies, counts all its operations as failed while its time is still
reported. A `verify` pass must write the same report bytes as the first
pass of its invocation. --trace 1 runs
one untraced and one traced pass, prints the per-layer metrics, and writes
spans, counts, problem sizes and the tracing overhead to a sidecar file
under `.perfbench_out/`. The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("resolvent-3d", "density-2d", "verify")
SETUP_SAMPLES = 7
# an invocation must end within 180 s; a pass still running at this point
# after the start is killed and counted as failed
RUN_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads():
    """Cap the BLAS threads of every worker at the CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def _log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _spawn(workload: str, seed: int, mode: str, deadline: float, reference=None) -> dict:
    """Run one worker; return its set-up time, peak RSS and pass record.

    A worker still running at `deadline` (a time.monotonic() value) is
    killed. A pass that is killed or whose worker dies is returned as an
    aborted record in which every operation failed, with its wall time up
    to the end and the CPU time of the whole worker, so that it is measured
    and counted instead of crashing the run. A worker that does not get
    through set-up raises.
    """
    record_path = OUT / f"pass-{workload}-{os.getpid()}.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(record_path)]
    if reference is not None:
        cmd.append(reference)
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        end = time.perf_counter()
    finally:
        killer.cancel()
        proc.stdout.close()
    word, _, ops = line.partition(" ")
    if word != "ready":
        raise RuntimeError(f"worker {mode} exited {proc.returncode} during set-up")
    out = {"setup": ready - start, "rss_mb": usage.ru_maxrss / 1024.0}
    if mode == "setup":
        if proc.returncode != 0:
            raise RuntimeError(f"set-up worker exited {proc.returncode}")
        return out
    if killed or proc.returncode != 0:
        why = "was killed at the run limit" if killed else f"exited {proc.returncode}"
        _log(f"{mode} pass {why} after {end - ready:.1f} s; all its operations count as failed")
        record_path.unlink(missing_ok=True)
        out.update(wall=end - ready, cpu=usage.ru_utime + usage.ru_stime,
                   attempted=int(ops), failed=int(ops), gates={}, aborted=True)
        return out
    out.update(json.loads(record_path.read_text()))
    record_path.unlink()
    return out


def _verify_digest(record: dict):
    """The verify report digest of a pass, None for other workloads."""
    return record["gates"].get("cli.verify", {}).get("sha256")


def _spread(values) -> dict:
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def run_untraced(args, deadline) -> dict:
    # the first spawn may still write bytecode caches; it is not counted
    setup = [_spawn(args.workload, args.seed, "setup", deadline)["setup"]
             for _ in range(SETUP_SAMPLES + 1)][1:]
    passes = []
    reference = None
    start = time.perf_counter()
    while True:
        passes.append(_spawn(args.workload, args.seed, "plain", deadline, reference))
        if passes[-1].get("aborted"):
            break
        # later verify passes must reproduce the first pass's report bytes
        reference = reference or _verify_digest(passes[-1])
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within the run length
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    rss = [p["rss_mb"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "run_s": _spread(walls),
        "setup_s": _spread(setup),
        "cpu_s": _spread(cpus),
        "peak_rss_mb": _spread(rss),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "ops_failed_ratio": failed / attempted,
        "env": passes[0].get("env"),
    }
    _write_json(OUT / f"result-{args.workload}-seed{args.seed}.json", summary)
    print(f"summary: {json.dumps(summary, sort_keys=True)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "run_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(max(rss), "MB"),
        },
    }


def run_traced(args, deadline) -> dict:
    plain = _spawn(args.workload, args.seed, "plain", deadline)
    traced = _spawn(args.workload, args.seed, "traced", deadline, _verify_digest(plain))
    if plain.get("aborted") or traced.get("aborted"):
        raise RuntimeError("a pass was aborted; the traced run has no per-layer metrics")
    same_gates = plain["gates"] == traced["gates"]
    if not same_gates:
        _log("the traced pass produced other gate values than the untraced pass")
    overhead = traced["wall"] - plain["wall"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = dict(traced["metrics"])
    values.update({"trace.run_s": traced["wall"], "trace.overhead_s": overhead})
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    sidecar = dict(
        traced,
        workload=args.workload,
        seed=args.seed,
        untraced_run_s=plain["wall"],
        traced_run_s=traced["wall"],
        tracing_overhead_s=overhead,
        untraced_rss_mb=plain["rss_mb"],
        traced_rss_mb=traced["rss_mb"],
        same_gate_values=same_gates,
        notes=(
            "verify.<criterion>_s is measured by the benchmark's clock around each "
            "criterion; verify shares a cache of meshes, densities and forms across "
            "criteria, so the cost of building a shared entry lands on the first "
            "criterion that needs it."
        ),
    )
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    _write_json(path, sidecar)
    print(f"trace sidecar: {path.relative_to(ROOT)}")
    print(f"problem size: {json.dumps(traced['problem_size'], sort_keys=True)}")
    print(f"tracing overhead: {overhead:.3f} s on {plain['wall']:.3f} s untraced")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {
        "correct": failed == 0 and same_gates,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fplab" / "__init__.py").is_file():
        _log(f"fplab sources not found under {ROOT / 'src'}; run from a full checkout")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    _cap_blas_threads()
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    result = (run_traced if args.trace else run_untraced)(args, deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
