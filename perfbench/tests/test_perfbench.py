"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They take a few minutes, because every workload runs end to end.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fplab  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _small_form():
    mesh = fplab.build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    cs = fplab.preset("gaussian_gradient", 2)
    dens = fplab.solve_invariant_density(mesh, cs)
    dec = fplab.decompose_drift(mesh, cs, dens)
    return fplab.assemble_form(mesh, cs, dens, dec)


def _solves(form):
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = np.random.default_rng(3).standard_normal(form.interior.size)
    u = fplab.solve_resolvent(form, 10.0, f).values
    gaps = fplab.strong_continuity_gaps(form, f).gaps
    lam, psi = fplab.first_dirichlet_eigenpair(form)
    return u, gaps, lam, psi.values


def test_wrappers_return_bit_identical_results():
    original = fplab.solve_resolvent
    plain = _solves(_small_form())
    tracer = Tracer("test").install()
    try:
        assert fplab.solve_resolvent is not original
        traced = _solves(_small_form())
    finally:
        tracer.uninstall()
    assert fplab.solve_resolvent is original
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    counts = tracer.counts()
    assert counts["factorizations"]["forms"] == 1 + 13 + 1
    assert counts["factorizations"]["density"] == 2
    assert counts["calls"]["forms.solve_resolvent"] == 1 + 13


def test_tracer_refuses_span_names_it_did_not_wrap():
    tracer = Tracer("test").install()
    tracer.uninstall()
    assert tracer.count({"mesh.build_ball_mesh"}) == 0
    with pytest.raises(KeyError, match="mesh.no_such_function"):
        tracer.time_in({"mesh.build_ball_mesh", "mesh.no_such_function"})
    with pytest.raises(KeyError):
        tracer.durations("forms.no_such_function")


def test_traced_verify_matches_untraced_and_counts_repeat(at_root):
    inputs = workloads.make_inputs("verify", 0)
    plain = workloads.run_pass(inputs)
    digest = plain.gate_values()["cli.verify"]["sha256"]
    runs = []
    for _ in range(2):
        tracer = Tracer("test").install()
        try:
            result = workloads.run_pass(inputs, verify_reference=digest)
        finally:
            tracer.uninstall()
        runs.append((tracer, result))
    for tracer, result in runs:
        assert result.failed == 0
        assert result.gate_values() == plain.gate_values()
    assert runs[0][0].counts() == runs[1][0].counts()
    metrics = layers.per_layer_metrics(*runs[0])
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) | {"trace.run_s", "trace.overhead_s"} == names
    assert metrics["quadrature.gauss_legendre_calls"] > 0
    assert metrics["forms.factorizations"] > 0


def test_verify_report_is_checked_against_the_invocation_reference(at_root):
    # run.py passes the first pass's digest to the later passes of a run
    inputs = workloads.make_inputs("verify", 0)
    other = workloads.run_pass(inputs, verify_reference="0" * 64)
    assert other.attempted == 1 and other.failed == 1
    assert workloads.run_pass(inputs).failed == 0


def test_pass_killed_at_the_run_limit_counts_as_failed(at_root):
    run.OUT.mkdir(exist_ok=True)
    record = run._spawn("resolvent-3d", 1, "plain", time.monotonic() + 8.0)
    assert record["aborted"] is True
    assert record["attempted"] == record["failed"] == workloads.OPERATIONS["resolvent-3d"]
    assert 0.0 < record["wall"] < 8.0


@pytest.mark.parametrize(
    "workload,seed",
    [
        ("resolvent-3d", 1),
        ("resolvent-3d", 2),
        ("density-2d", 1),
        ("density-2d", 2),
        ("verify", 1),
    ],
)
def test_workload_passes_its_gates(workload, seed):
    proc = _bench("--workload", workload, "--seed", seed, "--seconds", 1, "--trace", 0)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "density-2d", "--seed", 4, "--seconds", 1, "--trace", 1)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["forms.factorizations"] == 0
    assert metrics["density.factorizations"] == 2
    sidecar = json.loads((ROOT / ".perfbench_out/trace-density-2d-seed4.json").read_text())
    assert sidecar["same_gate_values"] is True
    assert sidecar["problem_size"]["vertices"] == workloads.DISK_2D_L6[0]
    assert {"name", "start", "end", "parent", "run"} <= set(sidecar["spans"][0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
