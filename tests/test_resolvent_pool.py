"""Resolvent.map: the direct sweeps' alphas factored two at a time on
worker threads, while the checks factor on the calling thread.

Every test forces the worker count, so the pool path runs on a one-CPU
machine too, and compares it with the inline path of one usable CPU. The
test meshes are smaller than the size below which map runs inline, so
that size is lowered to 0 unless a test says otherwise.
"""

import gc
import re
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fplab.forms
from fplab import (
    ContractionViolation,
    Resolvent,
    assemble_form,
    build_ball_mesh,
    build_cutoff,
    check_contraction,
    check_resolvent_identity,
    compute_constants,
    decompose_drift,
    preset,
    resolvent_sweep,
    run_experiment,
    solve_invariant_density,
    solve_resolvent,
    strong_continuity_gaps,
)

ALPHAS = tuple(float(4**k) for k in range(6))


@pytest.fixture(autouse=True)
def pool_at_any_size(monkeypatch):
    monkeypatch.setattr(fplab.forms, "_POOL_MIN_UNKNOWNS", 0)


@pytest.fixture(scope="module")
def rotator3():
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=2)
    cs = preset("rotator", 3)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec)
    cutoff = build_cutoff((0.0, 0.0, 0.0), 0.4, 0.8)
    constants = compute_constants(cs, density, cutoff, density.rho)
    return form, density, cutoff, constants


def interior_data(form, seed):
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = np.random.default_rng(seed).standard_normal(form.interior.size)
    return f


def run_sweeps(form, density, cutoff, constants):
    """The two functions that route their alpha loops through Resolvent.map."""
    sweep = resolvent_sweep(form, alphas=ALPHAS, seed=43)
    experiment = run_experiment(form, cutoff, density.rho, constants, alphas=ALPHAS)
    return {
        "ratios": np.array(sweep.contraction_ratios),
        "residuals": np.array(sweep.residuals),
        "sweep_identity_defect": np.array([sweep.identity_defect]),
        "energies": experiment.energies,
        "l2_gaps": experiment.l2_gaps,
        "cutoff_gaps": experiment.cutoff_gaps,
        "h1_seminorms": experiment.h1_seminorms,
        "chi_u_norms": experiment.chi_u_norms,
    }


class OwnedFactor:
    """A SuperLU factor that records the thread freeing it."""

    def __init__(self, factor, record):
        self._factor = factor
        self._record = record

    def solve(self, *args, **kwargs):
        # give the other worker time to run between two solves of a task
        time.sleep(0.001)
        return self._factor.solve(*args, **kwargs)

    def __del__(self):
        self._record.freed()


class FactorRecorder:
    """Stands in for scipy.sparse.linalg inside fplab.forms."""

    def __init__(self):
        self.lock = threading.Lock()
        self.records = []
        self.live = 0
        self.peak = 0

    def splu(self, *args, **kwargs):
        factor = spla.splu(*args, **kwargs)
        record = _Record(self, threading.get_ident())
        with self.lock:
            self.records.append(record)
            self.live += 1
            self.peak = max(self.peak, self.live)
        return OwnedFactor(factor, record)

    def __getattr__(self, name):
        return getattr(spla, name)


class _Record:
    def __init__(self, recorder, maker):
        self.recorder = recorder
        self.maker = maker
        self.freer = None

    def freed(self):
        self.freer = threading.get_ident()
        with self.recorder.lock:
            self.recorder.live -= 1


def test_each_factor_is_freed_by_the_thread_that_made_it(rotator3, monkeypatch):
    recorder = FactorRecorder()
    monkeypatch.setattr(fplab.forms, "spla", recorder)
    monkeypatch.setattr(fplab.forms, "_WORKERS", 2)
    run_sweeps(*rotator3)
    gc.collect()
    records = recorder.records
    # (6 + lumped) + 6
    assert len(records) == 13
    assert all(r.freer is not None for r in records)
    assert all(r.freer == r.maker for r in records)
    main = threading.get_ident()
    assert sum(r.maker != main for r in records) == 6 + 6
    assert recorder.peak <= 2


def test_the_checks_factor_on_the_calling_thread(rotator3, monkeypatch):
    recorder = FactorRecorder()
    monkeypatch.setattr(fplab.forms, "spla", recorder)
    monkeypatch.setattr(fplab.forms, "_WORKERS", 2)
    form = rotator3[0]
    f = interior_data(form, 41)
    check_contraction(form, alphas=ALPHAS[:4], trials=3, seed=42)
    check_resolvent_identity(form, 1.0, 16.0, f)
    strong_continuity_gaps(form, f, alphas=ALPHAS)
    # 4 + 2 + (6 + mass)
    assert len(recorder.records) == 13
    assert {r.maker for r in recorder.records} == {threading.get_ident()}


def test_small_systems_run_inline(rotator3, monkeypatch):
    recorder = FactorRecorder()
    monkeypatch.setattr(fplab.forms, "spla", recorder)
    monkeypatch.setattr(fplab.forms, "_WORKERS", 2)
    monkeypatch.setattr(fplab.forms, "_POOL_MIN_UNKNOWNS", 2000)
    assert rotator3[0].interior.size < 2000
    run_sweeps(*rotator3)
    assert len(recorder.records) == 13
    assert {r.maker for r in recorder.records} == {threading.get_ident()}


def test_a_task_drops_its_factor_before_it_returns(rotator3, monkeypatch):
    recorder = FactorRecorder()
    monkeypatch.setattr(fplab.forms, "spla", recorder)
    monkeypatch.setattr(fplab.forms, "_WORKERS", 2)
    form = rotator3[0]
    f = interior_data(form, 44)
    res = Resolvent(form)

    def work(alpha, _):
        # only the other worker's factor may be alive when a task starts
        live = recorder.live
        solve_resolvent(res, alpha, f)
        solve_resolvent(res, alpha, 2.0 * f)
        return live

    assert max(res.map(work, ALPHAS)) <= 1
    assert len(recorder.records) == len(ALPHAS)
    assert recorder.live == 0


def test_pool_and_inline_paths_agree_bit_for_bit(rotator3, monkeypatch):
    monkeypatch.setattr(fplab.forms, "_WORKERS", 1)
    inline = run_sweeps(*rotator3)
    monkeypatch.setattr(fplab.forms, "_WORKERS", 2)
    pooled = run_sweeps(*rotator3)
    assert inline.keys() == pooled.keys()
    for key in inline:
        assert np.array_equal(inline[key], pooled[key]), key


def test_contraction_violation_names_the_first_offending_alpha(rotator3):
    form = rotator3[0]
    rows = check_contraction(form, alphas=ALPHAS[:4], trials=3, seed=45).rows
    # every ratio above the largest one at the first alpha now violates
    threshold = max(ratio for alpha, _, ratio in rows if alpha == ALPHAS[0])
    offenders = [(alpha, ratio) for alpha, _, ratio in rows if ratio > threshold]
    assert len({alpha for alpha, _ in offenders}) >= 2
    alpha, ratio = offenders[0]
    message = f"||alpha G_alpha f|| / ||f|| = {ratio:.12f} at alpha={alpha}"
    with pytest.raises(ContractionViolation, match=re.escape(message)):
        check_contraction(form, alphas=ALPHAS[:4], trials=3, seed=45, tol=threshold - 1.0)


def test_more_workers_than_cores_under_fast_switching(rotator3, monkeypatch):
    form, density, cutoff, constants = rotator3

    def run():
        sweep = resolvent_sweep(form, alphas=ALPHAS, seed=47)
        return sweep, run_experiment(form, cutoff, density.rho, constants, alphas=ALPHAS)

    monkeypatch.setattr(fplab.forms, "_WORKERS", 1)
    reference = run()
    monkeypatch.setattr(fplab.forms, "_WORKERS", 4)
    results = []

    def stressed():
        for _ in range(3):
            results.append(run())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=stressed)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert len(results) == 3
    for sweep, experiment in results:
        assert sweep.contraction_ratios == reference[0].contraction_ratios
        assert sweep.residuals == reference[0].residuals
        assert sweep.identity_defect == reference[0].identity_defect
        assert np.array_equal(experiment.energies, reference[1].energies)
        assert np.array_equal(experiment.l2_gaps, reference[1].l2_gaps)
