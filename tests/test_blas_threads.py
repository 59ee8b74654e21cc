"""CLI stages run on one BLAS thread and leave the caller's setting as it was."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fplab
import fplab.cli
from fplab import ConfigError
from fplab.cli import main
from fplab.errors import SolverDivergence

SRC = str(Path(fplab.__file__).resolve().parent.parent)


def _thread_counts():
    return [get() for get, _ in fplab.cli._openblas_thread_controls()]


def _run_stage(config, stage, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-m", "fplab.cli", stage, "--config", str(config)],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=300,
    )


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the 2D level-5 disk has 12481 vertices, above the size from which the
    # density is solved by multigrid GMRES, and 12097 interior unknowns,
    # above the size from which the direct backend refines with V-cycle
    # GMRES corrections; the runs share one config, because a report embeds
    # the config hash
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\noutput_dir = {out}\n"
        "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 5\n"
        "[resolvent]\nbackend = direct\n"
    )
    outputs = {}
    for threads in (1, 2):
        _run_stage(config, "density", threads)
        _run_stage(config, "resolvent", threads)
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("density_report.json", "density.csv", "resolvent_report.json", "resolvent.csv")
        }
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "error, code", [(None, 0), (ConfigError("bad key"), 2), (SolverDivergence("no"), 3)]
)
def test_stage_runs_on_one_thread_and_restores_each_count(monkeypatch, capsys, error, code):
    controls = fplab.cli._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS with a thread-count interface is loaded")
    original = _thread_counts()
    seen = []

    def stage(cfg, emit_plots):
        seen.append(_thread_counts())
        if error is not None:
            raise error
        return 0

    monkeypatch.setitem(fplab.cli.COMMANDS, "density", stage)
    try:
        for _, set_ in controls:
            set_(2)
        before = _thread_counts()
        assert main(["density"]) == code
        assert _thread_counts() == before
    finally:
        for (_, set_), count in zip(controls, original):
            set_(count)
    capsys.readouterr()
    assert seen == [[1] * len(controls)]


def test_stage_runs_without_openblas(monkeypatch, tmp_path):
    monkeypatch.setattr(fplab.cli, "_mapped_libraries", lambda: {"/usr/lib/libm.so.6"})
    assert fplab.cli._openblas_thread_controls() == []
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\noutput_dir = {tmp_path / 'out'}\n"
        "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 1\n"
    )
    assert main(["mesh", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "mesh_report.json").exists()


@pytest.mark.parametrize(
    "get_name, set_name",
    [
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
        ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
        ("openblas_get_num_threads", "openblas_set_num_threads"),
    ],
)
def test_each_thread_count_interface_is_found(monkeypatch, get_name, set_name):
    # NumPy 1.x bundles an ILP64 OpenBLAS whose only thread-count functions
    # are openblas_{get,set}_num_threads64_; NumPy 2.x and SciPy prefix
    # theirs with scipy_, and an LP64 build has neither prefix nor suffix
    class Function:
        def __call__(self, *args):
            return 4

    class Library:
        pass

    lib = Library()
    setattr(lib, get_name, Function())
    setattr(lib, set_name, Function())
    monkeypatch.setattr(fplab.cli, "_mapped_libraries", lambda: {"/lib/libopenblas64_p-r0.3.21.so"})
    monkeypatch.setattr(fplab.cli.ctypes, "CDLL", lambda path: lib)
    controls = fplab.cli._openblas_thread_controls()
    assert controls == [(getattr(lib, get_name), getattr(lib, set_name))]
