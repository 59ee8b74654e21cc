"""Config grammar round trips and command line exit codes."""

import json

import numpy as np
import pytest

import fplab.cli
from fplab import (
    ConfigError,
    ContractionViolation,
    ExperimentConfig,
    FplabError,
    SubmarkovViolation,
    parse_alphas,
    parse_config,
    parse_config_text,
)
from fplab.cli import main


def test_parse_alphas_forms():
    assert parse_alphas("dyadic:4") == (1.0, 2.0, 4.0, 8.0)
    assert parse_alphas("1.0, 2.5 10") == (1.0, 2.5, 10.0)
    with pytest.raises(ConfigError):
        parse_alphas("dyadic:x")
    with pytest.raises(ConfigError):
        parse_alphas("dyadic:0")
    with pytest.raises(ConfigError):
        parse_alphas("")
    with pytest.raises(ConfigError):
        parse_alphas("1.0 -2.0")


def test_config_roundtrip_ball():
    cfg = ExperimentConfig()
    cfg.radius = 1.0
    cfg.center = (0.5, -0.5)
    cfg.alphas = (1.0, 4.0, 16.0)
    cfg.seed = 7
    cfg.output_dir = "results"
    back = parse_config_text(cfg.serialize())
    assert back == cfg
    assert back.sha256() == cfg.sha256()


def test_config_roundtrip_box_with_data():
    cfg = ExperimentConfig()
    cfg.domain_kind = "box"
    cfg.box_lo = (0.0, 0.0, 0.0)
    cfg.box_hi = (1.0, 2.0, 3.0)
    cfg.dim = 3
    cfg.coeff_data = "fields.npz"
    back = parse_config_text(cfg.serialize())
    assert back == cfg


def test_config_sha_tracks_content():
    a = ExperimentConfig()
    a.radius = 1.0
    b = ExperimentConfig()
    b.radius = 1.0
    b.seed = 99
    assert a.sha256() != b.sha256()


def test_config_unknown_section_and_key():
    with pytest.raises(ConfigError, match="physics"):
        parse_config_text("[physics]\ngravity = 9.8\n")
    with pytest.raises(ConfigError, match="wobble"):
        parse_config_text("[domain]\nkind = ball\nradius = 1.0\nwobble = 3\n")


def test_dropped_exponent_keys_are_unknown(tmp_path, capsys):
    # [coefficients] p and q were parsed and hashed but never read
    for key in ("p", "q"):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config_text(f"[coefficients]\npreset = identity\n{key} = 4\n")
    cfg = small_mesh_config(tmp_path, "[coefficients]\npreset = identity\np = 4\n")
    assert main(["density", "--config", cfg]) == 2
    capsys.readouterr()


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="radius"):
        parse_config_text("[domain]\nkind = ball\ndim = 2\n")
    with pytest.raises(ConfigError, match="dim"):
        parse_config_text("[domain]\nkind = ball\nradius = 1.0\ndim = 5\n")
    with pytest.raises(ConfigError, match="center"):
        parse_config_text(
            "[domain]\nkind = ball\nradius = 1.0\ndim = 2\ncenter = 0 0 0\n"
        )
    with pytest.raises(ConfigError, match="lo and hi"):
        parse_config_text("[domain]\nkind = box\ndim = 2\n")
    ball = "[domain]\nkind = ball\ndim = 2\nradius = 1.0\n"
    with pytest.raises(ConfigError, match="d_mode"):
        parse_config_text(ball + "[resolvent]\nd_mode = sideways\n")
    with pytest.raises(ConfigError, match="backend"):
        parse_config_text(ball + "[resolvent]\nbackend = magic\n")
    with pytest.raises(ConfigError, match="eps"):
        parse_config_text(ball + "[mollifier]\neps = -0.1\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config_text("[domain]\nkind = torus\n")


def test_parse_config_names_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[domain]\nkind = ball\ndim = 2\n")
    with pytest.raises(ConfigError, match="run.ini"):
        parse_config(path)
    with pytest.raises(ConfigError, match="missing.ini"):
        parse_config(tmp_path / "missing.ini")


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return str(path)


def small_mesh_config(tmp_path, extra=""):
    return write_config(
        tmp_path,
        "[run]\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[domain]\n"
        "kind = ball\n"
        "dim = 2\n"
        "radius = 1.0\n"
        "level = 1\n" + extra,
    )


def test_cli_mesh_writes_report(tmp_path):
    cfg = small_mesh_config(tmp_path)
    assert main(["mesh", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "mesh.npz").exists()
    report = json.loads((out / "mesh_report.json").read_text())
    assert report["version"] == "fplab-0.1.0"
    assert len(report["config_sha256"]) == 64
    assert report["conformity"]["conforming"] is True
    assert report["quality"]["num_elements"] == 96


def test_cli_usage_errors_exit_two(tmp_path):
    bad = write_config(tmp_path, "[domain]\nkind = ball\ndim = 2\n")
    assert main(["mesh", "--config", bad]) == 2
    assert main(["mesh", "--config", str(tmp_path / "nope.ini")]) == 2
    unknown_preset = small_mesh_config(tmp_path, "[coefficients]\npreset = vortex\n")
    assert main(["density", "--config", unknown_preset]) == 2


def test_cli_bad_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "fplab-0.1.0" in capsys.readouterr().out


def test_cli_density_deterministic(tmp_path):
    cfg = small_mesh_config(tmp_path, "[coefficients]\npreset = gaussian_gradient\n")
    assert main(["density", "--config", cfg]) == 0
    out = tmp_path / "out"
    first_csv = (out / "density.csv").read_bytes()
    first_json = (out / "density_report.json").read_bytes()
    assert main(["density", "--config", cfg]) == 0
    assert (out / "density.csv").read_bytes() == first_csv
    assert (out / "density_report.json").read_bytes() == first_json
    report = json.loads(first_json)
    assert report["rho_min"] > 0.0


def test_cli_resolvent_with_plot_data(tmp_path):
    cfg = small_mesh_config(
        tmp_path,
        "[coefficients]\npreset = identity\n[resolvent]\nalphas = dyadic:3\n",
    )
    assert main(["resolvent", "--config", cfg, "--emit-plot-data"]) == 0
    out = tmp_path / "out"
    assert (out / "resolvent.csv").exists()
    dat = (out / "contraction_vs_alpha.dat").read_text()
    assert dat.startswith("# ")
    body = [line for line in dat.splitlines() if not line.startswith("#")]
    assert len(body) == 3
    assert all(len(line.split()) == 2 for line in body)
    report = json.loads((out / "resolvent_report.json").read_text())
    assert max(report["contraction_ratios"]) <= 1.0 + 1e-10


@pytest.mark.parametrize("stage", ["resolvent", "experiment"])
def test_cli_solver_divergence_exits_three(tmp_path, capsys, stage):
    # rtol = 1e-30 is out of GMRES's reach; three restarts keep the failure quick
    cfg = write_config(
        tmp_path,
        "[run]\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[domain]\nkind = ball\ndim = 3\nradius = 1.0\nlevel = 1\n"
        "[coefficients]\npreset = gaussian_gradient\n"
        "[cutoff]\ninner = 0.5\nouter = 0.9\n"
        "[resolvent]\nalphas = dyadic:3\nbackend = gmres\ntol = 1e-30\nmaxiter = 3\n",
    )
    assert main([stage, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "SolverDivergence" in err
    # maxiter counts GMRES restart cycles, not inner iterations
    assert "within 3 restart cycles of 20 iterations" in err


@pytest.mark.parametrize(
    "error, code, message",
    [
        (ContractionViolation, 1, "density: verification failure: ratio 1.5"),
        (SubmarkovViolation, 1, "density: verification failure: ratio 1.5"),
        (FplabError, 3, "density: FplabError: ratio 1.5"),
    ],
)
def test_cli_failure_families_exit_codes(monkeypatch, capsys, error, code, message):
    def stage(cfg, emit_plots):
        raise error("ratio 1.5")

    monkeypatch.setitem(fplab.cli.COMMANDS, "density", stage)
    assert main(["density"]) == code
    assert capsys.readouterr().err.strip() == message


def test_cli_experiment_small_case(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[domain]\n"
        "kind = ball\n"
        "dim = 3\n"
        "radius = 1.0\n"
        "level = 1\n"
        "[coefficients]\n"
        "preset = gaussian_gradient\n"
        "[cutoff]\n"
        "inner = 0.5\n"
        "outer = 0.9\n"
        "[resolvent]\n"
        "alphas = dyadic:11\n",
    )
    assert main(["experiment", "--config", cfg]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "energy_bound.json").read_text())
    assert report["margin"] >= 0.0
    assert report["sup_energy"] <= report["bound"]
    csv_lines = (out / "experiment.csv").read_text().splitlines()
    assert csv_lines[0] == "alpha,energy,l2_gap,h1_seminorm"
    assert len(csv_lines) == 1 + 11


def test_cli_mollifier_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[domain]\n"
        "kind = ball\n"
        "dim = 2\n"
        "radius = 1.0\n"
        "[mollifier]\n"
        "eps = 0.1 0.01\n"
        "grid = 101\n",
    )
    assert main(["mollifier", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "mollifier_0.1.csv").exists()
    assert (out / "mollifier_0.01.csv").exists()
    report = json.loads((out / "mollifier_report.json").read_text())
    assert set(report["eps"]) == {"0.1", "0.01"}
    for entry in report["eps"].values():
        assert abs(entry["mass_error"]) <= 1e-10


def test_cli_vmo_outputs(tmp_path):
    cfg = small_mesh_config(
        tmp_path,
        "[coefficients]\npreset = example_i\n[vmo]\nradii = 0.2 0.1\nsamples = 1000\n",
    )
    assert main(["vmo", "--config", cfg]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "vmo_report.json").read_text())
    assert len(report["radii"]) == 2
    assert (out / "vmo.csv").exists()


def test_cli_coefficient_data_file(tmp_path):
    from fplab import build_ball_mesh

    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=1)
    nv = mesh.num_vertices
    a = np.broadcast_to(np.eye(2), (nv, 2, 2)).copy()
    drift = -mesh.vertices
    data = tmp_path / "fields.npz"
    np.savez(data, a=a, drift=drift)
    cfg = small_mesh_config(tmp_path, f"[coefficients]\ndata = {data}\n")
    assert main(["density", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "density_report.json").read_text())
    assert report["rho_min"] > 0.0


@pytest.mark.parametrize("sources", [("c", "f"), ("flux",)])
def test_cli_experiment_rejects_source_terms(tmp_path, capsys, sources):
    # the experiment sweeps h_tilde = rho, the solution without c, f and flux,
    # while its bound would count their norms: c = f = 5 on the 3D level-2
    # ball with identity a moved the bound and left the swept energies alone
    from fplab import build_ball_mesh

    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=2)
    nv = mesh.num_vertices
    fields = {"a": np.broadcast_to(np.eye(3), (nv, 3, 3)).copy()}
    shapes = {"c": (nv,), "f": (nv,), "flux": (nv, 3)}
    with_sources = tmp_path / "sources.npz"
    np.savez(with_sources, **fields, **{k: np.full(shapes[k], 5.0) for k in sources})
    homogeneous = tmp_path / "homogeneous.npz"
    np.savez(homogeneous, **fields)

    def run(stage, data):
        out = tmp_path / f"out_{stage}_{data.stem}"
        cfg = write_config(
            tmp_path,
            f"[run]\noutput_dir = {out}\n"
            "[domain]\nkind = ball\ndim = 3\nradius = 1.0\nlevel = 2\n"
            f"[coefficients]\ndata = {data}\n"
            "[resolvent]\nalphas = dyadic:3\n",
        )
        return main([stage, "--config", cfg]), out

    code, out = run("experiment", with_sources)
    assert code == 2
    assert f"carries {', '.join(sources)}" in capsys.readouterr().err
    assert not (out / "energy_bound.json").exists()
    assert run("experiment", homogeneous)[0] == 0
    # the other stages still take source data
    assert run("density", with_sources)[0] == 0
