"""Config grammar round trips and command line exit codes."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fplab.cli
import fplab.errors
import fplab.fem
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


PERFBENCH_RESOLVENT_3D = (
    "[run]\nseed = 7\noutput_dir = .perfbench_out/work/resolvent-3d\n\n"
    "[domain]\nkind = ball\ndim = 3\nradius = 1.0\nlevel = 4\n\n"
    "[coefficients]\npreset = rotator\n\n[cutoff]\ninner = 0.5\nouter = 0.9\n\n"
    "[resolvent]\nalphas = dyadic:13\nd_mode = skew\nbackend = direct\n"
)
PERFBENCH_DENSITY_2D = (
    "[run]\nseed = 7\noutput_dir = .perfbench_out/work/density-2d\n\n"
    "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 6\n\n"
    "[coefficients]\npreset = gaussian_gradient\n"
)
PERFBENCH_VERIFY = (
    "[run]\noutput_dir = .perfbench_out/work/verify\n\n"
    "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 3\n"
)
BOX_WITH_DATA = (
    "[domain]\nkind = box\ndim = 3\nlo = 0 0 -1\nhi = 1 2 1\ncenter = 0.5 1 0\n"
    "level = 1\n[coefficients]\ndata = fields.npz\n[resolvent]\nalphas = 1 4 16\n"
)


@pytest.mark.parametrize(
    "text, digest",
    [
        (None, "4b7f5714248c64ef429aac96eac9d6ee011acaa9c0b9a92506f44e132bcdbceb"),
        (PERFBENCH_RESOLVENT_3D,
         "b751addeca702138642aaddd5128f5c199515fdca4afbcda41ab4d81aff2f0d4"),
        (PERFBENCH_DENSITY_2D,
         "dbf41c61b2911c2feb8093fe2a27524eb6cfb52544be0b5df0be205524afc117"),
        (PERFBENCH_VERIFY,
         "982b136e18cbccebe328d3fdb5a7ef8cd5ee4ae4162f6e09290bf832f529ac02"),
        (BOX_WITH_DATA,
         "7a39c6b0a9851bea939b0052a1f659243ff293cd2a0309fbeb3364464f7199b5"),
    ],
    ids=["default", "resolvent-3d", "density-2d", "verify", "box-with-data"],
)
def test_config_hashes_are_pinned(text, digest):
    # every report embeds this hash, so serialize() may not move a byte
    cfg = ExperimentConfig() if text is None else parse_config_text(text)
    assert cfg.sha256() == digest


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-300, max_value=1e300)
_word = st.from_regex(r"[A-Za-z0-9_./-]{0,12}", fullmatch=True)
# any text, including surrounding whitespace and line breaks
_string = _word | st.text(max_size=8) | st.from_regex(r"\s{0,2}[a-z]{0,3}\s{0,2}", fullmatch=True)
_int = st.integers(-(2**63), 2**63)


@st.composite
def _configs(draw):
    dim = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("ball", "box")))
    point = st.tuples(*[_finite] * dim)
    level = draw(st.integers(0, 9))
    return ExperimentConfig(
        seed=draw(_int),
        output_dir=draw(_string),
        domain_kind=kind,
        dim=dim,
        radius=draw(_positive if kind == "ball" else st.none() | _finite),
        center=draw(st.just(()) | point),
        box_lo=draw(point) if kind == "box" else (),
        box_hi=draw(point) if kind == "box" else (),
        level=level,
        preset_name=draw(_string),
        coeff_data=draw(_string),
        omega=draw(_finite),
        cutoff_inner=draw(_finite),
        cutoff_outer=draw(_finite),
        alphas=tuple(draw(st.lists(_positive, min_size=1, max_size=5))),
        d_mode=draw(st.sampled_from(("skew", "raw"))),
        backend=draw(st.sampled_from(("direct", "gmres"))),
        tol=draw(_finite),
        maxiter=draw(_int),
        vmo_radii=tuple(draw(st.lists(_finite, max_size=4))),
        vmo_samples=draw(_int),
        mollifier_eps=tuple(draw(st.lists(_positive, max_size=3))),
        mollifier_grid=draw(_int),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_configs())
# a set radius of 0 is written out: only an unset optional key is left out
@example(cfg=ExperimentConfig(domain_kind="box", box_lo=(0.0, 0.0), box_hi=(1.0, 1.0), radius=0.0))
@example(cfg=ExperimentConfig(radius=1.0, output_dir=" out "))
@example(cfg=ExperimentConfig(radius=1.0, preset_name="a\nb"))
def test_config_roundtrip_drawn(cfg):
    # a string the text cannot hold is refused, and every other config
    # survives its round trip exactly
    unwritable = [
        v for v in vars(cfg).values()
        if isinstance(v, str) and (v != v.strip() or len(v.splitlines()) > 1)
    ]
    if unwritable:
        with pytest.raises(ConfigError, match="would not parse back"):
            cfg.serialize()
        return
    back = parse_config_text(cfg.serialize())
    assert back == cfg
    assert back.serialize() == cfg.serialize()


_BALL = "[domain]\nkind = ball\ndim = 2\nradius = 1.0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[physics]\ngravity = 9.8\n", "unknown section [physics]"),
        (_BALL + "wobble = 3\n", "unknown key 'wobble' in section [domain]"),
        ("[DEFAULT]\nx = 1\n" + _BALL, "unknown key 'x' in section [domain]"),
        (_BALL + "level = 1\nlevel = 2\n",
         "malformed config: While reading from '<string>' [line  6]: "
         "option 'level' in section 'domain' already exists"),
        ("[run]\nseed = x\n" + _BALL, "invalid value for [run] seed: 'x'"),
        ("[domain]\nkind = torus\nradius = 1.0\n",
         "[domain] kind must be ball or box, got 'torus'"),
        ("[domain]\nkind = ball\ndim = x\nradius = 1.0\n",
         "invalid value for [domain] dim: 'x'"),
        ("[domain]\nkind = ball\ndim = 5\nradius = 1.0\n", "[domain] dim must be 2 or 3, got 5"),
        ("[domain]\nkind = ball\nradius = x\n", "invalid value for [domain] radius: 'x'"),
        ("[domain]\nkind = ball\ndim = 2\n", "[domain] radius is required for kind = ball"),
        ("[domain]\nkind = ball\nradius = -1\n", "[domain] radius must be positive, got -1.0"),
        ("[domain]\nkind = ball\nradius = 1\ncenter = a b\n",
         "bad float list for [domain] center: 'a b'"),
        ("[domain]\nkind = ball\nradius = 1\ncenter = 0 0 0\n",
         "[domain] center has 3 components for dim 2"),
        ("[domain]\nkind = box\nlo = 0 0\nhi = 1 x\n", "bad float list for [domain] hi: '1 x'"),
        ("[domain]\nkind = box\ndim = 2\n", "[domain] lo and hi are required for kind = box"),
        ("[domain]\nkind = box\nlo = 0 0 0\nhi = 1 1\n", "[domain] lo/hi length must match dim"),
        (_BALL + "level = -1\n", "[domain] level must be >= 0, got -1"),
        (_BALL + "[coefficients]\nomega = x\n", "invalid value for [coefficients] omega: 'x'"),
        (_BALL + "[cutoff]\nouter = x\n", "invalid value for [cutoff] outer: 'x'"),
        (_BALL + "[resolvent]\nalphas = 1 a\n", "bad alpha list '1 a'"),
        (_BALL + "[resolvent]\nd_mode = sideways\n",
         "[resolvent] d_mode must be skew or raw, got 'sideways'"),
        (_BALL + "[resolvent]\nbackend = magic\n",
         "[resolvent] backend must be direct or gmres, got 'magic'"),
        (_BALL + "[resolvent]\nmaxiter = 1.5\n", "invalid value for [resolvent] maxiter: '1.5'"),
        (_BALL + "[vmo]\nradii = a\n", "bad float list for [vmo] radii: 'a'"),
        (_BALL + "[mollifier]\neps = -0.1\n", "[mollifier] eps values must be positive"),
        (_BALL + "[mollifier]\ngrid = x\n", "invalid value for [mollifier] grid: 'x'"),
    ],
)
def test_single_fault_config_messages(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert str(info.value) == message


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


@pytest.mark.parametrize(
    "domain",
    [
        dict(domain_kind="box", dim=3, box_lo=(0.5, 1.0, 0.5), box_hi=(1.5, 2.0, 1.5)),
        dict(domain_kind="box", dim=2, box_lo=(1.0, -1.5), box_hi=(2.0, -0.5)),
        dict(dim=3, center=(2.0, 0.0, 0.0), radius=1.0),
        dict(dim=2, center=(5.0, 0.0), radius=0.5),
    ],
)
@pytest.mark.parametrize("name", ["example_i", "example_ii"])
def test_preset_bounds_cover_a_domain_away_from_the_origin(domain, name):
    cfg = ExperimentConfig(level=1, preset_name=name, **domain)
    mesh = fplab.cli._build_mesh(cfg)
    assert (np.linalg.norm(mesh.vertices, axis=1) > 0.9).all()
    cs = fplab.cli._coefficients(cfg, mesh)
    a = cs.a(mesh.vertices)
    assert np.abs(a).max() <= cs.m_bound
    smallest = np.linalg.eigvalsh(0.5 * (a + a.transpose(0, 2, 1)))[:, 0]
    assert smallest.min() >= cs.lam


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
    # the level-1 disk is below the multigrid cut: an LU answers every alpha
    assert report["lu_solves"] == 3


def test_cli_gmres_at_level_zero_is_the_direct_lu(tmp_path):
    # the level-0 disk has no lineage, so both backends take one LU per alpha
    csv = {}
    for backend in ("direct", "gmres"):
        out = tmp_path / backend
        cfg = write_config(
            tmp_path,
            f"[run]\noutput_dir = {out}\n"
            "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 0\n"
            f"[resolvent]\nalphas = dyadic:3\nbackend = {backend}\n",
        )
        assert main(["resolvent", "--config", cfg]) == 0
        csv[backend] = (out / "resolvent.csv").read_bytes()
    assert csv["gmres"] == csv["direct"]


@pytest.mark.parametrize("stage", ["resolvent", "experiment"])
def test_cli_solver_divergence_exits_three(tmp_path, capsys, stage, monkeypatch):
    # rtol = 1e-30 is out of GMRES's reach; three restarts keep the failure
    # quick. The level-1 ball is below the cut, which is lowered to 0 so that
    # gmres runs the V-cycle
    monkeypatch.setattr(fplab.fem, "_MULTIGRID_MIN_UNKNOWNS", 0)
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


USAGE_ERROR_NAMES = (
    "ConfigError",
    "UnknownPreset",
    "InvalidRadius",
    "InvalidBox",
    "InvalidRadii",
    "RefinementTooDeep",
    "DimensionUnsupported",
    "MissingDerivative",
    "DegenerateRadius",
)
SOLVER_ERROR_NAMES = (
    "SolverDivergence",
    "KernelDimensionError",
    "DensityNotPositive",
    "NonPositiveDensity",
    "SingularMass",
    "SingularElement",
    "NonFiniteValue",
    "NonEllipticSample",
)


def test_failure_table_names_every_error_class():
    public = {
        name
        for name, obj in vars(fplab.errors).items()
        if isinstance(obj, type) and issubclass(obj, FplabError) and not name.startswith("_")
    }
    checked = {"ContractionViolation", "SubmarkovViolation", "FplabError"}
    assert public == checked | set(USAGE_ERROR_NAMES) | set(SOLVER_ERROR_NAMES)


@pytest.mark.parametrize(
    "error, code, message",
    [
        (ContractionViolation, 1, "density: verification failure: ratio 1.5"),
        (SubmarkovViolation, 1, "density: verification failure: ratio 1.5"),
        (FplabError, 3, "density: FplabError: ratio 1.5"),
    ]
    + [
        (getattr(fplab.errors, name), 2, f"density: {name}: ratio 1.5")
        for name in USAGE_ERROR_NAMES
    ]
    + [
        (getattr(fplab.errors, name), 3, f"density: solver failure: {name}: ratio 1.5")
        for name in SOLVER_ERROR_NAMES
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
