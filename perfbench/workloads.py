"""The three benchmark workloads: inputs from a seed, one pass, correctness gates.

Each workload is a closed loop with one client: an operation starts only
when the previous one has returned. An operation is one public call into
`fplab` (library session) or one CLI stage run through `fplab.cli.main`.
It fails if it raises, if a CLI stage exits non-zero, or if its
correctness gate does not hold; later operations that need its output
then fail too, so every operation of a pass is always attempted.

Workloads and why they were chosen:

resolvent-3d
    Library session on the 3D unit ball, level 4, `rotator` preset, skew
    mode, direct backend. Bound by sparse LU factorizations with heavy
    repetition (about 68 in `forms`, of which 19 distinct matrices), so
    factorization reuse and faster H + D solvers show here.
density-2d
    CLI stages `mesh` then `density` on the 2D unit disk, level 6,
    `gaussian_gradient`. No resolvent solve at all: time splits across
    mesh building and audits, the two pinned density LUs, assembly and
    report writing. Factorization reuse must leave it unchanged.
verify
    `fplab verify`: the fixed acceptance catalogue on many small meshes
    plus the mollifier and VMO diagnostics. Its seeds are internal, so the
    workload seed does not apply; every pass of one invocation must write
    a report with the same bytes as its first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fplab
import fplab.cli

WORKLOADS = ("resolvent-3d", "density-2d", "verify")
# operations per pass; a pass that is killed counts all of them as failed
OPERATIONS = {"resolvent-3d": 13, "density-2d": 2, "verify": 1}

# Workload output lives under the checkout; the path is relative to the
# checkout root (the working directory of every run) and must not vary
# between runs, because the config hash embedded in each report covers it.
WORK_ROOT = Path(".perfbench_out") / "work"

# Problem sizes that define the workloads (ROADMAP Baseline rows).
BALL_3D_L4 = (6017, 32768)
DISK_2D_L6 = (49537, 98304)

CONTRACTION_TOL = 1e-10
IDENTITY_TOL = 1e-8
SUBMARKOV_TOL = 1e-8
SECTOR_SLACK = 1.05
CONTINUITY_SLACK = 1.1
DENSITY_ORACLE_TOL = 0.05
DIVERGENCE_TOL = 1e-10


@dataclass
class Inputs:
    """Everything a pass needs, generated from the workload seed."""

    workload: str
    seed: int
    ini_text: str
    trial_seeds: tuple = ()
    continuity_wave: tuple = ()


@dataclass
class PassResult:
    """Outcome of one workload pass."""

    ops: list = field(default_factory=list)  # (name, ok, gate values)
    bytes_written: int = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)

    def gate_values(self) -> dict:
        return {name: values for name, _, values in self.ops}


def _ini(workload: str, seed: int) -> str:
    out = (WORK_ROOT / workload).as_posix()
    if workload == "resolvent-3d":
        return (
            f"[run]\nseed = {seed}\noutput_dir = {out}\n\n"
            "[domain]\nkind = ball\ndim = 3\nradius = 1.0\nlevel = 4\n\n"
            "[coefficients]\npreset = rotator\n\n"
            "[cutoff]\ninner = 0.5\nouter = 0.9\n\n"
            "[resolvent]\nalphas = dyadic:13\nd_mode = skew\nbackend = direct\n"
        )
    if workload == "density-2d":
        return (
            f"[run]\nseed = {seed}\noutput_dir = {out}\n\n"
            "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 6\n\n"
            "[coefficients]\npreset = gaussian_gradient\n"
        )
    # verify: no seed, so the config hash and hence the report bytes are
    # the same for every workload seed
    return (
        f"[run]\noutput_dir = {out}\n\n"
        "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 3\n"
    )


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate the INI text and trial-vector seeds of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    trial_seeds = tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=4))
    wave = tuple(float(v) for v in rng.standard_normal(3)) + (
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    return Inputs(
        workload=workload,
        seed=seed,
        ini_text=_ini(workload, seed),
        trial_seeds=trial_seeds if workload == "resolvent-3d" else (),
        continuity_wave=wave if workload == "resolvent-3d" else (),
    )


class _Session:
    """Runs named operations in order and records their gate values."""

    def __init__(self, log):
        self.result = PassResult()
        self.state = {}
        self._log = log

    def op(self, name, fn):
        """Run fn(state) -> (ok, gate values); an exception fails the op."""
        try:
            ok, values = fn(self.state)
        except Exception:  # the benchmark must keep running and count it
            self._log(f"operation {name} raised:\n{traceback.format_exc()}")
            ok, values = False, {}
        if not ok:
            self._log(f"operation {name} failed its gate: {values}")
        self.result.ops.append((name, bool(ok), values))


def _interior_random(form, seed):
    rng = np.random.default_rng(seed)
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = rng.standard_normal(form.interior.size)
    return f


def _monotone(gaps) -> bool:
    gaps = np.asarray(gaps, dtype=float)
    return bool((np.diff(gaps) <= 1e-12 + 1e-9 * gaps[:-1]).all())


def _resolvent_3d(inputs: Inputs, s: _Session):
    seed_contr, seed_sector, seed_ident, seed_sweep = inputs.trial_seeds
    k1, k2, k3, phase = inputs.continuity_wave

    def parse(st):
        st["cfg"] = cfg = fplab.parse_config_text(inputs.ini_text)
        return cfg.dim == 3, {"level": cfg.level, "alphas": len(cfg.alphas)}

    def mesh(st):
        cfg = st["cfg"]
        st["mesh"] = m = fplab.build_ball_mesh(
            (0.0,) * cfg.dim, cfg.radius, levels=cfg.level
        )
        sizes = (m.num_vertices, m.num_elements)
        return sizes == BALL_3D_L4, {"vertices": sizes[0], "elements": sizes[1]}

    def density(st):
        cfg = st["cfg"]
        st["cs"] = cs = fplab.preset(cfg.preset_name, cfg.dim, radius=cfg.radius)
        st["dens"] = d = fplab.solve_invariant_density(st["mesh"], cs)
        return d.rho_min > 0.0, {"rho_min": d.rho_min, "rho_max": d.rho_max}

    def decompose(st):
        st["dec"] = dec = fplab.decompose_drift(st["mesh"], st["cs"], st["dens"])
        q = dec.quadratic_defect
        return math.isfinite(q), {"quadratic_defect": q}

    def form(st):
        st["form"] = f = fplab.assemble_form(
            st["mesh"], st["cs"], st["dens"], st["dec"], d_mode=st["cfg"].d_mode
        )
        return f.d_mode == "skew", {"sym_defect_max": f.sym_defect_max}

    def sector(st):
        rep = fplab.sector_constant(
            st["form"], st["cs"], st["dens"], st["dec"], trials=64, seed=seed_sector
        )
        ok = rep.theoretical is not None and rep.empirical <= SECTOR_SLACK * rep.theoretical
        return ok, {"empirical": rep.empirical, "theoretical": rep.theoretical}

    def contraction(st):
        rep = fplab.check_contraction(
            st["form"], alphas=(1.0, 10.0, 100.0, 1000.0), trials=5, seed=seed_contr
        )
        return rep.max_ratio <= 1.0 + CONTRACTION_TOL, {"max_ratio": rep.max_ratio}

    def identity(st):
        f = _interior_random(st["form"], seed_ident)
        rep = fplab.check_resolvent_identity(st["form"], 1.0, 10.0, f)
        return rep.relative_defect <= IDENTITY_TOL, {"relative_defect": rep.relative_defect}

    def submarkov(st):
        rep = fplab.check_submarkov(st["form"], alpha=10.0)
        ok = rep.min_value >= -SUBMARKOV_TOL and rep.max_value <= 1.0 + SUBMARKOV_TOL
        return ok, {"min": rep.min_value, "max": rep.max_value}

    def continuity(st):
        def wave(x):
            r2 = (x * x).sum(axis=-1)
            arg = k1 * x[..., 0] + k2 * x[..., 1] + k3 * x[..., 2] + phase
            return (1.0 - r2) * (1.5 + 0.5 * np.cos(arg))

        f = fplab.interpolate(st["mesh"], wave)
        rep = fplab.strong_continuity_gaps(st["form"], f, alphas=st["cfg"].alphas)
        final = float(rep.gaps[-1])
        ok = _monotone(rep.gaps) and final <= CONTINUITY_SLACK * rep.final_bound
        return ok, {"final_gap": final, "final_bound": rep.final_bound}

    def sweep(st):
        cfg = st["cfg"]
        rep = fplab.resolvent_sweep(
            st["form"], alphas=cfg.alphas, backend=cfg.backend, seed=seed_sweep
        )
        worst = max(rep.contraction_ratios)
        ok = (
            worst <= 1.0 + CONTRACTION_TOL
            and rep.identity_defect <= IDENTITY_TOL
            and rep.submarkov_min >= -SUBMARKOV_TOL
            and rep.submarkov_max <= 1.0 + SUBMARKOV_TOL
        )
        return ok, {
            "max_ratio": worst,
            "identity_defect": rep.identity_defect,
            "submarkov_min": rep.submarkov_min,
            "submarkov_max": rep.submarkov_max,
        }

    def constants(st):
        cfg = st["cfg"]
        st["cutoff"] = cut = fplab.build_cutoff(
            (0.0,) * cfg.dim, cfg.cutoff_inner, cfg.cutoff_outer
        )
        # h_tilde = rho makes h = h_tilde / rho identically one
        st["const"] = c = fplab.compute_constants(st["cs"], st["dens"], cut, st["dens"].rho)
        return math.isfinite(c.bound) and c.bound > 0.0, {"bound": c.bound}

    def experiment(st):
        cfg = st["cfg"]
        rep = fplab.run_experiment(
            st["form"], st["cutoff"], st["dens"].rho, st["const"],
            alphas=cfg.alphas, backend=cfg.backend,
        )
        ok = rep.margin >= 0.0 and _monotone(rep.l2_gaps)
        return ok, {"margin": rep.margin, "final_gap": float(rep.l2_gaps[-1])}

    for name, fn in (
        ("parse_config_text", parse),
        ("build_ball_mesh", mesh),
        ("solve_invariant_density", density),
        ("decompose_drift", decompose),
        ("assemble_form", form),
        ("sector_constant", sector),
        ("check_contraction", contraction),
        ("check_resolvent_identity", identity),
        ("check_submarkov", submarkov),
        ("strong_continuity_gaps", continuity),
        ("resolvent_sweep", sweep),
        ("compute_constants", constants),
        ("run_experiment", experiment),
    ):
        s.op(name, fn)


def _cli(stage: str, config_path: Path):
    """Run one CLI stage in-process; its console lines are discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fplab.cli.main([stage, "--config", str(config_path)])


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _density_2d(s: _Session, out: Path, config_path: Path):
    def mesh(st):
        code = _cli("mesh", config_path)
        rep = _read_json(out / "mesh_report.json")
        sizes = (rep["num_vertices"], rep["num_elements"])
        ok = code == 0 and rep["conformity"]["conforming"] and sizes == DISK_2D_L6
        return ok, {"exit": code, "vertices": sizes[0], "elements": sizes[1]}

    def density(st):
        code = _cli("density", config_path)
        rep = _read_json(out / "density_report.json")
        resid = rep["divergence_free_max_residual"]
        scale = rep["residual_scale"]
        ratio = rep["rho_max"] / rep["rho_min"]
        # the normalized Gaussian e^{-|x|^2/2} gives rho_max/rho_min = e^{1/2}
        # on the unit disk; the CSV must match it vertex by vertex as well
        table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        shape = table[:, -1] / np.exp(-0.5 * (table[:, :-1] ** 2).sum(axis=1))
        spread = float(shape.max() / shape.min() - 1.0)
        ok = (
            code == 0
            and resid <= DIVERGENCE_TOL * scale
            and abs(ratio / math.exp(0.5) - 1.0) <= DENSITY_ORACLE_TOL
            and spread <= DENSITY_ORACLE_TOL
            and table.shape[0] == DISK_2D_L6[0]
        )
        return ok, {
            "exit": code,
            "divergence_residual": resid,
            "residual_scale": scale,
            "rho_ratio": ratio,
            "oracle_spread": spread,
        }

    s.op("cli.mesh", mesh)
    s.op("cli.density", density)


def _verify(s: _Session, out: Path, config_path: Path, reference):
    def verify(st):
        code = _cli("verify", config_path)
        raw = (out / "verify_report.json").read_bytes()
        rep = json.loads(raw)
        failing = [c["name"] for c in rep["criteria"] if not c["passed"]]
        digest = hashlib.sha256(raw).hexdigest()
        same_bytes = reference is None or digest == reference
        ok = code == 0 and rep["all_passed"] and not failing and same_bytes
        return ok, {"exit": code, "failing": failing, "sha256": digest}

    s.op("cli.verify", verify)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cli_pass(inputs: Inputs, s: _Session, verify_reference):
    """Run the CLI stages of a pass in a fresh output directory."""
    out = WORK_ROOT / inputs.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out.parent / f"{inputs.workload}.ini"
    config_path.write_text(inputs.ini_text)
    if inputs.workload == "density-2d":
        _density_2d(s, out, config_path)
    else:
        _verify(s, out, config_path, verify_reference)
    s.result.bytes_written = _dir_bytes(out)


def run_pass(inputs: Inputs, log=print, verify_reference=None) -> PassResult:
    """Run one pass of the workload; gate failures land in the result.

    `verify_reference` is the report digest of the first pass of the same
    invocation; a `verify` pass whose report differs from it fails.
    """
    s = _Session(log)
    if inputs.workload == "resolvent-3d":
        _resolvent_3d(inputs, s)
    else:
        _cli_pass(inputs, s, verify_reference)
    if s.result.attempted != OPERATIONS[inputs.workload]:
        raise AssertionError(f"{inputs.workload} ran {s.result.attempted} operations")
    return s.result
