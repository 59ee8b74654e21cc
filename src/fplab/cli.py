"""Configuration-driven command line front end.

Subcommands run the pipeline stages and drop machine-readable reports into
the configured output directory. Exit codes: 0 success, 1 a mathematical
verification failed, 2 usage or configuration error, 3 solver failure;
each package error class carries its own code (see `errors`).

Reports embed the config hash and the package version. CSV files are
written with repr-exact floats, so identical config and seed give byte
identical output; JSON is emitted with sorted keys.

A stage runs with every loaded OpenBLAS set to one thread (see
`_one_blas_thread`), so its output does not depend on the BLAS thread
count of the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import version_string
from .config import ExperimentConfig, parse_config, parse_config_text
from .coefficients import (
    CoefficientSet,
    load_coefficient_data,
    preset,
    vmo_modulus,
)
from .density import decompose_drift, divergence_free_residual, solve_invariant_density
from .errors import ConfigError, FplabError
from .experiment import (
    build_cutoff,
    compute_constants,
    convergence_diagnostics,
    run_experiment,
)
from .forms import assemble_form, resolvent_sweep
from .mesh import build_ball_mesh, build_box_mesh, check_conformity, mesh_quality, write_mesh
from .mollifiers import MollifierFamily, mollifier_mass, phi_eps
from .verify import report_dict, run_all

DEFAULT_CONFIG_TEXT = """\
[domain]
kind = ball
dim = 2
radius = 1.0
level = 3
"""


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict, cfg: ExperimentConfig):
    payload = dict(payload)
    payload["config_sha256"] = cfg.sha256()
    payload["version"] = version_string()
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, columns):
    """Write 1-D columns and 2-D column blocks side by side, repr-exact."""
    rows = np.column_stack(columns).tolist()
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_plot(path: Path, comment: str, rows):
    lines = [f"# {comment}"]
    for a, b in rows:
        lines.append(f"{float(a)!r} {float(b)!r}")
    path.write_text("\n".join(lines) + "\n")


def _build_mesh(cfg: ExperimentConfig):
    if cfg.domain_kind == "ball":
        center = cfg.center or (0.0,) * cfg.dim
        return build_ball_mesh(center, cfg.radius, levels=cfg.level)
    return build_box_mesh(cfg.box_lo, cfg.box_hi, 2**cfg.level)


def _coefficients(cfg: ExperimentConfig, mesh) -> CoefficientSet:
    if cfg.coeff_data:
        return load_coefficient_data(cfg.coeff_data, mesh)
    # the preset's bounds hold for |x| <= radius: the largest |x| on the domain
    if cfg.domain_kind == "ball":
        radius = float(np.linalg.norm(cfg.center or (0.0,) * cfg.dim)) + cfg.radius
    else:
        corner = np.maximum(np.abs(cfg.box_lo), np.abs(cfg.box_hi))
        radius = float(np.linalg.norm(corner))
    return preset(cfg.preset_name, cfg.dim, radius=radius, omega=cfg.omega)


def cmd_mesh(cfg: ExperimentConfig, emit_plots: bool) -> int:
    out = _out_dir(cfg)
    mesh = _build_mesh(cfg)
    write_mesh(mesh, out / "mesh.npz")
    quality = mesh_quality(mesh)
    conformity = check_conformity(mesh)
    report = {
        "dim": mesh.dim,
        "num_vertices": mesh.num_vertices,
        "num_elements": mesh.num_elements,
        "num_boundary_vertices": int(mesh.boundary.sum()),
        "total_volume": mesh.total_volume(),
        "quality": quality,
        "conformity": conformity,
    }
    _write_json(out / "mesh_report.json", report, cfg)
    print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_elements} elements -> {out}")
    return 0


def _density_pipeline(cfg: ExperimentConfig):
    mesh = _build_mesh(cfg)
    if not mesh.interior.size:
        raise ConfigError(f"[domain] level {cfg.level} gives a mesh without an interior vertex")
    cs = _coefficients(cfg, mesh)
    density = solve_invariant_density(mesh, cs)
    decomposition = decompose_drift(mesh, cs, density)
    return mesh, cs, density, decomposition


def cmd_density(cfg: ExperimentConfig, emit_plots: bool) -> int:
    out = _out_dir(cfg)
    mesh, cs, density, decomposition = _density_pipeline(cfg)
    residual = divergence_free_residual(mesh, decomposition)
    header = [f"x{i}" for i in range(mesh.dim)] + ["rho"]
    _write_csv(out / "density.csv", header, [mesh.vertices, density.rho.values])
    report = {
        "preset": cs.name,
        "rho_min": density.rho_min,
        "rho_max": density.rho_max,
        "stationarity_residual": density.residual,
        "residual_scale": density.residual_scale,
        "divergence_free_max_residual": residual["max_residual"],
        "quadratic_defect": decomposition.quadratic_defect,
    }
    _write_json(out / "density_report.json", report, cfg)
    print(
        f"density: rho in [{density.rho_min:.4f}, {density.rho_max:.4f}], "
        f"divergence residual {residual['max_residual']:.3e} -> {out}"
    )
    return 0


def cmd_resolvent(cfg: ExperimentConfig, emit_plots: bool) -> int:
    out = _out_dir(cfg)
    mesh, cs, density, decomposition = _density_pipeline(cfg)
    form = assemble_form(mesh, cs, density, decomposition, d_mode=cfg.d_mode)
    sweep = resolvent_sweep(
        form,
        alphas=cfg.alphas,
        backend=cfg.backend,
        seed=cfg.seed,
        tol=cfg.tol,
        maxiter=cfg.maxiter,
    )
    _write_csv(
        out / "resolvent.csv",
        ["alpha", "contraction_ratio", "linear_residual"],
        [sweep.alphas, sweep.contraction_ratios, sweep.residuals],
    )
    report = {
        "alphas": list(sweep.alphas),
        "contraction_ratios": list(sweep.contraction_ratios),
        "max_contraction_ratio": max(sweep.contraction_ratios),
        "resolvent_identity_defect": sweep.identity_defect,
        "submarkov_min": sweep.submarkov_min,
        "submarkov_max": sweep.submarkov_max,
        "backend": cfg.backend,
        "lu_solves": sweep.lu_solves,
        "d_mode": form.d_mode,
        "sym_defect_max": form.sym_defect_max,
    }
    _write_json(out / "resolvent_report.json", report, cfg)
    if emit_plots:
        _write_plot(
            out / "contraction_vs_alpha.dat",
            "alpha  ||alpha G_alpha f|| / ||f||",
            zip(sweep.alphas, sweep.contraction_ratios),
        )
    print(
        f"resolvent: max contraction ratio "
        f"{max(sweep.contraction_ratios):.12f} over {len(sweep.alphas)} alphas -> {out}"
    )
    return 0


def cmd_experiment(cfg: ExperimentConfig, emit_plots: bool) -> int:
    out = _out_dir(cfg)
    mesh, cs, density, decomposition = _density_pipeline(cfg)
    sources = {"c": cs.c, "f": cs.f_data, "flux": cs.flux_data}
    present = [name for name, value in sources.items() if value is not None]
    if present:
        # the sweep takes h_tilde = rho, which solves the double-divergence
        # problem without source terms, while the bound counts their norms
        raise ConfigError(
            f"the experiment solves the homogeneous problem (h_tilde = rho); "
            f"coefficient data {cfg.coeff_data} carries {', '.join(present)}"
        )
    form = assemble_form(mesh, cs, density, decomposition, d_mode=cfg.d_mode)
    center = cfg.center or (0.0,) * cfg.dim
    cutoff = build_cutoff(center, cfg.cutoff_inner, cfg.cutoff_outer)
    h_tilde = density.rho
    constants = compute_constants(cs, density, cutoff, h_tilde)
    report = run_experiment(
        form,
        cutoff,
        h_tilde,
        constants,
        alphas=cfg.alphas,
        backend=cfg.backend,
        tol=cfg.tol,
        maxiter=cfg.maxiter,
    )
    diag = convergence_diagnostics(report)
    _write_csv(
        out / "experiment.csv",
        ["alpha", "energy", "l2_gap", "h1_seminorm"],
        [report.alphas, report.energies, report.l2_gaps, report.h1_seminorms],
    )
    payload = {
        "constants": constants.as_dict(),
        "alphas": list(report.alphas),
        "energies": [float(e) for e in report.energies],
        "l2_gaps": [float(g) for g in report.l2_gaps],
        "sup_energy": report.sup_energy,
        "bound": report.bound,
        "margin": report.margin,
        "l2_monotone": diag.l2_monotone,
        "l2_reduction": diag.l2_reduction,
        "form_norm_bounded": diag.form_norm_bounded,
    }
    _write_json(out / "energy_bound.json", payload, cfg)
    if emit_plots:
        _write_plot(
            out / "energy_vs_alpha.dat",
            f"alpha  E(chi alpha G_alpha h); bound = {report.bound!r}",
            zip(report.alphas, report.energies),
        )
        _write_plot(
            out / "gap_vs_alpha.dat",
            "alpha  ||alpha G_alpha h - h||_mu",
            zip(report.alphas, report.l2_gaps),
        )
    print(
        f"experiment: sup energy {report.sup_energy:.6f} vs bound "
        f"{report.bound:.6f} (margin {report.margin:.6f}) -> {out}"
    )
    return 0 if report.margin >= 0.0 else 1


def cmd_verify(cfg: ExperimentConfig, emit_plots: bool) -> int:
    out = _out_dir(cfg)
    results = run_all()
    for r in results:
        print(f"{r.line()}  [{r.elapsed:.2f}s]")
    _write_json(out / "verify_report.json", report_dict(results), cfg)
    passed = all(r.passed for r in results)
    print("verify: all criteria passed" if passed else "verify: FAILURES present")
    return 0 if passed else 1


def cmd_mollifier(cfg: ExperimentConfig, emit_plots: bool) -> int:
    out = _out_dir(cfg)
    ts = np.linspace(-1.0, 2.0, cfg.mollifier_grid)
    summary = {}
    for eps in cfg.mollifier_eps:
        fam = MollifierFamily(eps)
        table = fam.table(ts)
        name = f"mollifier_{eps:g}"
        _write_csv(
            out / f"{name}.csv",
            ["t", "phi", "phi_prime", "Phi", "Phi_prime"],
            [table],
        )
        phi = phi_eps(ts, eps)
        summary[f"{eps:g}"] = {
            "mass_error": abs(mollifier_mass(eps) - 1.0),
            "clamp_deviation": float(np.abs(phi - np.clip(ts, 0.0, 1.0)).max()),
            "range_low": float(phi.min()),
            "range_high": float(phi.max()),
        }
        if emit_plots:
            _write_plot(
                out / f"{name}.dat",
                "t  phi_eps(t)",
                zip(ts, phi),
            )
    _write_json(out / "mollifier_report.json", {"eps": summary}, cfg)
    print(f"mollifier: {len(cfg.mollifier_eps)} tables over {cfg.mollifier_grid} points -> {out}")
    return 0


def cmd_vmo(cfg: ExperimentConfig, emit_plots: bool) -> int:
    out = _out_dir(cfg)
    mesh = _build_mesh(cfg)
    cs = _coefficients(cfg, mesh)

    def field(x):
        a = np.asarray(cs.a(x), dtype=float)
        return a[..., 0, 0]

    report = vmo_modulus(
        field,
        mesh.domain,
        radii=cfg.vmo_radii,
        samples=cfg.vmo_samples,
        seed=cfg.seed,
    )
    _write_csv(
        out / "vmo.csv",
        ["radius", "raw_estimate", "modulus", "stderr"],
        [report.radii, report.raw, report.modulus, report.stderr],
    )
    payload = {
        "field": f"a[0,0] of {cs.name}",
        "radii": [float(r) for r in report.radii],
        "modulus": [float(m) for m in report.modulus],
        "stderr": [float(s) for s in report.stderr],
        "samples": report.samples,
        "num_centers": report.num_centers,
        "seed": report.seed,
    }
    _write_json(out / "vmo_report.json", payload, cfg)
    if emit_plots:
        _write_plot(
            out / "vmo_modulus.dat",
            "radius  modulus",
            zip(report.radii, report.modulus),
        )
    print(f"vmo: modulus over {len(report.radii)} radii -> {out}")
    return 0


COMMANDS = {
    "mesh": cmd_mesh,
    "density": cmd_density,
    "resolvent": cmd_resolvent,
    "experiment": cmd_experiment,
    "verify": cmd_verify,
    "mollifier": cmd_mollifier,
    "vmo": cmd_vmo,
}


# the (get, set) thread-count functions of the ILP64 OpenBLAS bundled with
# NumPy 2.x and with NumPy 1.x, SciPy's OpenBLAS, and an LP64 OpenBLAS
# (older SciPy wheels, a system build)
_OPENBLAS_THREAD_CONTROLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _mapped_libraries() -> set:
    """Paths of the shared libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as f:
            fields = [line.split(maxsplit=5) for line in f]
    except OSError:
        return set()
    return {parts[5].strip() for parts in fields if len(parts) == 6}


def _openblas_thread_controls() -> list:
    """The (get, set) thread-count functions of every loaded OpenBLAS."""
    controls = []
    for path in sorted(_mapped_libraries()):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CONTROLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore
    each library's count.

    A stage's BLAS work is level 1 and 2 on vectors of 1e3 to 1e5 entries
    (GMRES, norms) and SuperLU's small supernode kernels: more threads gain
    nothing there, their idle workers spin on the other cores, and they make
    GMRES and SuperLU reductions, hence the reports, depend on their count.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fplab",
        description="Stationary Fokker-Planck laboratory: meshes, invariant "
        "densities, sectorial resolvents, and the cutoff energy-bound experiment.",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument(
            "--config",
            default=None,
            help="path to an INI run configuration (defaults to a unit disk run)",
        )
        p.add_argument(
            "--emit-plot-data",
            action="store_true",
            help="also write gnuplot-compatible two-column .dat files",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    if args.config is not None:
        try:
            cfg = parse_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return exc.exit_code
    else:
        cfg = parse_config_text(DEFAULT_CONFIG_TEXT)
    try:
        with _one_blas_thread():
            return COMMANDS[args.command](cfg, args.emit_plot_data)
    except FplabError as exc:
        line = exc.stderr_format.format(name=type(exc).__name__, message=exc)
        print(f"{args.command}: {line}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
