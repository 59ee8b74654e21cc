"""Flat INI-style run configuration for the command line front end.

Grammar: section headers in brackets, `key = value` lines, `#` comments.
Sections and keys are closed sets; anything unknown is a ConfigError that
names the offender. The alpha grid accepts either an explicit list of
positive floats or the shorthand `dyadic:N` for {2^0, ..., 2^(N-1)}.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigError

_KNOWN_KEYS = {
    "run": {"seed", "output_dir"},
    "domain": {"kind", "dim", "radius", "center", "lo", "hi", "level"},
    "coefficients": {"preset", "data", "omega"},
    "cutoff": {"inner", "outer"},
    "resolvent": {"alphas", "d_mode", "backend", "tol", "maxiter"},
    "vmo": {"radii", "samples"},
    "mollifier": {"eps", "grid"},
}


def parse_alphas(text: str) -> Tuple[float, ...]:
    """Parse an alpha-grid spec: `dyadic:N` or a list of positive floats."""
    text = text.strip()
    if text.startswith("dyadic:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad dyadic alpha spec {text!r}") from exc
        if n < 1:
            raise ConfigError(f"dyadic alpha count must be >= 1, got {n}")
        return tuple(float(2**k) for k in range(n))
    try:
        vals = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad alpha list {text!r}") from exc
    if not vals:
        raise ConfigError("alpha grid is empty")
    if any(v <= 0 for v in vals):
        raise ConfigError(f"alpha grid must be positive, got {text!r}")
    return vals


def _floats(text: str, what: str) -> Tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad float list for {what}: {text!r}") from exc


@dataclass
class ExperimentConfig:
    """Typed view of a run configuration with serialization round trip."""

    seed: int = 0
    output_dir: str = "out"
    domain_kind: str = "ball"
    dim: int = 2
    radius: Optional[float] = None
    center: Tuple[float, ...] = ()
    box_lo: Tuple[float, ...] = ()
    box_hi: Tuple[float, ...] = ()
    level: int = 2
    preset_name: str = "gaussian_gradient"
    coeff_data: str = ""
    omega: float = 1.0
    cutoff_inner: float = 0.5
    cutoff_outer: float = 0.9
    alphas: Tuple[float, ...] = tuple(float(2**k) for k in range(13))
    d_mode: str = "skew"
    backend: str = "direct"
    tol: float = 1e-10
    maxiter: int = 10000
    vmo_radii: Tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    vmo_samples: int = 2000
    mollifier_eps: Tuple[float, ...] = (0.1, 0.01)
    mollifier_grid: int = 201

    def serialize(self) -> str:
        """Canonical text form; parsing it reproduces this config."""
        lines = [
            "[run]",
            f"seed = {self.seed}",
            f"output_dir = {self.output_dir}",
            "",
            "[domain]",
            f"kind = {self.domain_kind}",
            f"dim = {self.dim}",
        ]
        if self.radius is not None:
            lines.append(f"radius = {self.radius!r}")
        if self.center:
            lines.append("center = " + " ".join(repr(c) for c in self.center))
        if self.box_lo:
            lines.append("lo = " + " ".join(repr(c) for c in self.box_lo))
        if self.box_hi:
            lines.append("hi = " + " ".join(repr(c) for c in self.box_hi))
        lines += [
            f"level = {self.level}",
            "",
            "[coefficients]",
            f"preset = {self.preset_name}",
        ]
        if self.coeff_data:
            lines.append(f"data = {self.coeff_data}")
        lines += [
            f"omega = {self.omega!r}",
            "",
            "[cutoff]",
            f"inner = {self.cutoff_inner!r}",
            f"outer = {self.cutoff_outer!r}",
            "",
            "[resolvent]",
            "alphas = " + " ".join(repr(a) for a in self.alphas),
            f"d_mode = {self.d_mode}",
            f"backend = {self.backend}",
            f"tol = {self.tol!r}",
            f"maxiter = {self.maxiter}",
            "",
            "[vmo]",
            "radii = " + " ".join(repr(r) for r in self.vmo_radii),
            f"samples = {self.vmo_samples}",
            "",
            "[mollifier]",
            "eps = " + " ".join(repr(e) for e in self.mollifier_eps),
            f"grid = {self.mollifier_grid}",
            "",
        ]
        return "\n".join(lines)

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    get = parser.get

    def typed(section, key, conv, default):
        if not parser.has_option(section, key):
            return default
        raw = get(section, key)
        try:
            return conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"invalid value for [{section}] {key}: {raw!r}"
            ) from exc

    cfg.seed = typed("run", "seed", int, cfg.seed)
    cfg.output_dir = typed("run", "output_dir", str, cfg.output_dir)
    cfg.domain_kind = typed("domain", "kind", str, cfg.domain_kind)
    if cfg.domain_kind not in ("ball", "box"):
        raise ConfigError(f"[domain] kind must be ball or box, got {cfg.domain_kind!r}")
    cfg.dim = typed("domain", "dim", int, cfg.dim)
    if cfg.dim not in (2, 3):
        raise ConfigError(f"[domain] dim must be 2 or 3, got {cfg.dim}")
    cfg.radius = typed("domain", "radius", float, cfg.radius)
    cfg.center = typed(
        "domain", "center", lambda s: _floats(s, "[domain] center"), cfg.center
    )
    cfg.box_lo = typed("domain", "lo", lambda s: _floats(s, "[domain] lo"), cfg.box_lo)
    cfg.box_hi = typed("domain", "hi", lambda s: _floats(s, "[domain] hi"), cfg.box_hi)
    cfg.level = typed("domain", "level", int, cfg.level)
    if cfg.domain_kind == "ball":
        if cfg.radius is None:
            raise ConfigError("[domain] radius is required for kind = ball")
        if cfg.radius <= 0:
            raise ConfigError(f"[domain] radius must be positive, got {cfg.radius}")
        if cfg.center and len(cfg.center) != cfg.dim:
            raise ConfigError(
                f"[domain] center has {len(cfg.center)} components for dim {cfg.dim}"
            )
    else:
        if not cfg.box_lo or not cfg.box_hi:
            raise ConfigError("[domain] lo and hi are required for kind = box")
        if len(cfg.box_lo) != cfg.dim or len(cfg.box_hi) != cfg.dim:
            raise ConfigError("[domain] lo/hi length must match dim")
    if cfg.level < 0:
        raise ConfigError(f"[domain] level must be >= 0, got {cfg.level}")

    cfg.preset_name = typed("coefficients", "preset", str, cfg.preset_name)
    cfg.coeff_data = typed("coefficients", "data", str, cfg.coeff_data)
    cfg.omega = typed("coefficients", "omega", float, cfg.omega)
    cfg.cutoff_inner = typed("cutoff", "inner", float, cfg.cutoff_inner)
    cfg.cutoff_outer = typed("cutoff", "outer", float, cfg.cutoff_outer)
    cfg.alphas = typed("resolvent", "alphas", parse_alphas, cfg.alphas)
    cfg.d_mode = typed("resolvent", "d_mode", str, cfg.d_mode)
    if cfg.d_mode not in ("skew", "raw"):
        raise ConfigError(f"[resolvent] d_mode must be skew or raw, got {cfg.d_mode!r}")
    cfg.backend = typed("resolvent", "backend", str, cfg.backend)
    if cfg.backend not in ("direct", "gmres"):
        raise ConfigError(
            f"[resolvent] backend must be direct or gmres, got {cfg.backend!r}"
        )
    if cfg.backend == "gmres" and (cfg.domain_kind != "ball" or cfg.level < 1):
        # the multigrid preconditioner runs on the refinement lineage of a
        # ball mesh, which a box mesh and the unrefined template lack
        raise ConfigError(
            "[resolvent] backend = gmres needs a refined ball mesh "
            "([domain] kind = ball, level >= 1)"
        )
    cfg.tol = typed("resolvent", "tol", float, cfg.tol)
    cfg.maxiter = typed("resolvent", "maxiter", int, cfg.maxiter)
    cfg.vmo_radii = typed(
        "vmo", "radii", lambda s: _floats(s, "[vmo] radii"), cfg.vmo_radii
    )
    cfg.vmo_samples = typed("vmo", "samples", int, cfg.vmo_samples)
    cfg.mollifier_eps = typed(
        "mollifier", "eps", lambda s: _floats(s, "[mollifier] eps"), cfg.mollifier_eps
    )
    cfg.mollifier_grid = typed("mollifier", "grid", int, cfg.mollifier_grid)
    if any(e <= 0 for e in cfg.mollifier_eps):
        raise ConfigError("[mollifier] eps values must be positive")
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; errors carry the file name."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
