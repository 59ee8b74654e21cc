"""Flat INI-style run configuration for the command line front end.

Grammar: section headers in brackets, `key = value` lines, `#` comments.
Sections and keys are closed sets; anything unknown is a ConfigError that
names the offender. The alpha grid accepts either an explicit list of
positive floats or the shorthand `dyadic:N` for {2^0, ..., 2^(N-1)}.

The fields of ExperimentConfig are the key table: each field's metadata
names its section, its key and the parser of its value, and the fields are
in the order `serialize()` writes them. Parsing converts every key present
before it checks values against each other, so of two faults the one
reported first may be a conversion error later in the file.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from .errors import ConfigError


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


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _key(section: str, key: str, parse, default, omit_unset: bool = False):
    """A config field: `[section] key = value`, read by parse(value).
    serialize() leaves an omit_unset key out while it holds its default."""
    meta = {"section": section, "key": key, "parse": parse, "omit_unset": omit_unset}
    return field(default=default, metadata=meta)


def _format(value) -> str:
    if isinstance(value, tuple):
        return " ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class ExperimentConfig:
    """Typed view of a run configuration with serialization round trip."""

    seed: int = _key("run", "seed", int, 0)
    output_dir: str = _key("run", "output_dir", str, "out")
    domain_kind: str = _key("domain", "kind", str, "ball")
    dim: int = _key("domain", "dim", int, 2)
    radius: Optional[float] = _key("domain", "radius", float, None, omit_unset=True)
    center: Tuple[float, ...] = _key("domain", "center", _floats, (), omit_unset=True)
    box_lo: Tuple[float, ...] = _key("domain", "lo", _floats, (), omit_unset=True)
    box_hi: Tuple[float, ...] = _key("domain", "hi", _floats, (), omit_unset=True)
    level: int = _key("domain", "level", int, 2)
    preset_name: str = _key("coefficients", "preset", str, "gaussian_gradient")
    coeff_data: str = _key("coefficients", "data", str, "", omit_unset=True)
    omega: float = _key("coefficients", "omega", float, 1.0)
    cutoff_inner: float = _key("cutoff", "inner", float, 0.5)
    cutoff_outer: float = _key("cutoff", "outer", float, 0.9)
    alphas: Tuple[float, ...] = _key(
        "resolvent", "alphas", parse_alphas, tuple(float(2**k) for k in range(13))
    )
    d_mode: str = _key("resolvent", "d_mode", str, "skew")
    backend: str = _key("resolvent", "backend", str, "direct")
    tol: float = _key("resolvent", "tol", float, 1e-10)
    maxiter: int = _key("resolvent", "maxiter", int, 10000)
    vmo_radii: Tuple[float, ...] = _key("vmo", "radii", _floats, (0.4, 0.2, 0.1, 0.05))
    vmo_samples: int = _key("vmo", "samples", int, 2000)
    mollifier_eps: Tuple[float, ...] = _key("mollifier", "eps", _floats, (0.1, 0.01))
    mollifier_grid: int = _key("mollifier", "grid", int, 201)

    def serialize(self) -> str:
        """Canonical text form; parsing it reproduces this config, so a string
        with surrounding whitespace or a line break is a ConfigError."""
        lines = []
        section = None
        for f in fields(self):
            meta = f.metadata
            if meta["section"] != section:
                section = meta["section"]
                lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
            value = getattr(self, f.name)
            if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
                raise ConfigError(f"[{section}] {meta['key']}: {value!r} would not parse back")
            if not (meta["omit_unset"] and value == f.default):
                lines.append(f"{meta['key']} = {_format(value)}")
        return "\n".join(lines + [""])

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    table = {(f.metadata["section"], f.metadata["key"]): f for f in fields(ExperimentConfig)}
    sections = {section for section, _ in table}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in table:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    cfg = ExperimentConfig()
    for (section, key), f in table.items():
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        parse = f.metadata["parse"]
        try:
            setattr(cfg, f.name, parse(raw))
        except (ValueError, TypeError) as exc:
            what = "bad float list for" if parse is _floats else "invalid value for"
            raise ConfigError(f"{what} [{section}] {key}: {raw!r}") from exc

    if cfg.domain_kind not in ("ball", "box"):
        raise ConfigError(f"[domain] kind must be ball or box, got {cfg.domain_kind!r}")
    if cfg.dim not in (2, 3):
        raise ConfigError(f"[domain] dim must be 2 or 3, got {cfg.dim}")
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
    if cfg.d_mode not in ("skew", "raw"):
        raise ConfigError(f"[resolvent] d_mode must be skew or raw, got {cfg.d_mode!r}")
    if cfg.backend not in ("direct", "gmres"):
        raise ConfigError(
            f"[resolvent] backend must be direct or gmres, got {cfg.backend!r}"
        )
    if cfg.maxiter < 1:
        raise ConfigError(f"[resolvent] maxiter must be >= 1, got {cfg.maxiter}")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigError(f"[resolvent] tol must be positive and finite, got {cfg.tol}")
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
