"""One-dimensional mollified cutoffs and their limit identities.

The family phi_eps is the convolution of the clamp psi_eps(t) =
clip(t, -eps, 1+eps) with the standard bump scaled to width eps/2. On the
plateau regions the convolution has closed forms (it equals t in the middle
band and the constants -eps / 1+eps outside); quadrature is only needed on
the two transition bands. The auxiliary convex family Phi_eps integrates
the shifted bump twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import gauss_legendre

# Gauss-Legendre nodes per integration interval of phi_eps and Phi_eps, and
# the independent count of the unit-mass check
_NODES = 64
_MASS_NODES = 200


def _eta_raw(t):
    """Unnormalized standard bump exp(1/(t^2 - 1)) on (-1, 1)."""
    t = np.asarray(t, dtype=float)
    shape = t.shape
    flat = np.atleast_1d(t).ravel()
    out = np.zeros_like(flat)
    inside = np.abs(flat) < 1.0
    out[inside] = np.exp(1.0 / (flat[inside] ** 2 - 1.0))
    return out.reshape(shape) if shape else float(out[0])


@lru_cache(maxsize=1)
def _bump_normalization() -> float:
    nodes, weights = gauss_legendre(400, -1.0, 1.0)
    return float(weights @ _eta_raw(nodes))


def standard_mollifier(t, eps: float = 1.0):
    """eta_eps(t) = eta(t/eps)/eps with unit mass."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = np.asarray(t, dtype=float)
    return _eta_raw(t / eps) / (eps * _bump_normalization())


def mollifier_mass(eps: float) -> float:
    """Quadrature check of int eta_eps = 1 (independent node count)."""
    x, w = gauss_legendre(_MASS_NODES, -eps, eps)
    return float(w @ standard_mollifier(x, eps))


def _clamp(t, eps: float):
    return np.clip(t, -eps, 1.0 + eps)


def _phi_transition(t: float, eps: float) -> float:
    """Convolution integral on a transition band, split at clamp kinks."""
    half = 0.5 * eps
    cuts = [-half, half]
    for kink in (t + eps, t - 1.0 - eps):
        if -half < kink < half:
            cuts.append(kink)
    cuts = sorted(cuts)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 0:
            continue
        x, w = gauss_legendre(_NODES, lo, hi)
        total += float(w @ (standard_mollifier(x, half) * _clamp(t - x, eps)))
    return total


def phi_eps_quadrature(t, eps: float):
    """phi_eps by quadrature everywhere (no closed-form shortcuts)."""
    t = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t).ravel()
    out = np.array([_phi_transition(x, eps) for x in flat])
    return out.reshape(np.atleast_1d(t).shape) if t.ndim else float(out[0])


def phi_eps(t, eps: float):
    """The mollified clamp phi_eps = eta_{eps/2} * psi_eps.

    Closed forms hold off the transition bands: phi_eps(t) = t on
    [-eps/2, 1 + eps/2], = -eps on (-inf, -3 eps/2], = 1 + eps on
    [1 + 3 eps/2, inf); values are 1-Lipschitz, nondecreasing, and stay in
    [-eps, 1 + eps].
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    flat = np.atleast_1d(t).astype(float).ravel()
    out = np.empty_like(flat)
    lo_band = flat <= -1.5 * eps
    hi_band = flat >= 1.0 + 1.5 * eps
    mid_band = (flat >= -0.5 * eps) & (flat <= 1.0 + 0.5 * eps)
    out[lo_band] = -eps
    out[hi_band] = 1.0 + eps
    out[mid_band] = flat[mid_band]
    rest = ~(lo_band | hi_band | mid_band)
    out[rest] = [_phi_transition(x, eps) for x in flat[rest]]
    result = out.reshape(np.atleast_1d(t).shape)
    return float(result[0]) if scalar else result


def phi_eps_prime(t, eps: float):
    """Central difference of the convolution at step eps^2."""
    h = eps * eps
    return (phi_eps(np.asarray(t) + h, eps) - phi_eps(np.asarray(t) - h, eps)) / (2.0 * h)


@dataclass
class MollifierLimitReport:
    """Deviation of (phi_eps, phi_eps') from their pointwise limits."""

    ts: np.ndarray
    eps_seq: np.ndarray
    value_dev: np.ndarray  # (neps,) max |phi_eps(t) - (t+ ^ 1)|
    deriv_dev: np.ndarray  # (neps,) max |phi_eps'(t) - 1_[0,1](t)|


def phi_eps_limits(ts, eps_seq) -> MollifierLimitReport:
    """Compare phi_eps and its derivative against t+ ^ 1 and 1_[0,1].

    The derivative limit only makes sense pointwise away from the corner
    set {0, 1}; callers choose ts accordingly. Deviations should be O(eps).
    """
    ts = np.asarray(ts, dtype=float)
    eps_seq = np.asarray(eps_seq, dtype=float)
    target_val = np.minimum(np.maximum(ts, 0.0), 1.0)
    target_der = ((ts >= 0.0) & (ts <= 1.0)).astype(float)
    value_dev = np.zeros(eps_seq.size)
    deriv_dev = np.zeros(eps_seq.size)
    for i, eps in enumerate(eps_seq):
        value_dev[i] = float(np.abs(phi_eps(ts, eps) - target_val).max())
        deriv_dev[i] = float(np.abs(phi_eps_prime(ts, eps) - target_der).max())
    return MollifierLimitReport(
        ts=ts, eps_seq=eps_seq, value_dev=value_dev, deriv_dev=deriv_dev
    )


def _zeta(t: float, eps: float) -> float:
    """zeta_eps(t) = int_{-inf}^{t} eta_{eps/2}(s - 1 - eps/2) ds."""
    if t <= 1.0:
        return 0.0
    if t >= 1.0 + eps:
        return 1.0
    x, w = gauss_legendre(_NODES, 1.0, t)
    return float(w @ standard_mollifier(x - 1.0 - 0.5 * eps, 0.5 * eps))


def capital_phi_eps(t, eps: float):
    """The convex ramp Phi_eps with its first two derivatives.

    Returns (Phi, Phi', Phi''). Phi vanishes on (-inf, 1], Phi' = zeta_eps
    climbs from 0 to 1 across (1, 1 + eps), Phi'' = eta_{eps/2}(t - 1 - eps/2)
    is nonnegative, and beyond 1 + eps the ramp is exactly t - 1 - eps/2.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    flat = np.atleast_1d(t_arr).ravel()
    phi = np.zeros_like(flat)
    dphi = np.zeros_like(flat)
    ddphi = standard_mollifier(flat - 1.0 - 0.5 * eps, 0.5 * eps)
    for i, x in enumerate(flat):
        dphi[i] = _zeta(float(x), eps)
        if x <= 1.0:
            phi[i] = 0.0
        elif x >= 1.0 + eps:
            phi[i] = x - 1.0 - 0.5 * eps
        else:
            nodes_x, w = gauss_legendre(_NODES, 1.0, float(x))
            kernel = standard_mollifier(nodes_x - 1.0 - 0.5 * eps, 0.5 * eps)
            phi[i] = float(w @ ((float(x) - nodes_x) * kernel))
    if scalar:
        return float(phi[0]), float(dphi[0]), float(ddphi[0])
    shape = np.atleast_1d(t_arr).shape
    return phi.reshape(shape), dphi.reshape(shape), ddphi.reshape(shape)


@dataclass
class MollifierFamily:
    """Parameter bundle for report generation."""

    eps: float

    def table(self, ts) -> np.ndarray:
        """Columns: t, phi_eps, phi_eps', Phi_eps, Phi_eps'."""
        ts = np.asarray(ts, dtype=float)
        phi = phi_eps(ts, self.eps)
        dphi = phi_eps_prime(ts, self.eps)
        cap, dcap, _ = capital_phi_eps(ts, self.eps)
        return np.column_stack([ts, phi, dphi, cap, dcap])
