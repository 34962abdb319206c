"""Vacuum/single-photon mixture: quadrature statistics and Wigner function.

The measured state in the local-oscillator mode is

    rho = eta |1><1| + (1 - eta) |0><0|

with eta the single-photon fraction.  The quadrature convention is
x = (a + a^dagger)/sqrt(2), so the vacuum variance is 1/2 and the mixture is
phase independent.  Closed forms used throughout:

    p(x)    = eta * 2 x^2 e^{-x^2}/sqrt(pi) + (1 - eta) * e^{-x^2}/sqrt(pi)
    <x^2>   = 1/2 + eta
    W(x, p) = [(1 - eta) + eta (2 r^2 - 1)] e^{-r^2}/pi,  r^2 = x^2 + p^2

W(0, 0) = (1 - 2 eta)/pi, so the Wigner function is negative at the origin
exactly when eta > 1/2.  No efficiency correction is ever applied: eta is
always the raw detected fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "VACUUM_VARIANCE",
    "HeraldedState",
    "QuadratureSample",
    "EtaEstimate",
    "quadrature_pdf",
    "sample_quadratures",
    "estimate_eta",
    "wigner",
    "wigner_grid",
    "is_nonclassical",
]

VACUUM_VARIANCE = 0.5

# Inverse-CDF sampling table: 2^14 nodes over [-6, 6].  The probability mass
# outside that range is below 1e-14 for every eta, so tail truncation is
# far below sampling noise.
_TABLE_NODES = 2**14
_TABLE_HALF_WIDTH = 6.0


@dataclass(frozen=True)
class HeraldedState:
    """Single-photon fraction eta of the vacuum/one-photon mixture."""

    eta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta <= 1.0) or not np.isfinite(self.eta):
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")


@dataclass(frozen=True)
class QuadratureSample:
    """Phase-averaged quadrature outcomes: a non-empty 1-d array of finite values, in the convention of
    vacuum variance ``VACUUM_VARIANCE``."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("quadrature sample must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("quadrature sample contains non-finite values")
        object.__setattr__(self, "values", vals)


class EtaEstimate(NamedTuple):
    eta_hat: float
    stderr: float
    clamped: bool


def quadrature_pdf(s: HeraldedState, x):
    """Probability density of a quadrature outcome (phase independent).

    Accepts scalars or arrays and broadcasts.
    """
    x = np.asarray(x, dtype=np.float64)
    gauss = np.exp(-(x**2)) / np.sqrt(np.pi)
    out = (1.0 - s.eta) * gauss + s.eta * 2.0 * x**2 * gauss
    return out if out.ndim else float(out)


def _check_sampling(n: int, seed: int = 0) -> None:
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")


def sample_quadratures(s: HeraldedState, n: int, seed: int) -> QuadratureSample:
    """Draw n i.i.d. quadrature outcomes, deterministically for a given seed.

    Sampling inverts the tabulated CDF with linear interpolation on the sorted draws.
    """
    _check_sampling(n, seed)
    xs = np.linspace(-_TABLE_HALF_WIDTH, _TABLE_HALF_WIDTH, _TABLE_NODES)
    pdf = quadrature_pdf(s, xs)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))))
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    order = np.argsort(u)
    values = np.empty(n)
    values[order] = np.interp(u[order], cdf, xs)  # each lookup starts near the last; in draw order, the same bits
    return QuadratureSample(values)


def estimate_eta(q: QuadratureSample) -> EtaEstimate:
    """Moment estimator eta_hat = <x^2> - 1/2 with its standard error.

    The estimate is clamped to [0, 1]; ``clamped`` records whether the raw
    moment fell outside.
    """
    x2 = q.values**2
    if x2.size < 2:
        raise ValueError("eta estimation needs at least two samples")
    spread = float(np.std(x2, ddof=1))
    if spread == 0.0:
        raise ValueError("eta estimation is undefined for a constant sample")
    raw = float(np.mean(x2) - VACUUM_VARIANCE)
    stderr = spread / np.sqrt(x2.size)
    eta_hat = min(1.0, max(0.0, raw))
    return EtaEstimate(eta_hat, stderr, clamped=eta_hat != raw)


def wigner(s: HeraldedState, x, p):
    """Wigner function of the mixture at phase-space point(s) (x, p)."""
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    r2 = x**2 + p**2
    out = ((1.0 - s.eta) + s.eta * (2.0 * r2 - 1.0)) * np.exp(-r2) / np.pi
    return out if out.ndim else float(out)


def _check_wigner_axis(half_width: float, n_side: int) -> None:
    if not (half_width > 0.0):
        raise ValueError(f"half width must be positive, got {half_width!r}")
    if n_side < 2:
        raise ValueError(f"grid side must be >= 2, got {n_side!r}")


def wigner_grid(s: HeraldedState, half_width: float, n_side: int) -> np.ndarray:
    """Wigner function on an n_side x n_side square grid centered on the origin.

    Entry [i, j] is W(x_i, p_j) with both axes running over
    linspace(-half_width, half_width, n_side).
    """
    _check_wigner_axis(half_width, n_side)
    axis = np.linspace(-half_width, half_width, int(n_side))
    return wigner(s, axis[:, None], axis[None, :])


def is_nonclassical(s: HeraldedState) -> bool:
    """True when the Wigner function is negative at the origin (eta > 1/2)."""
    return s.eta > 0.5
