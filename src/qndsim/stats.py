"""Estimators for the two-pulse records: variances, correlations, conditioning.

All variance estimators are Bessel-corrected.  The +/- combinations carry a
factor 1/2, i.e. sigma_plus = Var(s1 + s2)/2 and sigma_minus = Var(s1 - s2)/2,
so every estimator reads 1/2 at the shot-noise floor.  Standard errors use the
Gaussian fourth-moment formula Var(sample variance) = 2*sigma^4/(n-1); the
bootstrap is available as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Generator, Philox

from .montecarlo import RunResult

DEFAULT_BINS = 21
# Bin range +/-2.5 sigma keeps >= 98% of Gaussian data; bins with fewer than
# two shots cannot carry a Bessel-corrected variance and are dropped.
HALF_RANGE_SIGMAS = 2.5
MIN_BIN_COUNT = 2


class InsufficientDataError(ValueError):
    """Raised when a dataset is too small (or too degenerate) to estimate."""


@dataclass(frozen=True)
class VarianceSummary:
    """Individual and correlation variances of a run, with standard errors."""

    sigma1: float
    sigma2: float
    sigma_plus: float
    sigma_minus: float
    se_sigma1: float
    se_sigma2: float
    se_plus: float
    se_minus: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConditionalResult:
    """Binned conditional variance of s2 given s1, and the implied squeezing."""

    sigma_cond: float
    n_bins: int
    bin_edges: tuple[float, ...]
    per_bin: tuple[tuple[int, float], ...]
    squeezing_db: float
    se_cond: float


def _var(x: np.ndarray) -> float:
    return float(np.var(x, ddof=1))


# The four variance estimators, shared by variances() and bootstrap_ci().
_VARIANCES = {
    "sigma1": lambda s1, s2: _var(s1),
    "sigma2": lambda s1, s2: _var(s2),
    "sigma_plus": lambda s1, s2: _var(s1 + s2) / 2.0,
    "sigma_minus": lambda s1, s2: _var(s1 - s2) / 2.0,
}


def variances(data: RunResult) -> VarianceSummary:
    """Sigma_1, sigma_2 and the +/- correlation variances with standard errors."""
    n = len(data.s1)
    if n < 2:
        raise InsufficientDataError("need at least two shots")
    se_factor = math.sqrt(2.0 / (n - 1))
    v = {name: fn(data.s1, data.s2) for name, fn in _VARIANCES.items()}
    return VarianceSummary(
        **v,
        se_sigma1=v["sigma1"] * se_factor,
        se_sigma2=v["sigma2"] * se_factor,
        se_plus=v["sigma_plus"] * se_factor,
        se_minus=v["sigma_minus"] * se_factor,
        n=n,
    )


def _binned(s1, s2, n_bins):
    """Shared binning kernel; returns (sigma_cond, se, edges, counts, bin_vars)."""
    n = len(s1)
    if n < 2 * MIN_BIN_COUNT:
        raise InsufficientDataError("need at least four shots to bin")
    center = s1.mean()
    spread = s1.std(ddof=1)
    if spread == 0.0:
        raise InsufficientDataError("s1 has zero spread, cannot bin")
    edges = np.linspace(
        center - HALF_RANGE_SIGMAS * spread, center + HALF_RANGE_SIGMAS * spread, n_bins + 1
    )
    idx = np.digitize(s1, edges) - 1
    idx[s1 == edges[-1]] = n_bins - 1  # keep the inclusive upper boundary
    inside = (idx >= 0) & (idx < n_bins)
    which = idx[inside]
    centered = s2[inside] - s2.mean()  # improves the single-pass cancellation
    counts = np.bincount(which, minlength=n_bins)
    sums = np.bincount(which, weights=centered, minlength=n_bins)
    sq = np.bincount(which, weights=centered * centered, minlength=n_bins)
    usable = counts >= MIN_BIN_COUNT
    if usable.sum() < 2:
        raise InsufficientDataError("fewer than two usable bins")
    c = counts[usable].astype(float)
    bin_var = np.full(n_bins, math.nan)
    bin_var[usable] = (sq[usable] - sums[usable] ** 2 / c) / (c - 1.0)
    sigma_cond = float(np.sum(c * bin_var[usable]) / c.sum())
    # per-bin Var(variance) ~ 2*sigma^4/(n_b - 1), pooled sigma^4.
    se = float(sigma_cond * math.sqrt(2.0 * np.sum(c**2 / (c - 1.0))) / c.sum())
    return sigma_cond, se, edges, counts, bin_var


def binned_conditional(data: RunResult, n_bins: int = DEFAULT_BINS) -> ConditionalResult:
    """Conditional variance of s2 from equal-width bins of s1.

    Bins cover mean(s1) +/- HALF_RANGE_SIGMAS * std(s1); shots outside are
    excluded.  sigma_cond averages the per-bin variances of s2 over bins with
    at least two shots, weighted by bin count.  squeezing_db is taken at the
    records' rms per-shot coupling; it is NaN at zero coupling (undefined)
    and +inf when sigma_cond does not exceed the shot-noise floor (see
    :func:`squeezing_db`).
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    sigma_cond, se, edges, counts, bin_var = _binned(data.s1, data.s2, n_bins)
    kappa = math.sqrt(float(np.mean(data.kappa_shot**2)))
    db = squeezing_db(sigma_cond, kappa) if kappa else math.nan
    return ConditionalResult(
        sigma_cond=sigma_cond,
        n_bins=n_bins,
        bin_edges=tuple(edges.tolist()),
        per_bin=tuple(
            (int(c), float(v)) for c, v in zip(counts.tolist(), bin_var.tolist())
        ),
        squeezing_db=db,
        se_cond=se,
    )


def squeezing_db(sigma_cond: float, kappa: float) -> float:
    """Squeezing of the inferred atomic z variance, in dB (positive = squeezed).

    The conditioning gain sigma_cond - 1/2 equals kappa^2 times the residual
    atomic variance, so the ratio of the shot-noise floor kappa^2/2 to the
    gain is the squeezing factor: 10*log10[(kappa^2/2) / (sigma_cond - 1/2)].
    Returns +inf when sigma_cond does not exceed 1/2 (formally infinite
    squeezing, a finite-sample artifact).
    """
    if kappa == 0.0:
        raise ValueError("squeezing is undefined at zero coupling")
    if sigma_cond <= 0.5:
        return math.inf
    return 10.0 * math.log10((kappa * kappa / 2.0) / (sigma_cond - 0.5))


def _est_sigma_cond(s1, s2):
    value, _, _, _, _ = _binned(s1, s2, DEFAULT_BINS)
    return value


_ESTIMATORS = {
    **_VARIANCES,
    "sigma_cond": _est_sigma_cond,
    "conditioning_gain": lambda s1, s2: _var(s2) - _est_sigma_cond(s1, s2),
}


def bootstrap_ci(
    data: RunResult,
    estimator: str,
    resamples: int = 1000,
    level: float = 0.683,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for a named estimator.

    Estimator names: sigma1, sigma2, sigma_plus, sigma_minus, sigma_cond,
    conditioning_gain.  Deterministic for a given seed (single Philox stream,
    the same generator family as the sampler).
    """
    if estimator not in _ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(_ESTIMATORS)}"
        )
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    s1, s2 = data.s1, data.s2
    n = len(s1)
    if n < 10:
        raise InsufficientDataError("need at least ten shots to bootstrap")
    fn = _ESTIMATORS[estimator]
    rng = Generator(Philox(key=seed))
    values = np.empty(resamples)
    for r in range(resamples):
        idx = rng.integers(0, n, size=n)
        values[r] = fn(s1[idx], s2[idx])
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(values, alpha)), float(np.quantile(values, 1.0 - alpha))
