"""Estimators for the two-pulse records: variances, correlations, conditioning.

All variance estimators are Bessel-corrected.  The +/- combinations carry a
factor 1/2, i.e. sigma_plus = Var(s1 + s2)/2 and sigma_minus = Var(s1 - s2)/2,
so every estimator reads 1/2 at the shot-noise floor.  Standard errors use the
Gaussian fourth-moment formula Var(sample variance) = 2*sigma^4/(n-1); the
bootstrap is available as an independent cross-check.

The binned conditional variance is one pipeline with two bin lookups: _edges
gives each row's edges and _pool pools the per-bin variances of centred s2,
while binned_conditional finds the bins with np.digitize and the bootstrap
with one sort of s1 per call.  The bootstrap evaluates its resamples in
blocks of about 2**14 draws, which keeps its arrays in cache and its memory
flat; every estimator gives one value per row.  Each resample is still drawn
by its own ``integers`` call, so neither the draws nor the intervals depend
on the block size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Generator, Philox

from .montecarlo import RunResult
from .physics import is_positive_int

DEFAULT_BINS = 21
# Bin range +/-2.5 sigma keeps >= 98% of Gaussian data; bins with fewer than
# two shots cannot carry a Bessel-corrected variance and are dropped.
HALF_RANGE_SIGMAS = 2.5
MIN_BIN_COUNT = 2
# Draws per bootstrap block: rows = max(1, BLOCK_DRAWS // n).
BLOCK_DRAWS = 2**14
_ZERO_SPREAD = "s1 has zero spread, cannot bin"


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


def _var(x: np.ndarray) -> np.ndarray:
    """Bessel-corrected variance of a column, or of each row of a block."""
    return np.var(x, axis=-1, ddof=1)


# The four variance estimators, shared by variances() and bootstrap_ci(): each
# is Var(column) / divisor for a column formed from s1 and s2.
_VARIANCES = {
    "sigma1": (lambda s1, s2: s1, 1.0),
    "sigma2": (lambda s1, s2: s2, 1.0),
    "sigma_plus": (lambda s1, s2: s1 + s2, 2.0),
    "sigma_minus": (lambda s1, s2: s1 - s2, 2.0),
}


def variances(data: RunResult) -> VarianceSummary:
    """Sigma_1, sigma_2 and the +/- correlation variances with standard errors."""
    n = len(data.s1)
    if n < 2:
        raise InsufficientDataError("need at least two shots")
    se_factor = math.sqrt(2.0 / (n - 1))
    v = {
        name: float(_var(column(data.s1, data.s2)) / divisor)
        for name, (column, divisor) in _VARIANCES.items()
    }
    return VarianceSummary(
        **v,
        se_sigma1=v["sigma1"] * se_factor,
        se_sigma2=v["sigma2"] * se_factor,
        se_plus=v["sigma_plus"] * se_factor,
        se_minus=v["sigma_minus"] * se_factor,
        n=n,
    )


def _edges(x, n_bins):
    """Edges mean +/- HALF_RANGE_SIGMAS sd of each row of an (m, n) block, and each row's sd."""
    center, spread = x.mean(axis=1), x.std(axis=1, ddof=1)
    # zero-spread rows raise in _pool; a stand-in keeps np.linspace on the
    # path that it takes for rows with nonzero spread
    half = HALF_RANGE_SIGMAS * np.where(spread == 0.0, 1.0, spread)
    return np.linspace(center - half, center + half, n_bins + 1, axis=1), spread


def _pool(slot, centered, spread, n_bins):
    """Count-weighted mean of the per-bin variances of centred s2, one value per row.

    ``slot`` holds row * (n_bins + 1) + bin for every shot of every row, with
    bin = n_bins for the shots outside the range; ``centered`` holds the
    shots' centred s2 in the same order.  Rows before the first zero-spread
    row are pooled first, so a row with fewer than two usable bins raises
    ahead of a later zero-spread row.  Returns sigma_cond per row, and the
    (m, n_bins) counts and variances, NaN in bins too small to use.
    """
    m, slots = len(spread), n_bins + 1
    counts, sums, sq = (
        np.bincount(slot, weights, minlength=m * slots).reshape(m, slots)[:, :n_bins]
        for weights in (None, centered, centered * centered)
    )
    zero = spread == 0.0
    end = int(zero.argmax()) if zero.any() else m
    usable = counts[:end] >= MIN_BIN_COUNT
    per_row = usable.sum(axis=1)
    if (per_row < 2).any():
        raise InsufficientDataError("fewer than two usable bins")
    if end < m:
        raise InsufficientDataError(_ZERO_SPREAD)
    c = counts[usable].astype(float)
    var = np.full(counts.shape, math.nan)
    var[usable] = (sq[usable] - sums[usable] ** 2 / c) / (c - 1.0)
    weighted = c * var[usable]
    # one np.sum per row over its own usable bins: a zero-padded sum along
    # axis 1 would group the terms, and so round, differently
    ends = np.cumsum(per_row).tolist()
    sums_per_row = [weighted[end - k : end].sum() for end, k in zip(ends, per_row.tolist())]
    return np.array(sums_per_row) / (counts * usable).sum(axis=1), counts, var


def binned_conditional(data: RunResult, n_bins: int = DEFAULT_BINS) -> ConditionalResult:
    """Conditional variance of s2 from equal-width bins of s1.

    Bins cover mean(s1) +/- HALF_RANGE_SIGMAS * std(s1); shots outside are
    excluded.  sigma_cond averages the per-bin variances of s2 over bins with
    at least two shots, weighted by bin count.  squeezing_db is taken at the
    records' rms per-shot coupling; it is NaN at zero coupling (undefined)
    and +inf when sigma_cond does not exceed the shot-noise floor (see
    :func:`squeezing_db`).
    """
    if not is_positive_int(n_bins):
        raise ValueError(f"n_bins must be a positive integer, got {n_bins!r}")
    s1, s2 = data.s1, data.s2
    if len(s1) < 2 * MIN_BIN_COUNT:
        raise InsufficientDataError("need at least four shots to bin")
    (edges,), spread = _edges(s1[None], n_bins)
    slot = np.digitize(s1, edges) - 1
    slot[s1 == edges[-1]] = n_bins - 1  # keep the inclusive upper boundary
    slot[slot < 0] = n_bins  # below the range: the dummy slot, as above it
    centered = s2 - s2.mean()  # improves the single-pass cancellation
    sigma, (counts,), (bin_var,) = _pool(slot, centered, spread, n_bins)
    sigma_cond = float(sigma[0])
    c = counts[counts >= MIN_BIN_COUNT].astype(float)
    # per-bin Var(variance) ~ 2*sigma^4/(n_b - 1), pooled sigma^4.
    se = float(sigma_cond * math.sqrt(2.0 * np.sum(c**2 / (c - 1.0))) / c.sum())
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


def _sigma_cond_rows(s1, s2):
    """sigma_cond of each row of a block of resample indices, as binned_conditional gives it.

    Only the bin lookup differs from binned_conditional: s1 is sorted once,
    and a row's shots take the bin of their rank, found by locating the
    row's edges in the sorted s1 with the comparisons of np.digitize
    (edges[k] <= x < edges[k+1], and x == edges[-1] in the top bin).  The
    edges, centring and pooling are the shared _edges and _pool.
    """
    n, n_bins = len(s1), DEFAULT_BINS
    order = np.argsort(s1, kind="stable")
    ranked = s1[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # a row's slots: its bins, then one dummy for the shots below and above the range
    slots = n_bins + 1
    segment_slot = np.r_[n_bins, np.arange(n_bins), n_bins]

    def rows(idx):
        m = len(idx)
        edges, spread = _edges(s1.take(idx), n_bins)
        bounds = np.empty((m, n_bins + 3), dtype=np.intp)
        bounds[:, 0], bounds[:, -1] = 0, n
        bounds[:, 1:-1] = np.searchsorted(ranked, edges, side="left")
        bounds[:, -2] = np.searchsorted(ranked, edges[:, -1], side="right")
        # label[r * n + p]: the slot of sorted position p in row r
        label = np.repeat(segment_slot + slots * np.arange(m)[:, None], np.diff(bounds).ravel())
        pos = rank.take(idx)
        pos += n * np.arange(m)[:, None]
        centered = s2.take(idx)
        centered -= centered.mean(axis=1, keepdims=True)
        return _pool(label.take(pos).ravel(), centered.ravel(), spread, n_bins)[0]

    return rows


def _gain_rows(s1, s2):
    sigma_cond = _sigma_cond_rows(s1, s2)
    return lambda idx: _var(s2.take(idx)) - sigma_cond(idx)


def _variance_rows(column, divisor):
    def prepare(s1, s2):
        x = column(s1, s2)  # formed once per call; the rows gather from it
        return lambda idx: _var(x.take(idx)) / divisor

    return prepare


# The bootstrap estimators.  Each takes the data columns and returns a function
# of a block of resample index rows that gives one value per row.
_ESTIMATORS = {
    **{name: _variance_rows(*spec) for name, spec in _VARIANCES.items()},
    "sigma_cond": _sigma_cond_rows,
    "conditioning_gain": _gain_rows,
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
    the same generator family as the sampler).  Resamples are drawn one row
    at a time, ``rng.integers(0, n, size=n)``, and evaluated in blocks of
    max(1, BLOCK_DRAWS // n) rows; sigma_cond and conditioning_gain sort s1
    once per call.  Neither the block size nor the sort changes a draw or a
    value.
    """
    if estimator not in _ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(_ESTIMATORS)}"
        )
    if not is_positive_int(resamples):
        raise ValueError(f"resamples must be a positive integer, got {resamples!r}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    s1, s2 = data.s1, data.s2
    n = len(s1)
    if n < 10:
        raise InsufficientDataError("need at least ten shots to bootstrap")
    estimate = _ESTIMATORS[estimator](s1, s2)
    rng = Generator(Philox(key=seed))
    values = np.empty(resamples)
    rows = max(1, BLOCK_DRAWS // n)
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        idx = np.array([rng.integers(0, n, size=n) for _ in range(start, stop)])
        values[start:stop] = estimate(idx)
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(values, alpha)), float(np.quantile(values, 1.0 - alpha))
