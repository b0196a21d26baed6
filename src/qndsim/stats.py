"""Estimators for the two-pulse records: variances, correlations, conditioning.

All variance estimators are Bessel-corrected.  The +/- combinations carry a
factor 1/2, i.e. sigma_plus = Var(s1 + s2)/2 and sigma_minus = Var(s1 - s2)/2,
so every estimator reads 1/2 at the shot-noise floor.  Standard errors use the
Gaussian fourth-moment formula Var(sample variance) = 2*sigma^4/(n-1); the
bootstrap is available as an independent cross-check.

The binned conditional variance is one pipeline, _binned: it bins each row
of a block of shots by arithmetic on the row's own range, and _pool pools
the per-bin variances of centred s2.  On its way _binned takes each row's
variances of s1 and s2, bit for bit those of the variance estimators.
binned_conditional runs it on the run as one row, the bootstrap on each
block of resamples, which holds about 2**14 draws, so its arrays stay in
cache and its memory flat.

Bootstrap draw rule: each block's index rows come from one ``integers``
call, which draws exactly what one call per row would, since the spare
half of a 64-bit Philox word is kept in the generator's state, not in the
call.  So neither the draws nor the intervals depend on the block size.
The sigma_cond block buffers are allocated once per call and refilled,
since freeing block-sized arrays after every block lets the C allocator
trim the heap and fault the pages back in for the next.

Bootstrap memo rule: one pass per run, seed and resample count.  Each
estimator has a pass of its own, and the binned pass of sigma_cond or
conditioning_gain also gives sigma1, sigma2 and the other of the two.
bootstrap_ci keeps the values of every pass on the run, for its latest
(seed, resamples), in a table that lives and dies with the run, so a later
interval of any estimator in it, at any level, is two quantiles.

The estimators read only a run's s1, s2 and config, and binned_conditional
holds at most two run-sized temporaries: a copy of s1, binned in place and
then refilled with centred s2 for _pool to square in place, and the bin
slot of each shot.
"""

from __future__ import annotations

import math
import weakref
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


def _pool(slot, centered, spread, n_bins):
    """Count-weighted mean of the per-bin variances of centred s2, one value per row.

    ``slot`` holds row * (n_bins + 1) + bin for every shot of every row, as
    _binned lays it out, with bin = n_bins for the shots outside the range;
    ``centered`` holds the shots' centred s2 in the same order, and is
    squared in place.  Rows before the first zero-spread row are pooled
    first, so a row with fewer than two usable bins raises ahead of a later
    zero-spread row.  Returns sigma_cond per row, and the (m, n_bins) counts
    and variances, NaN in bins too small to use.
    """
    m, slots = len(spread), n_bins + 1

    def per_slot(weights):
        return np.bincount(slot, weights, minlength=m * slots).reshape(m, slots)[:, :n_bins]

    counts, sums = per_slot(None), per_slot(centered)
    sq = per_slot(np.square(centered, out=centered))  # the caller's scratch copy
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


def _binned(x, y, n_bins):
    """Bin each row of an (m, n) block of s1 shots ``x`` and pool the s2 shots ``y``.

    A row's range is lo = mean - half to hi = mean + half, half =
    HALF_RANGE_SIGMAS sd.  A shot with lo <= x <= hi is in bin
    floor((x - lo) * n_bins / (2 * half)), clamped to n_bins - 1; any other,
    NaN included, goes to the dummy slot before the integer cast.  ``x`` is
    scratch: binned in place, then refilled with centred y.  Returns each
    row's Bessel-corrected variances of x and y, as np.var gives them,
    _pool's three values, and the rows' lo and hi as (m, 1) columns.
    """
    center, var_x = x.mean(axis=1, keepdims=True), x.var(axis=1, ddof=1, keepdims=True)
    spread = np.sqrt(var_x)  # what x.std computes
    # a zero-spread row raises in _pool; the stand-in keeps n_bins / (2 * half) finite
    half = HALF_RANGE_SIGMAS * np.where(spread == 0.0, 1.0, spread)
    lo, hi = center - half, center + half
    inside = (lo <= x) & (x <= hi)
    x -= lo
    x *= n_bins / (2.0 * half)
    np.minimum(x, n_bins - 1, out=x)  # x == hi, and a product rounded up to n_bins
    x[~inside] = n_bins
    del inside  # freed before the run-sized slots exist
    slot = x.astype(np.intp)  # every value lies in [0, n_bins], so this is floor
    slot += (n_bins + 1) * np.arange(len(x))[:, None]
    np.subtract(y, y.mean(axis=1, keepdims=True), out=x)  # improves the single-pass cancellation
    pooled = _pool(slot.ravel(), x.ravel(), spread.ravel(), n_bins)
    var_y = x.sum(axis=1) / (x.shape[1] - 1)  # _pool squared x in place, as np.var does
    return (var_x.ravel(), var_y, *pooled, lo, hi)


def binned_conditional(data: RunResult, n_bins: int = DEFAULT_BINS) -> ConditionalResult:
    """Conditional variance of s2 from equal-width bins of s1.

    Bins cover mean(s1) +/- HALF_RANGE_SIGMAS * std(s1); shots outside are
    excluded.  sigma_cond averages the per-bin variances of s2 over bins with
    at least two shots, weighted by bin count.  squeezing_db is
    :func:`squeezing_db` of Var(s2) - 1/2 and sigma_cond - 1/2, and NaN at
    zero nominal coupling and in the z basis, where no atomic signal reaches
    s2 and the ratio is one of two noise terms.
    """
    if not is_positive_int(n_bins):
        raise ValueError(f"n_bins must be a positive integer, got {n_bins!r}")
    s1, s2 = data.s1, data.s2
    if len(s1) < 2 * MIN_BIN_COUNT:
        raise InsufficientDataError("need at least four shots to bin")
    _, (var2,), (sigma_cond,), (counts,), (bin_var,), lo, hi = _binned(
        s1.copy()[None], s2[None], n_bins
    )
    total, sigma_cond = float(var2) - 0.5, float(sigma_cond)
    c = counts[counts >= MIN_BIN_COUNT].astype(float)
    # per-bin Var(variance) ~ 2*sigma^4/(n_b - 1), pooled sigma^4.
    se = float(sigma_cond * math.sqrt(2.0 * np.sum(c**2 / (c - 1.0))) / c.sum())
    coupled = data.config.kappa_nominal and data.config.basis != "z"
    db = squeezing_db(total, sigma_cond - 0.5) if coupled else math.nan
    return ConditionalResult(
        sigma_cond=sigma_cond,
        n_bins=n_bins,
        bin_edges=tuple(np.linspace(lo.item(), hi.item(), n_bins + 1).tolist()),
        per_bin=tuple(
            (int(c), float(v)) for c, v in zip(counts.tolist(), bin_var.tolist())
        ),
        squeezing_db=db,
        se_cond=se,
    )


def squeezing_db(total_excess: float, conditional_excess: float) -> float:
    """Squeezing in dB, 10*log10(total_excess / conditional_excess): positive = squeezed.

    The excesses over the shot-noise floor, Var(s2) - 1/2 and Var(s2|s1) - 1/2,
    need no coupling, so loss and atom-number spread leave the ratio right.
    NaN unless total_excess > 0; +inf when conditional_excess <= 0 (formally
    infinite squeezing, a finite-sample artifact).
    """
    if not total_excess > 0.0:
        return math.nan
    if conditional_excess <= 0.0:
        return math.inf
    return 10.0 * math.log10(total_excess / conditional_excess)


def _binned_rows(s1, s2):
    """sigma1, sigma2, sigma_cond and conditioning_gain of each row of a block of resample indices.

    A block's s1 and s2 are gathered into two block buffers, allocated at the
    first (largest) block and refilled by every later one, and binned by
    _binned, the function that bins binned_conditional's single row.
    """
    x = y = np.empty((0, len(s1)))

    def rows(idx):
        nonlocal x, y
        m = len(idx)
        if len(x) < m:
            x, y = np.empty(idx.shape), np.empty(idx.shape)
        # indices are in range by construction; mode "clip" lets take fill
        # ``out`` directly, where the default mode would allocate a copy
        s1.take(idx, out=x[:m], mode="clip")
        s2.take(idx, out=y[:m], mode="clip")
        var1, var2, sigma_cond = _binned(x[:m], y[:m], DEFAULT_BINS)[:3]
        return {
            "sigma1": var1,
            "sigma2": var2,
            "sigma_cond": sigma_cond,
            "conditioning_gain": var2 - sigma_cond,
        }

    return rows


def _variance_rows(name):
    column, divisor = _VARIANCES[name]

    def prepare(s1, s2):
        x = column(s1, s2)  # formed once per call; the rows gather from it
        return lambda idx: {name: _var(x.take(idx)) / divisor}

    return prepare


# The bootstrap passes, one per estimator name.  Each takes the data columns
# and returns a function of a block of resample index rows that gives, for
# every estimator the pass serves, one value per row.
_ESTIMATORS = {
    **{name: _variance_rows(name) for name in _VARIANCES},
    "sigma_cond": _binned_rows,
    "conditioning_gain": _binned_rows,
}

# Each run's resample values: its latest (seed, resamples) and a table of
# estimator name -> values.  An entry goes when its run is collected.
_TABLES = weakref.WeakKeyDictionary()


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
    the same generator family as the sampler).  Each block of
    max(1, BLOCK_DRAWS // n) resamples is drawn by one
    ``rng.integers(0, n, size=(rows, n))`` call, the same draws as one call
    per row, so the block size changes no draw and no value.  sigma_cond and
    conditioning_gain bin each block as binned_conditional bins the run, and
    that pass also gives sigma1 and sigma2.  The values of each pass are
    kept on the run for its latest seed and resamples and go with the run,
    so asking again for any estimator they hold, at any level, draws
    nothing.
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
    key, table = _TABLES.get(data, (None, {}))
    if key != (seed, resamples):
        key, table = (seed, resamples), {}
        _TABLES[data] = key, table
    if estimator not in table:
        estimate = _ESTIMATORS[estimator](s1, s2)
        rng = Generator(Philox(key=seed))
        rows = max(1, BLOCK_DRAWS // n)
        values = {}
        for start in range(0, resamples, rows):
            stop = min(start + rows, resamples)
            for name, block in estimate(rng.integers(0, n, size=(stop - start, n))).items():
                values.setdefault(name, np.empty(resamples))[start:stop] = block
        table.update(values)
    values = table[estimator]
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(values, alpha)), float(np.quantile(values, 1.0 - alpha))
