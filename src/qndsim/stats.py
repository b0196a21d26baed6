"""Estimators for the two-pulse records: variances, correlations, conditioning.

Every statistic is one formula in v1 = Var(s1), c = Cov(s1, s2) and
v2 = Var(s2), given in _STATISTICS and shared by runs, bootstrap resamples
and the model (:func:`qndsim.montecarlo.predict`):
- sigma1 = v1 and sigma2 = v2;
- sigma_plus and sigma_minus = (v1 + v2 +/- 2c)/2, i.e. Var(s1 +/- s2)/2,
  so every estimator reads 1/2 at the shot-noise floor;
- sigma_cond = v2 - c**2/v1, the residual of the linear regression of s2
  on s1, the model's Var(s2 | s1) at any loss and atom-number spread;
- conditioning_gain = v2 - sigma_cond.
Only sigma_cond and the gain divide by v1, so only they reject an s1 with
no positive spread.  The variances' standard errors use the Gaussian
fourth-moment formula Var(sample variance) = 2*sigma^4/(n-1); sigma_cond's
is sqrt(Var(r**2)/n) over the centred residuals r, with no Gaussian form
assumed; the bootstrap is available as an independent cross-check.

Two moment passes, one arithmetic.  The run pass, _moments, takes (v1, c,
v2) of one run's two 1-D records, v1 and v2 bit for bit np.var with ddof=1.
It only reads the run's read-only columns, and beside them holds one
run-sized scratch and its own chunk buffer of at most BLOCK_DRAWS shots, so
variances and binned_conditional each hold one run-sized temporary.  The
block pass, in bootstrap_ci, takes the moments of each resample of a block
of about 2**14 draws, which stays in cache.  It owns its gathered block, so
it centres and squares in place, and both records share each NumPy call.
Each row's moment is the same pairwise sum of the same centred row over
n - 1, so every resample's (v1, c, v2) is bit for bit the run pass on that
resample; test_stats.py's test_block_pass_is_the_run_pass and
test_rows_are_the_runs_estimate hold the two equal.

Bootstrap draw rule: each block's index rows come from one ``integers``
call, which draws exactly what one call per row would, since the spare
half of a 64-bit Philox word is kept in the generator's state, not in the
call.  So neither the draws nor the intervals depend on the block size.
bootstrap_ci allocates its three block buffers (the gathered s1 and s2 as
one (2, rows, n) array, and the centred product) once per pass, at the
first and largest block's shape, and every block refills their leading
rows, since freeing block-sized arrays after every block lets the C
allocator trim the heap and fault the pages back in for the next.

Bootstrap memo rule: one moment pass per run, seed and resample count.
bootstrap_ci keeps each resample's (v1, c, v2) on the run, for its latest
(seed, resamples), in a memo that lives and dies with the run, so a later
interval of any estimator, at any level, is its formula and two quantiles.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import Generator, Philox

from .physics import is_finite_real, is_positive_int

if TYPE_CHECKING:  # montecarlo imports _STATISTICS from here
    from .montecarlo import RunResult

# Draws per bootstrap block, rows = max(1, BLOCK_DRAWS // n), and the
# moment pass's chunk width on a run.
BLOCK_DRAWS = 2**14


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
    """Var(s2|s1) as the regression residual v2 - c**2/v1, its SE and the implied squeezing.

    se_cond is sqrt(Var(r**2)/n) over the centred residuals r of s2 - (c/v1)*s1.
    """

    sigma_cond: float
    squeezing_db: float
    se_cond: float


def _conditional(v1, c, v2):
    """v2 - c**2/v1; raises InsufficientDataError where s1 has no positive spread, NaN included."""
    if not np.all(v1 > 0.0):
        raise InsufficientDataError("s1 has zero or non-finite spread")
    return v2 - c * c / v1


# The six estimators, each a formula in the moments (v1, c, v2) of a run, of
# each resample or of the model.
_STATISTICS = {
    "sigma1": lambda v1, c, v2: v1,
    "sigma2": lambda v1, c, v2: v2,
    "sigma_plus": lambda v1, c, v2: (v1 + v2 + 2.0 * c) / 2.0,
    "sigma_minus": lambda v1, c, v2: (v1 + v2 - 2.0 * c) / 2.0,
    "sigma_cond": _conditional,
    "conditioning_gain": lambda v1, c, v2: v2 - _conditional(v1, c, v2),
}


def _moments(x, y, scratch):
    """The run pass: Bessel-corrected v1 = Var(x), c = Cov(x, y) and v2 = Var(y) of one run.

    x and y are the run's s1 and s2, 1-D and only read; scratch has their
    length.  c's centred product is formed into scratch through a chunk
    buffer of at most BLOCK_DRAWS shots, then v2 and v1 are each centred and
    squared in scratch, so each moment is the pairwise sum of a whole
    centred row over n - 1: v1 and v2 are bit for bit x.var and y.var with
    ddof=1, and no moment depends on the chunk width.
    """
    n = len(x)
    mean_x, mean_y = x.mean(), y.mean()
    buf = np.empty(min(n, BLOCK_DRAWS))
    for start in range(0, n, len(buf)):
        stop = min(start + len(buf), n)
        dx = np.subtract(x[start:stop], mean_x, out=buf[: stop - start])
        dy = np.subtract(y[start:stop], mean_y, out=scratch[start:stop])
        np.multiply(dy, dx, out=dy)
    c = scratch.sum() / (n - 1)
    v2 = np.square(np.subtract(y, mean_y, out=scratch), out=scratch).sum() / (n - 1)
    v1 = np.square(np.subtract(x, mean_x, out=scratch), out=scratch).sum() / (n - 1)
    return v1, c, v2


def variances(data: RunResult) -> VarianceSummary:
    """Sigma_1, sigma_2 and the +/- correlation variances with standard errors.

    All four are formulas of one moment pass, which holds one scratch column.
    """
    n = len(data.s1)
    if n < 2:
        raise InsufficientDataError("need at least two shots")
    moments = _moments(data.s1, data.s2, np.empty(n))
    v = {name: float(_STATISTICS[name](*moments))
         for name in ("sigma1", "sigma2", "sigma_plus", "sigma_minus")}
    se_factor = math.sqrt(2.0 / (n - 1))
    return VarianceSummary(
        **v,
        se_sigma1=v["sigma1"] * se_factor,
        se_sigma2=v["sigma2"] * se_factor,
        se_plus=v["sigma_plus"] * se_factor,
        se_minus=v["sigma_minus"] * se_factor,
        n=n,
    )


def binned_conditional(data: RunResult) -> ConditionalResult:
    """Conditional variance of s2 given s1: the residual of the regression of s2 on s1.

    sigma_cond = v2 - c**2/v1 from the moment pass, and se_cond is
    sqrt(Var(r**2)/n) over the centred residuals r of s2 - (c/v1)*s1: the
    slope's own error enters only at second order, and no Gaussian form is
    assumed, so it holds under atom-number spread.  r is formed, squared
    and centred in the moment pass's scratch column, with np.var's
    arithmetic.  squeezing_db is :func:`squeezing_db` of Var(s2) - 1/2 and
    sigma_cond - 1/2, and NaN at zero nominal coupling, at eta 0 and in the
    z basis, where no atomic signal reaches s2.  The name is kept from the
    binned estimator this replaced, since scripts and the per-layer
    benchmark call it by that name.
    """
    s1, s2 = data.s1, data.s2
    n = len(s1)
    if n < 3:
        raise InsufficientDataError("need at least three shots to condition")
    r = np.empty(n)
    var1, cov, var2 = (float(v) for v in _moments(s1, s2, r))
    sigma_cond = _STATISTICS["sigma_cond"](var1, cov, var2)
    np.multiply(s1, -cov / var1, out=r)
    r += s2
    r -= r.mean()
    np.square(r, out=r)
    r -= r.mean()
    se = math.sqrt(float(np.square(r, out=r).sum()) / (n - 1) / n)
    coupled = data.config.kappa_nominal and data.config.eta and data.config.basis != "z"
    db = squeezing_db(var2 - 0.5, sigma_cond - 0.5) if coupled else math.nan
    return ConditionalResult(sigma_cond=sigma_cond, squeezing_db=db, se_cond=se)


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


# Each run's latest (seed, resamples) and its resamples' (3, resamples)
# moments.  An entry goes when its run is collected.
_MEMO = weakref.WeakKeyDictionary()


def bootstrap_ci(
    data: RunResult,
    estimator: str,
    resamples: int = 1000,
    level: float = 0.683,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for a named estimator.

    Estimator names: sigma1, sigma2, sigma_plus, sigma_minus, sigma_cond,
    conditioning_gain.  Deterministic for a given seed, an integer in
    [0, 2**64) (single Philox stream, the same generator family as the
    sampler); level is a real in (0, 1).  Each block of
    max(1, BLOCK_DRAWS // n) resamples is drawn by one
    ``rng.integers(0, n, size=(rows, n))`` call, the same draws as one call
    per row, so the block size changes no draw and no value.  The block
    pass gathers a block's s1 and s2 rows into one (2, rows, n) array and
    centres and squares it in place: each row's mean is ndarray.mean's
    arithmetic (the pairwise row sum over n), and each moment the pairwise
    sum of its centred row, divided by n - 1 once for the whole pass.  So
    each resample's (v1, c, v2) is bit for bit what the run pass of
    variances and binned_conditional gives on that resample, and each
    estimator is its formula of them.  The moments are kept on the run for
    its latest seed and resamples and go with the run, so asking again for
    any estimator, at any level, draws nothing.
    """
    if estimator not in _STATISTICS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(_STATISTICS)}"
        )
    if not is_positive_int(resamples):
        raise ValueError(f"resamples must be a positive integer, got {resamples!r}")
    if not (is_finite_real(level) and 0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    s1, s2 = data.s1, data.s2
    n = len(s1)
    if n < 10:
        raise InsufficientDataError("need at least ten shots to bootstrap")
    key, moments = _MEMO.get(data, (None, None))
    if key != (seed, resamples):
        rows = min(max(1, BLOCK_DRAWS // n), resamples)
        rng = Generator(Philox(key=seed))
        moments = np.empty((3, resamples))
        xy, prod = np.empty((2, rows, n)), np.empty((rows, n))
        for start in range(0, resamples, rows):
            m = min(rows, resamples - start)
            idx = rng.integers(0, n, size=(m, n))
            # indices are in range by construction; mode "clip" lets take fill
            # ``out`` directly, where the default mode would allocate a copy
            s1.take(idx, out=xy[0, :m], mode="clip")
            s2.take(idx, out=xy[1, :m], mode="clip")
            block, out = xy[:, :m], moments[:, start:start + m]
            # ndarray.mean's arithmetic: the pairwise row sum over n
            mean = np.add.reduce(block, axis=-1, keepdims=True)
            mean /= n
            block -= mean
            np.add.reduce(np.multiply(block[0], block[1], out=prod[:m]), axis=-1, out=out[1])
            np.add.reduce(np.square(block, out=block), axis=-1, out=out[::2])
        moments /= n - 1
        _MEMO[data] = (seed, resamples), moments
    values = _STATISTICS[estimator](*moments)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(values, (alpha, 1.0 - alpha))
    return float(lo), float(hi)
