"""Estimators for the two-pulse records: variances, correlations, conditioning.

All variance estimators are Bessel-corrected.  The +/- combinations carry a
factor 1/2, i.e. sigma_plus = Var(s1 + s2)/2 and sigma_minus = Var(s1 - s2)/2,
so every estimator reads 1/2 at the shot-noise floor.  The variances' standard
errors use the Gaussian fourth-moment formula Var(sample variance) =
2*sigma^4/(n-1); the bootstrap is available as an independent cross-check.

The conditional variance is the residual of the linear regression of s2 on
s1, Var(s2|s1) = v2 - c**2/v1, from the moments v1 = Var(s1), c = Cov(s1, s2)
and v2 = Var(s2): what :func:`qndsim.montecarlo.predict` gives as ``cond``,
at any loss and any atom-number spread.  Its standard error is
sqrt(Var(r**2)/n) over the centred residuals r, with no Gaussian form
assumed.  One pass, _moments, takes the three moments of each row of a block
of shots, v1 and v2 bit for bit those of the variance estimators.
binned_conditional runs it on the run, the bootstrap on each block of
resamples, which holds about 2**14 draws, so its arrays stay in cache and
its memory flat.

Bootstrap draw rule: each block's index rows come from one ``integers``
call, which draws exactly what one call per row would, since the spare
half of a 64-bit Philox word is kept in the generator's state, not in the
call.  So neither the draws nor the intervals depend on the block size.
The sigma_cond block buffers are allocated once per call and refilled,
since freeing block-sized arrays after every block lets the C allocator
trim the heap and fault the pages back in for the next.

Bootstrap memo rule: one pass per run, seed and resample count.  Each
estimator has a pass of its own, and the moment pass of sigma_cond or
conditioning_gain also gives sigma1, sigma2 and the other of the two.
bootstrap_ci keeps the values of every pass on the run, for its latest
(seed, resamples), in a table that lives and dies with the run, so a later
interval of any estimator in it, at any level, is two quantiles.

The estimators read only a run's s1, s2 and config.  variances holds one
run-sized temporary, a scratch column that each of its four columns is
formed, centred and squared in; binned_conditional holds at most two, the
moment pass's scratch columns.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Generator, Philox

from .montecarlo import RunResult
from .physics import is_positive_int

# Draws per bootstrap block: rows = max(1, BLOCK_DRAWS // n).
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


def _var(x: np.ndarray) -> np.ndarray:
    """Bessel-corrected variance of a column, or of each row of a block."""
    return np.var(x, axis=-1, ddof=1)


# The four variance estimators, shared by variances() and bootstrap_ci(): each
# is Var(column) / divisor for a column formed from s1 and s2, into ``out``
# when the column is a sum or difference and ``out`` is given.
_VARIANCES = {
    "sigma1": (lambda s1, s2, out=None: s1, 1.0),
    "sigma2": (lambda s1, s2, out=None: s2, 1.0),
    "sigma_plus": (lambda s1, s2, out=None: np.add(s1, s2, out=out), 2.0),
    "sigma_minus": (lambda s1, s2, out=None: np.subtract(s1, s2, out=out), 2.0),
}


def variances(data: RunResult) -> VarianceSummary:
    """Sigma_1, sigma_2 and the +/- correlation variances with standard errors.

    Each column is formed, centred and squared in one scratch column, bit for
    bit what ``np.var(column, ddof=1)`` gives, so the four need one temporary.
    """
    s1, s2 = data.s1, data.s2
    n = len(s1)
    if n < 2:
        raise InsufficientDataError("need at least two shots")
    se_factor = math.sqrt(2.0 / (n - 1))
    scratch = np.empty(n)
    v = {}
    for name, (column, divisor) in _VARIANCES.items():
        x = column(s1, s2, out=scratch)
        np.subtract(x, x.mean(), out=scratch)
        v[name] = float(np.square(scratch, out=scratch).sum() / (n - 1) / divisor)
    return VarianceSummary(
        **v,
        se_sigma1=v["sigma1"] * se_factor,
        se_sigma2=v["sigma2"] * se_factor,
        se_plus=v["sigma_plus"] * se_factor,
        se_minus=v["sigma_minus"] * se_factor,
        n=n,
    )


def _moments(x, y, a, b):
    """Bessel-corrected v1 = Var(x), c = Cov(x, y) and v2 = Var(y) along the last axis.

    x and y are a run's s1 and s2, or (m, n) blocks of them, and are only
    read; a and b are scratch of their shape.  Each moment is the pairwise
    sum of a product of centred rows over n - 1, so v1 and v2 are bit for
    bit x.var and y.var with ddof=1.  Raises InsufficientDataError for a row
    whose s1 has no positive spread, NaN included.
    """
    n1 = x.shape[-1] - 1
    mean_x = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mean_x, out=a)
    np.subtract(y, y.mean(axis=-1, keepdims=True), out=b)
    cov = np.multiply(a, b, out=a).sum(axis=-1) / n1
    var_y = np.square(b, out=b).sum(axis=-1) / n1
    np.subtract(x, mean_x, out=a)
    var_x = np.square(a, out=a).sum(axis=-1) / n1
    if not (var_x > 0.0).all():
        raise InsufficientDataError("s1 has zero or non-finite spread")
    return var_x, cov, var_y


def binned_conditional(data: RunResult) -> ConditionalResult:
    """Conditional variance of s2 given s1: the residual of the regression of s2 on s1.

    sigma_cond = v2 - c**2/v1 from :func:`_moments`, and se_cond is
    sqrt(Var(r**2)/n) over the centred residuals r of s2 - (c/v1)*s1: the
    slope's own error enters only at second order, and no Gaussian form is
    assumed, so it holds under atom-number spread.  squeezing_db is
    :func:`squeezing_db` of Var(s2) - 1/2 and sigma_cond - 1/2, and NaN at
    zero nominal coupling and in the z basis, where no atomic signal reaches
    s2.  The name is kept from the binned estimator this replaced, since
    scripts and the per-layer benchmark call it by that name.
    """
    s1, s2 = data.s1, data.s2
    n = len(s1)
    if n < 3:
        raise InsufficientDataError("need at least three shots to condition")
    r, b = np.empty(n), np.empty(n)
    var1, cov, var2 = (float(v) for v in _moments(s1, s2, r, b))
    del b  # freed before np.var takes its temporary of r
    sigma_cond = var2 - cov * cov / var1
    np.multiply(s1, -cov / var1, out=r)
    r += s2
    r -= r.mean()
    se = math.sqrt(np.var(np.square(r, out=r), ddof=1) / n)
    coupled = data.config.kappa_nominal and data.config.basis != "z"
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


def _moment_rows(s1, s2):
    """sigma1, sigma2, sigma_cond and conditioning_gain of each row of a block of resample indices.

    A block's s1 and s2 are gathered into two block buffers and taken
    through _moments, the pass binned_conditional takes on the run, with two
    more as its scratch.  The four are allocated at the first (largest)
    block and refilled by every later one.
    """
    bufs = [np.empty((0, len(s1)))] * 4

    def rows(idx):
        nonlocal bufs
        m = len(idx)
        if len(bufs[0]) < m:
            bufs = [np.empty(idx.shape) for _ in range(4)]
        x, y, a, b = (buf[:m] for buf in bufs)
        # indices are in range by construction; mode "clip" lets take fill
        # ``out`` directly, where the default mode would allocate a copy
        s1.take(idx, out=x, mode="clip")
        s2.take(idx, out=y, mode="clip")
        var1, cov, var2 = _moments(x, y, a, b)
        sigma_cond = var2 - cov * cov / var1
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
    "sigma_cond": _moment_rows,
    "conditioning_gain": _moment_rows,
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
    conditioning_gain are v2 - c**2/v1 and v2 minus that, of each
    resample's moments, taken as binned_conditional takes the run's, and
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
