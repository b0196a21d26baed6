"""Tests for the estimators: exact identities, oracle agreement, bootstrap."""

import gc
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from qndsim import stats
from qndsim.montecarlo import RunResult, SequenceConfig, predict, run_sequence
from qndsim.stats import (
    InsufficientDataError,
    binned_conditional,
    bootstrap_ci,
    squeezing_db,
    variances,
)

SEED = 27182818


def exact_conditional(kappa):
    """Reference closed form: lossless y-basis Var(s2 | s1) = (1 + 2k^2) / (2(1 + k^2))."""
    k2 = kappa * kappa
    return (1.0 + 2.0 * k2) / (2.0 * (1.0 + k2))


def conditional_from_db(db, kappa):
    """Reference inverse of squeezing_db."""
    return 0.5 + (kappa * kappa / 2.0) * 10.0 ** (-db / 10.0)


def run(**kwargs):
    base = dict(mode="qnd", kappa_nominal=0.62, shots=2600, seed=SEED)
    base.update(kwargs)
    return run_sequence(SequenceConfig(**base))


def columns(s1, s2, kappa=0.0):
    """A RunResult carrying the given s1, s2 columns and a constant coupling."""
    n = len(s1)
    latent = np.zeros(n)
    config = SequenceConfig(mode="qnd", kappa_nominal=kappa, shots=n)
    return RunResult(config, s1, s2, latent, latent, np.full(n, kappa))


def noise_run(n, seed=0, var=0.5):
    rng = Generator(Philox(key=seed))
    s1, s2 = rng.normal(0.0, math.sqrt(var), size=(2, n))
    return columns(s1, s2)


class TestVariances:
    def test_identical_records_give_zero(self):
        vs = variances(columns(np.full(20, 1.2), np.full(20, -0.3), kappa=0.5))
        for value in (vs.sigma1, vs.sigma2, vs.sigma_plus, vs.sigma_minus):
            assert value == pytest.approx(0.0, abs=1e-30)
        assert vs.se_sigma1 == pytest.approx(0.0, abs=1e-30)

    def test_qnd_point_matches_oracle(self):
        vs = variances(run())
        assert abs(vs.sigma1 - 0.6922) <= 3 * vs.se_sigma1
        assert abs(vs.sigma2 - 0.6922) <= 3 * vs.se_sigma2
        assert abs(vs.sigma_plus - 0.8844) <= 3 * vs.se_plus
        assert abs(vs.sigma_minus - 0.5) <= 3 * vs.se_minus
        assert vs.n == 2600

    def test_shot_noise_floor(self):
        vs = variances(run(kappa_nominal=0.0))
        for value, se in [
            (vs.sigma1, vs.se_sigma1),
            (vs.sigma2, vs.se_sigma2),
            (vs.sigma_plus, vs.se_plus),
            (vs.sigma_minus, vs.se_minus),
        ]:
            assert abs(value - 0.5) <= 3 * se

    def test_too_few_shots(self):
        with pytest.raises(InsufficientDataError):
            variances(SimpleNamespace(s1=np.zeros(1), s2=np.zeros(1)))

    @pytest.mark.parametrize("seed", range(6))
    def test_parallelogram_identity(self, seed):
        vs = variances(noise_run(137, seed=seed))
        lhs = vs.sigma_plus + vs.sigma_minus
        rhs = vs.sigma1 + vs.sigma2
        assert abs(lhs - rhs) <= 1e-9


class TestBinnedConditional:
    def test_independent_conditioning_changes_nothing(self):
        cond = binned_conditional(run(kappa_nominal=0.0))
        assert abs(cond.sigma_cond - 0.5) <= 3 * cond.se_cond
        assert math.isnan(cond.squeezing_db)

    def test_qnd_conditioning_gain(self):
        cond = binned_conditional(run())
        target = 0.62**2 / (2 * (1 + 0.62**2))
        assert abs((cond.sigma_cond - 0.5) - target) <= 3 * cond.se_cond
        assert cond.n_bins == 21
        assert len(cond.bin_edges) == 22

    def test_reinitialized_gains_nothing(self):
        result = run(mode="reinit")
        vs = variances(result)
        cond = binned_conditional(result)
        assert abs(cond.sigma_cond - 0.6922) <= 3 * cond.se_cond
        assert abs(cond.sigma_cond - vs.sigma2) <= 3 * math.hypot(cond.se_cond, vs.se_sigma2)

    def test_conditional_never_beats_unconditional(self):
        for kappa in (0.15, 0.3, 0.45, 0.62, 1.0):
            result = run(kappa_nominal=kappa)
            vs = variances(result)
            cond = binned_conditional(result)
            assert cond.sigma_cond <= vs.sigma2 + 3 * vs.se_sigma2

    def test_out_of_range_shots_excluded(self):
        result = run()
        cond = binned_conditional(result)
        kept = sum(c for c, _ in cond.per_bin)
        assert kept <= len(result)
        assert kept >= 0.97 * len(result)  # +/-2.5 sigma keeps ~98.8%

    def test_binning_converges_to_exact(self):
        result = run(shots=100_000, seed=SEED + 1)
        cond = binned_conditional(result, n_bins=101)
        assert abs(cond.sigma_cond - exact_conditional(0.62)) <= cond.se_cond
        # same-data cross-check: at 101 bins the bin-width bias is gone, so the
        # binned value must sit on the dataset's own regression residual variance
        beta = np.cov(result.s1, result.s2, ddof=1)[0, 1] / np.var(result.s1, ddof=1)
        residual = float(np.var(result.s2 - beta * result.s1, ddof=2))
        assert abs(cond.sigma_cond - residual) < 2e-3

    def test_degenerate_inputs(self):
        with pytest.raises(InsufficientDataError):
            binned_conditional(columns(np.full(40, 1.0), np.full(40, 0.5)))  # zero spread
        with pytest.raises(InsufficientDataError):
            binned_conditional(noise_run(40), n_bins=1)  # one usable bin

    @pytest.mark.parametrize("n_bins", [0, 2.5, True, "21"])
    def test_n_bins_must_be_a_positive_integer(self, n_bins):
        with pytest.raises(ValueError, match="n_bins must be a positive integer"):
            binned_conditional(noise_run(40), n_bins=n_bins)

    def test_peak_memory(self):
        # one bin slot per shot, centred s2 and its square: no masked copies
        data = noise_run(400_000)
        gc.collect()
        tracemalloc.start()
        try:
            binned_conditional(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * data.s1.nbytes


class TestExactConditional:
    def test_values(self):
        assert exact_conditional(0.0) == 0.5
        assert exact_conditional(0.62) == pytest.approx(0.6388327073100261, abs=1e-15)
        assert exact_conditional(1e3) == pytest.approx(0.9999995000005, abs=1e-12)

    def test_matches_gaussian_conditioning(self):
        # the model's conditional variance is the target of every conditional check
        for kappa in np.arange(0.0, 3.0001, 0.05):
            model = predict(SequenceConfig(mode="qnd", kappa_nominal=float(kappa)))
            assert abs(model.cond - exact_conditional(kappa)) < 1e-12


class TestSqueezingDb:
    def test_ideal_point(self):
        ideal = squeezing_db(exact_conditional(0.62), 0.62)
        assert ideal == pytest.approx(10 * math.log10(1 + 0.62**2), abs=1e-12)
        assert ideal == pytest.approx(1.413, abs=5e-4)
        assert 0.3 <= ideal <= 4.2  # inside the 1.8 (+2.4/-1.5) dB measurement band

    def test_no_gain_is_zero_db(self):
        assert squeezing_db((1 + 0.62**2) / 2, 0.62) == pytest.approx(0.0, abs=1e-12)

    def test_band_inversion(self):
        sigma = conditional_from_db(1.8, 0.62)
        assert sigma - 0.5 == pytest.approx(0.1270, abs=5e-5)
        # round trip
        assert squeezing_db(sigma, 0.62) == pytest.approx(1.8, abs=1e-12)

    def test_floor_reports_infinite(self):
        assert squeezing_db(0.5, 0.62) == math.inf
        assert squeezing_db(0.43, 0.62) == math.inf

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            squeezing_db(0.6, 0.0)

    def test_monotone_decreasing_in_sigma(self):
        values = [squeezing_db(s, 0.62) for s in np.linspace(0.51, 0.9, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBootstrap:
    def test_constant_data_zero_width(self):
        lo, hi = bootstrap_ci(columns(np.full(50, 0.7), np.full(50, 0.7)), "sigma1", resamples=200)
        assert hi - lo == 0.0
        assert lo == pytest.approx(0.0, abs=1e-30)

    def test_variance_interval_width(self):
        data = noise_run(2600, seed=5)
        lo, hi = bootstrap_ci(data, "sigma1", resamples=1000)
        expected = 2 * math.sqrt(2 / 2599) * 0.5
        assert hi - lo == pytest.approx(expected, rel=0.2)
        # a central percentile interval brackets the point estimate itself
        point = np.var(data.s1, ddof=1)
        assert lo < point < hi

    def test_deterministic_given_seed(self):
        data = noise_run(300, seed=9)
        assert bootstrap_ci(data, "sigma_plus", seed=4) == bootstrap_ci(
            data, "sigma_plus", seed=4
        )
        assert bootstrap_ci(data, "sigma_plus", seed=4) != bootstrap_ci(
            data, "sigma_plus", seed=5
        )

    def test_coverage(self):
        # percentile bootstrap should cover the true variance ~68% of the time
        master = Generator(Philox(key=314159))
        reps, n = 500, 800
        hits = 0
        for rep in range(reps):
            x = master.normal(0.0, math.sqrt(0.5), size=n)
            lo, hi = bootstrap_ci(columns(x, np.zeros(n)), "sigma1", resamples=400, seed=rep)
            hits += lo <= 0.5 <= hi
        assert abs(hits / reps - 0.683) <= 0.05

    def test_conditioning_gain_estimator(self):
        result = run()
        lo, hi = bootstrap_ci(result, "conditioning_gain", resamples=400)
        assert lo > 0.0  # gain resolved away from zero

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            bootstrap_ci(noise_run(50), "median")

    def test_small_samples_rejected(self):
        for estimator in ("sigma1", "sigma_cond", "conditioning_gain"):
            with pytest.raises(InsufficientDataError, match="at least ten shots"):
                bootstrap_ci(noise_run(9), estimator)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            bootstrap_ci(noise_run(50), "sigma_cond", level=level)

    @pytest.mark.parametrize("resamples", [0, -1, 2.5, True, "10"])
    def test_resamples_must_be_a_positive_integer(self, resamples):
        with pytest.raises(ValueError, match="resamples must be a positive integer"):
            bootstrap_ci(noise_run(50), "sigma1", resamples=resamples)

    @pytest.mark.parametrize("estimator", ["sigma_cond", "conditioning_gain"])
    def test_degenerate_resample_raises_its_own_error(self, estimator):
        # 9 of 10 shots tie: a resample of only the tied shots has zero spread,
        # one with a single odd shot has fewer than two usable bins.  The
        # first such resample decides the message; these were recorded with
        # the resample-at-a-time loop, and all 37 rows share one block.
        data = columns(np.array([0.0] * 9 + [1.0]), np.linspace(-1.0, 1.0, 10))
        zero_spread_first = {0, 6, 9, 11}
        for seed in range(12):
            message = "zero spread" if seed in zero_spread_first else "fewer than two usable bins"
            with pytest.raises(InsufficientDataError, match=message):
                bootstrap_ci(data, estimator, resamples=37, seed=seed)

    @pytest.mark.parametrize("estimator", sorted(stats._ESTIMATORS))
    def test_block_size_changes_nothing(self, monkeypatch, estimator):
        data = run(shots=300)
        default = bootstrap_ci(data, estimator, resamples=50, seed=2)
        for draws in (1, 7 * 300 + 1, 10**6):  # one row, 7 rows, every row per block
            monkeypatch.setattr(stats, "BLOCK_DRAWS", draws)
            assert bootstrap_ci(data, estimator, resamples=50, seed=2) == default

    def test_rows_bin_like_digitize_on_the_edges(self):
        # mean 0 and std 1 exactly, in any order: the outer edges are -2.5 and
        # 2.5, and two shots sit on each, in the first and the inclusive top bin
        s1 = np.array([2.5, 2.5, -2.5, -2.5] + [0.5] * 14 + [-0.5] * 14 + [0.0])
        s2 = Generator(Philox(key=3)).normal(size=len(s1))
        perm = Generator(Philox(key=4))
        idx = np.array([np.arange(len(s1))] + [perm.permutation(len(s1)) for _ in range(4)])
        rows = stats._ESTIMATORS["sigma_cond"](s1, s2)(idx)
        for row, value in zip(idx, rows):
            cond = binned_conditional(columns(s1[row], s2[row]))
            assert (cond.bin_edges[0], cond.bin_edges[-1]) == (-2.5, 2.5)
            assert cond.per_bin[0][0] == cond.per_bin[-1][0] == 2
            assert value == cond.sigma_cond


class TestFigureThreeCProperty:
    def test_reinit_plus_minus_agree(self):
        for i, kappa in enumerate([0.0, 0.15, 0.3, 0.45, 0.62]):
            vs = variances(run(mode="reinit", kappa_nominal=kappa, seed=SEED + i))
            se = math.hypot(vs.se_plus, vs.se_minus)
            assert abs(vs.sigma_plus - vs.sigma_minus) < 3 * se
