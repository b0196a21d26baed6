"""Tests for the estimators: exact identities, oracle agreement, bootstrap."""

import gc
import math
import tracemalloc
import warnings
import weakref
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


def conditional_from_db(db, total_excess):
    """Reference inverse of squeezing_db: the conditional excess giving ``db``."""
    return total_excess * 10.0 ** (-db / 10.0)


def run(**kwargs):
    base = dict(mode="qnd", kappa_nominal=0.62, shots=2600, seed=SEED)
    base.update(kwargs)
    return run_sequence(SequenceConfig(**base))


def columns(s1, s2, kappa=0.0):
    """A RunResult carrying the given s1, s2 columns and a coupling in its config."""
    config = SequenceConfig(mode="qnd", kappa_nominal=kappa, shots=len(s1))
    return RunResult(config, s1, s2)


def unchecked(s1, s2):
    """A RunResult holding s1 and s2 as given: the constructor's finiteness check is skipped."""
    data = columns(np.zeros(len(s1)), np.zeros(len(s2)))
    object.__setattr__(data, "s1", s1)
    object.__setattr__(data, "s2", s2)
    return data


def fresh(data):
    """A new RunResult of the same columns, so that no bootstrap is served from data's memo."""
    return RunResult(data.config, data.s1, data.s2)


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


    def test_peak_memory(self):
        # each of the four columns is formed, centred and squared in one
        # scratch column: one temporary, where np.var of s1 + s2 takes two
        data = noise_run(400_000)
        gc.collect()
        tracemalloc.start()
        try:
            variances(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * data.s1.nbytes

    def test_matches_np_var_bit_for_bit(self):
        data = noise_run(10_001, seed=3)
        s1, s2 = data.s1, data.s2
        vs = variances(data)
        assert vs.sigma1 == np.var(s1, ddof=1) and vs.sigma2 == np.var(s2, ddof=1)
        moments = stats._moments(s1, s2, np.empty(len(s1)))
        assert vs.sigma_plus == stats._STATISTICS["sigma_plus"](*moments)
        assert vs.sigma_minus == stats._STATISTICS["sigma_minus"](*moments)

    def test_plus_minus_are_within_ulps_of_np_var(self):
        # (v1 + v2 +/- 2c)/2 is Var(s1 +/- s2)/2 up to the rounding of the
        # sums: a few ulps on the correlated records of the fig3 point
        worst = 0.0
        for seed in range(200):
            data = run(seed=seed)
            s1, s2 = data.s1, data.s2
            vs = variances(data)
            for value, column in ((vs.sigma_plus, s1 + s2), (vs.sigma_minus, s1 - s2)):
                reference = np.var(column, ddof=1) / 2.0
                worst = max(worst, abs(value - reference) / np.spacing(reference))
        assert worst <= 4.0


class TestBinnedConditional:
    def test_independent_conditioning_changes_nothing(self):
        cond = binned_conditional(run(kappa_nominal=0.0))
        assert abs(cond.sigma_cond - 0.5) <= 3 * cond.se_cond
        assert math.isnan(cond.squeezing_db)

    def test_qnd_conditioning_gain(self):
        cond = binned_conditional(run())
        target = 0.62**2 / (2 * (1 + 0.62**2))
        assert abs((cond.sigma_cond - 0.5) - target) <= 3 * cond.se_cond

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

    def test_binning_converges_to_exact(self):
        result = run(shots=100_000, seed=SEED + 1)
        cond = binned_conditional(result)
        assert abs(cond.sigma_cond - exact_conditional(0.62)) <= cond.se_cond
        # same-data cross-check: the estimate is the variance of the dataset's
        # own regression residual, with one degree of freedom for the mean
        beta = np.cov(result.s1, result.s2, ddof=1)[0, 1] / np.var(result.s1, ddof=1)
        residual = float(np.var(result.s2 - beta * result.s1, ddof=1))
        assert abs(cond.sigma_cond - residual) < 1e-12

    def test_unbiased_at_large_shot_counts(self):
        # 21 equal-width bins read +3.6 SE at spread 0 (a bin-width bias of
        # about slope^2 * width^2 / 12), and under spread estimated
        # E[Var(s2|s1)], not the model's best-linear conditional variance
        for spread in (0.0, 0.3, 0.45):
            config = SequenceConfig(mode="qnd", kappa_nominal=1.5, shots=2_000_000, seed=3,
                                    atom_fluctuation=spread > 0.0, spin_rel_std=spread)
            cond = binned_conditional(run_sequence(config))
            assert abs(cond.sigma_cond - predict(config).cond) <= 3 * cond.se_cond, spread

    def test_se_is_calibrated(self):
        # over 300 seeds the z-scores against the model have mean 0 and SD 1;
        # at kappa 3 and 2600 shots a 21-bin estimate read a mean z of +0.73
        for kappa, spread in ((0.62, 0.0), (0.62, 0.3), (3.0, 0.45)):
            z = []
            for seed in range(300):
                config = SequenceConfig(mode="qnd", kappa_nominal=kappa, seed=seed,
                                        atom_fluctuation=spread > 0.0, spin_rel_std=spread)
                cond = binned_conditional(run_sequence(config))
                z.append((cond.sigma_cond - predict(config).cond) / cond.se_cond)
            assert abs(np.mean(z)) <= 3 / math.sqrt(len(z)), (kappa, spread)
            assert 0.9 <= np.std(z, ddof=1) <= 1.1, (kappa, spread)

    def test_degenerate_inputs(self):
        with pytest.raises(InsufficientDataError):
            binned_conditional(columns(np.full(40, 1.0), np.full(40, 0.5)))  # zero spread
        with pytest.raises(InsufficientDataError):
            binned_conditional(noise_run(2))  # a line through two shots leaves no residual

    def test_z_basis_squeezing_is_nan(self):
        # no atomic signal reaches a z-basis record, so Var(s2) - 1/2 is noise;
        # the model's own z-basis total excess is zero, and its dB NaN
        for mode in ("qnd", "reinit"):
            for kappa in (0.3, 1.0):
                result = run(mode=mode, basis="z", kappa_nominal=kappa)
                assert math.isnan(binned_conditional(result).squeezing_db)
                assert predict(result.config).var2 == 0.5

    def test_eta_zero_squeezing_is_nan(self):
        # at eta 0 both records are vacuum whatever the coupling, so Var(s2) - 1/2
        # is noise (it gives 0.18 and 0.17 dB at seeds 5 and 7); the model's own
        # total excess is zero there, and its dB NaN
        for seed in range(8):
            for mode in ("qnd", "reinit"):
                result = run(mode=mode, eta=0.0, seed=seed)
                assert math.isnan(binned_conditional(result).squeezing_db), (mode, seed)
                assert predict(result.config).var2 == 0.5

    def test_nan_s1_is_insufficient_data(self):
        # a row with a NaN shot has a NaN Var(s1), which must raise, and
        # quietly.  RunResult rejects NaN shots, but a row's moments can
        # still overflow to NaN, so the estimators are fed NaN past the
        # constructor's check
        rng = Generator(Philox(key=7))
        s1, s2 = rng.normal(size=(2, 50))
        s1[::2] = np.nan  # every resample of 50 draws meets one
        data = unchecked(s1, s2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError, match="zero or non-finite spread"):
                binned_conditional(data)
            for estimator in ("sigma_cond", "conditioning_gain"):
                with pytest.raises(InsufficientDataError, match="zero or non-finite spread"):
                    bootstrap_ci(data, estimator, resamples=20)

    def test_peak_memory(self):
        # one scratch column: the moment pass forms each centred product in
        # it through a small chunk buffer, and the residual's Var(r**2) is
        # formed, squared and centred in it
        data = noise_run(400_000)
        gc.collect()
        tracemalloc.start()
        try:
            binned_conditional(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * data.s1.nbytes


class TestMoments:
    def test_buffer_width_changes_no_bit(self, monkeypatch):
        # each moment is one pairwise sum over the whole centred row, however
        # many chunks of BLOCK_DRAWS shots its product was formed in
        rng = Generator(Philox(key=8))
        x, y = rng.normal(size=(2, 40_001))
        y += 0.6 * x
        results = []
        for width in (1, 7, 2**14, len(x)):
            monkeypatch.setattr(stats, "BLOCK_DRAWS", width)
            results.append(np.array(stats._moments(x, y, np.empty(len(x)))))
        for result in results[1:]:
            assert np.array_equal(result, results[0])
        v1, c, v2 = results[0]
        assert v1 == np.var(x, ddof=1) and v2 == np.var(y, ddof=1)
        assert c == pytest.approx(np.cov(x, y)[0, 1], rel=1e-12, abs=0.0)


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
    # lossless y basis at kappa 0.62: total excess kappa^2/2
    TOTAL = 0.62**2 / 2

    def test_ideal_point(self):
        ideal = squeezing_db(self.TOTAL, exact_conditional(0.62) - 0.5)
        assert ideal == pytest.approx(10 * math.log10(1 + 0.62**2), abs=1e-12)
        assert ideal == pytest.approx(1.413, abs=5e-4)
        assert 0.3 <= ideal <= 4.2  # inside the 1.8 (+2.4/-1.5) dB measurement band

    def test_no_gain_is_zero_db(self):
        assert squeezing_db(self.TOTAL, self.TOTAL) == pytest.approx(0.0, abs=1e-12)

    def test_band_inversion(self):
        conditional = conditional_from_db(1.8, self.TOTAL)
        assert conditional == pytest.approx(0.1270, abs=5e-5)
        # round trip
        assert squeezing_db(self.TOTAL, conditional) == pytest.approx(1.8, abs=1e-12)

    def test_floor_reports_infinite(self):
        assert squeezing_db(self.TOTAL, 0.0) == math.inf
        assert squeezing_db(self.TOTAL, -0.07) == math.inf

    def test_no_total_excess_is_nan(self):
        # no projection noise above the floor: nothing to squeeze
        for total in (0.0, -0.01, math.nan):
            assert math.isnan(squeezing_db(total, 0.1))
            assert math.isnan(squeezing_db(total, -0.1))

    def test_monotone_decreasing_in_sigma(self):
        values = [squeezing_db(self.TOTAL, c) for c in np.linspace(0.01, 0.4, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_data_ratio_matches_the_atoms_truth(self):
        # under loss and atom-number spread, the ratio of the records' excesses
        # is the squeezing of the atoms' own jz1 by its best-linear estimate
        # from s1, which only a simulator can see
        result = run(shots=200_000, eta=0.8, atom_fluctuation=True, spin_rel_std=0.05,
                     seed=SEED + 2)
        cond, vs = binned_conditional(result), variances(result)
        cov = np.cov(result.jz1, result.s1)
        truth = 10 * math.log10(cov[0, 0] / (cov[0, 0] - cov[0, 1] ** 2 / cov[1, 1]))
        assert cond.squeezing_db == squeezing_db(vs.sigma2 - 0.5, cond.sigma_cond - 0.5)
        # SE of 10*log10(T/C), T = v2 - 1/2 and C = v2 - c^2/v1 - 1/2, from the
        # per-shot influence of the moments (v1, c, v2): the delta method
        x1, x2 = result.s1 - result.s1.mean(), result.s2 - result.s2.mean()
        v1, c, v2 = np.mean(x1 * x1), np.mean(x1 * x2), np.mean(x2 * x2)
        t, b = v2 - 0.5, c / v1
        u = t - b * c
        influence = (x2 * x2 - v2) * (1 / t - 1 / u) + (b / u) * (
            2 * (x1 * x2 - c) - b * (x1 * x1 - v1)
        )
        se_db = 10 / math.log(10) * np.std(influence) / math.sqrt(len(x1))
        assert abs(cond.squeezing_db - truth) <= 5 * se_db
        assert 5 * se_db < 0.5  # small against the -20*log10(0.8) = 1.94 dB loss offset


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
        assert bootstrap_ci(fresh(data), "sigma_plus", seed=4) == bootstrap_ci(
            fresh(data), "sigma_plus", seed=4
        )
        assert bootstrap_ci(fresh(data), "sigma_plus", seed=4) != bootstrap_ci(
            fresh(data), "sigma_plus", seed=5
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

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf, True, "0.5", None])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            bootstrap_ci(noise_run(50), "sigma_cond", level=level)

    @pytest.mark.parametrize("seed", [None, 1.5, True, False, -1, 2**64, "a"])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        # None would draw from OS entropy, and the memo would then keep the
        # first draw; 1.5 and True would silently act as 1
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            bootstrap_ci(noise_run(50), "sigma1", seed=seed)

    def test_seed_accepts_the_64_bit_range(self):
        data = noise_run(50)
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(5)):
            lo, hi = bootstrap_ci(fresh(data), "sigma1", resamples=20, seed=seed)
            assert lo <= hi
        assert bootstrap_ci(fresh(data), "sigma1", resamples=20, seed=np.int64(5)) == \
            bootstrap_ci(fresh(data), "sigma1", resamples=20, seed=5)

    @pytest.mark.parametrize("resamples", [0, -1, 2.5, True, "10"])
    def test_resamples_must_be_a_positive_integer(self, resamples):
        with pytest.raises(ValueError, match="resamples must be a positive integer"):
            bootstrap_ci(noise_run(50), "sigma1", resamples=resamples)

    @pytest.mark.parametrize("estimator", ["sigma_cond", "conditioning_gain"])
    def test_degenerate_resample_raises_its_own_error(self, estimator):
        # 9 of 10 shots tie: a resample of only the tied shots has zero
        # spread, and about a third of the 37 resamples of each seed are
        # such; all 37 rows share one block
        data = columns(np.array([0.0] * 9 + [1.0]), np.linspace(-1.0, 1.0, 10))
        for seed in range(12):
            with pytest.raises(InsufficientDataError, match="zero or non-finite spread"):
                bootstrap_ci(data, estimator, resamples=37, seed=seed)

    @pytest.mark.parametrize("estimator", sorted(stats._STATISTICS))
    def test_block_size_changes_nothing(self, monkeypatch, estimator):
        data = run(shots=300)
        default = bootstrap_ci(fresh(data), estimator, resamples=50, seed=2)
        for draws in (1, 7 * 300 + 1, 10**6):  # one row, 7 rows, every row per block
            monkeypatch.setattr(stats, "BLOCK_DRAWS", draws)
            assert bootstrap_ci(fresh(data), estimator, resamples=50, seed=2) == default

    def test_rows_are_the_runs_estimate(self):
        # each memoised resample takes the moment pass that variances and
        # binned_conditional take on a run of that resample's shots, bit for bit
        rng = Generator(Philox(key=7))
        s1, s2 = rng.normal(size=(2, 33))
        data = columns(s1, s2)
        bootstrap_ci(data, "sigma_cond", resamples=5, seed=3)
        moments = stats._MEMO[data][1]
        rows = {name: formula(*moments) for name, formula in stats._STATISTICS.items()}
        idx = Generator(Philox(key=3)).integers(0, 33, size=(5, 33))
        for i, row in enumerate(idx):
            resample = columns(s1[row], s2[row])
            cond, vs = binned_conditional(resample), variances(resample)
            assert rows["sigma_cond"][i] == cond.sigma_cond
            assert rows["conditioning_gain"][i] == vs.sigma2 - cond.sigma_cond
            assert (rows["sigma1"][i], rows["sigma2"][i]) == (vs.sigma1, vs.sigma2)
            assert (rows["sigma_plus"][i], rows["sigma_minus"][i]) == (vs.sigma_plus,
                                                                       vs.sigma_minus)

    @pytest.mark.parametrize("n, resamples", [(33, 500), (2600, 37), (16385, 3)])
    def test_block_pass_is_the_run_pass(self, n, resamples):
        # the in-place block pass against the run pass, bit for bit, at
        # blocks of 496, 6 and 1 rows; 500 and 37 leave a partial last block
        data = run(shots=n)
        bootstrap_ci(data, "sigma_cond", resamples=resamples, seed=1)
        moments = stats._MEMO[data][1]
        idx = Generator(Philox(key=1)).integers(0, n, size=(resamples, n))
        for (v1, c, v2), row in zip(moments.T, idx):
            resample = columns(data.s1[row], data.s2[row])
            assert (v1, c, v2) == stats._moments(resample.s1, resample.s2, np.empty(n))
            vs, cond = variances(resample), binned_conditional(resample)
            assert (v1, v2) == (vs.sigma1, vs.sigma2)
            assert stats._conditional(v1, c, v2) == cond.sigma_cond

    def test_sigma_cond_blocks_refill_their_scratch(self, monkeypatch):
        # a pass allocates its block buffers once, not once per block: fresh
        # block-sized arrays in every block let the allocator trim and
        # re-fault the heap top each block
        class CountingNumPy:
            def __init__(self):
                self.empty_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                self.empty_calls += 1
                return np.empty(*args, **kwargs)

        data = noise_run(2600, seed=5)
        counts = []
        for resamples in (6, 20):  # 6 rows a block: one block, then four
            counter = CountingNumPy()
            monkeypatch.setattr(stats, "np", counter)
            bootstrap_ci(fresh(data), "sigma_cond", resamples=resamples)
            counts.append(counter.empty_calls)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("high", [2600, 777, 10, 2**31 + 1])
    def test_block_draw_is_the_row_draws(self, high):
        # one integers call per block draws what one call per row draws: the
        # spare 32-bit half of a Philox word sits in the generator's state.
        # At high = 2**31 + 1 about half of the 32-bit draws are rejected;
        # its rows are shorter than high
        n = high if high < 2**31 else 777
        block, per_row = Generator(Philox(key=11)), Generator(Philox(key=11))
        for m in (1, 6, 21):
            rows = [per_row.integers(0, high, size=n) for _ in range(m)]
            assert np.array_equal(block.integers(0, high, size=(m, n)), np.array(rows))
        assert block.integers(0, 2**40) == per_row.integers(0, 2**40)  # the streams stay in step

    def test_memo_serves_the_same_seed_and_resamples(self, monkeypatch):
        built = []

        def counting_generator(bit_generator):
            built.append(bit_generator)
            return Generator(bit_generator)

        monkeypatch.setattr(stats, "Generator", counting_generator)
        data = run(shots=300)
        cond = bootstrap_ci(data, "sigma_cond", resamples=50, seed=2)
        assert len(built) == 1
        s1 = bootstrap_ci(data, "sigma1", resamples=50, seed=2)
        wide = bootstrap_ci(data, "conditioning_gain", resamples=50, seed=2, level=0.95)
        assert bootstrap_ci(data, "sigma_cond", resamples=50, seed=2) == cond
        plus = bootstrap_ci(data, "sigma_plus", resamples=50, seed=2)
        assert len(built) == 1  # any estimator, at any level, draws nothing
        assert bootstrap_ci(data, "sigma1", resamples=50, seed=3) != s1
        assert len(built) == 2
        assert bootstrap_ci(data, "sigma1", resamples=51, seed=3) != s1
        assert len(built) == 3
        assert bootstrap_ci(data, "sigma1", resamples=50, seed=2) == s1
        assert bootstrap_ci(data, "conditioning_gain", resamples=50, seed=2, level=0.95) == wide
        assert bootstrap_ci(data, "sigma_plus", resamples=50, seed=2) == plus
        assert len(built) == 4  # one entry per run: seed 2 was drawn again, once

    def test_memo_goes_with_its_run(self):
        data = run(shots=300)
        gc.collect()
        entries = len(stats._MEMO)
        bootstrap_ci(data, "sigma_cond", resamples=20)
        assert len(stats._MEMO) == entries + 1
        ref = weakref.ref(data)
        del data
        gc.collect()
        assert ref() is None  # the memo holds no strong reference to its run
        assert len(stats._MEMO) == entries

    def test_writing_a_base_array_changes_no_run(self):
        base = Generator(Philox(key=6)).normal(size=(2, 300))
        s1 = base[0].copy()
        data = columns(base[0], base[1])
        interval = bootstrap_ci(data, "sigma1", resamples=50)
        base[0] = 3.0
        assert not np.shares_memory(data.s1, base)
        assert np.array_equal(data.s1, s1)
        assert bootstrap_ci(fresh(data), "sigma1", resamples=50) == interval
        assert bootstrap_ci(data, "sigma1", resamples=50) == interval

    def test_unfreezing_a_callers_array_changes_no_run(self):
        # the caller owns a writeable array: freezing it in place would let
        # the caller unfreeze and write it while the run's memo kept serving
        # the interval of the old values
        rng = Generator(Philox(key=6))
        s1, s2 = rng.normal(size=300), rng.normal(size=300)  # each owns its data
        data = columns(s1, s2)
        interval = bootstrap_ci(data, "sigma1", resamples=50)
        s1.setflags(write=True)
        s1 *= 3.0
        assert bootstrap_ci(fresh(data), "sigma1", resamples=50) == interval
        assert bootstrap_ci(data, "sigma1", resamples=50) == interval
        assert not np.shares_memory(data.s1, s1)


class TestFigureThreeCProperty:
    def test_reinit_plus_minus_agree(self):
        for i, kappa in enumerate([0.0, 0.15, 0.3, 0.45, 0.62]):
            vs = variances(run(mode="reinit", kappa_nominal=kappa, seed=SEED + i))
            se = math.hypot(vs.se_plus, vs.se_minus)
            assert abs(vs.sigma_plus - vs.sigma_minus) < 3 * se
