"""Tests for the shot sampler and its model: statistics, determinism, predict."""

import functools
import gc
import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import ks_2samp

import qndsim
from qndsim import gaussian_core, montecarlo
from qndsim.montecarlo import (
    DRAWS_PER_SHOT,
    MIN_ATOM_FRACTION,
    RunResult,
    SequenceConfig,
    _columns,
    _normals,
    _used_slots,
    mean_kappa_sq,
    ppnd16,
    predict,
    run_group,
    run_sequence,
    sweep_seed,
)
from qndsim.stats import _STATISTICS
import reference_sampler
from wishart import sample_covariances

SEED = 61803398


def cfg(**kwargs) -> SequenceConfig:
    base = dict(mode="qnd", kappa_nominal=0.62, shots=2600, seed=SEED)
    base.update(kwargs)
    return SequenceConfig(**base)


def se_var(var, n):
    return var * math.sqrt(2.0 / (n - 1))


def se_cov(v1, v2, c, n):
    return math.sqrt((v1 * v2 + c * c) / (n - 1))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            cfg(shots=1)
        with pytest.raises(ValueError):
            cfg(mode="both")
        with pytest.raises(ValueError):
            cfg(basis="x")
        with pytest.raises(ValueError):
            cfg(spin_rel_std=0.5)
        with pytest.raises(ValueError):
            cfg(eta=1.2)
        with pytest.raises(ValueError):
            cfg(seed=-1)
        with pytest.raises(ValueError):
            cfg(seed=1 << 64)

    def test_rejects_mistyped_values(self):
        for bad in ({"shots": 2600.0}, {"seed": True}, {"atom_fluctuation": 1}):
            with pytest.raises(TypeError):
                cfg(**bad)
        for bad in ({"kappa_nominal": "0.62"}, {"eta": math.nan}, {"spin_rel_std": -math.inf},
                    {"kappa_nominal": False}):
            with pytest.raises(ValueError):
                cfg(**bad)
        assert cfg(shots=np.int64(8), kappa_nominal=1, eta=np.float64(0.5)).shots == 8


class TestSampling:
    def test_zero_coupling_is_shot_noise(self):
        res = run_sequence(cfg(kappa_nominal=0.0, shots=20000))
        n = len(res)
        for col in (res.s1, res.s2):
            assert abs(np.var(col, ddof=1) - 0.5) <= 3 * se_var(0.5, n)
        c = np.cov(res.s1, res.s2, ddof=1)[0, 1]
        assert abs(c) <= 3 * se_cov(0.5, 0.5, 0.0, n)

    def test_qnd_variance_and_covariance(self):
        res = run_sequence(cfg())
        n = len(res)
        target_var = (1 + 0.62**2) / 2
        target_cov = 0.62**2 / 2
        assert abs(np.var(res.s1, ddof=1) - target_var) <= 3 * se_var(target_var, n)
        assert abs(np.var(res.s2, ddof=1) - target_var) <= 3 * se_var(target_var, n)
        c = np.cov(res.s1, res.s2, ddof=1)[0, 1]
        assert abs(c - target_cov) <= 3 * se_cov(target_var, target_var, target_cov, n)

    def test_reinitialized_decorrelates(self):
        res = run_sequence(cfg(mode="reinit"))
        n = len(res)
        target_var = (1 + 0.62**2) / 2
        c = np.cov(res.s1, res.s2, ddof=1)[0, 1]
        assert abs(c) <= 3 * se_cov(target_var, target_var, 0.0, n)
        assert not np.array_equal(res.jz1, res.jz2)

    def test_qnd_condition_shares_jz(self):
        res = run_sequence(cfg(shots=500))
        assert np.array_equal(res.jz1, res.jz2)

    def test_z_basis_untouched(self):
        res = run_sequence(cfg(basis="z", shots=20000))
        n = len(res)
        for col in (res.s1, res.s2):
            assert abs(np.var(col, ddof=1) - 0.5) <= 5 * se_var(0.5, n)
        c = np.cov(res.s1, res.s2, ddof=1)[0, 1]
        assert abs(c) <= 5 * se_cov(0.5, 0.5, 0.0, n)

    def test_loss_channel_variance(self):
        eta = 0.907
        res = run_sequence(cfg(eta=eta, shots=20000))
        n = len(res)
        target = eta**2 * (1 + 0.62**2) / 2 + (1 - eta**2) / 2
        assert target == pytest.approx(0.6581131378, abs=1e-10)
        assert abs(np.var(res.s1, ddof=1) - target) <= 3 * se_var(target, n)

    def test_full_loss_leaves_vacuum(self):
        res = run_sequence(cfg(eta=0.0, shots=20000))
        n = len(res)
        assert abs(np.var(res.s1, ddof=1) - 0.5) <= 3 * se_var(0.5, n)
        c = np.cov(res.s1, res.s2, ddof=1)[0, 1]
        assert abs(c) <= 3 * se_cov(0.5, 0.5, 0.0, n)

    def test_atom_fluctuation_scales_kappa(self):
        spread = 2.4 / 34
        res = run_sequence(cfg(atom_fluctuation=True, spin_rel_std=spread, shots=5000))
        ratios = (res.kappa_shot / 0.62) ** 2
        assert np.all(ratios >= 0.1 - 1e-12)
        assert np.std(ratios) == pytest.approx(spread, rel=0.1)

    def test_kappa_shot_floor_under_extreme_spread(self):
        res = run_sequence(cfg(atom_fluctuation=True, spin_rel_std=0.49, shots=50000))
        assert np.min((res.kappa_shot / 0.62) ** 2) >= 0.1 - 1e-12

    @pytest.mark.parametrize("eta", [1.0, 0.8], ids=["lossless", "lossy"])
    def test_moments_follow_their_wishart_law(self, eta):
        # a run's Bessel-corrected moments S of (s1, s2) have (n-1)S ~
        # Wishart(n-1, Sigma), Sigma the model's: seeds 0-999 against 200,000
        # draws of that law, by two-sample KS (seeds, counts and the 1e-3
        # threshold were fixed before the first run)
        config = cfg(eta=eta)
        runs = (run_sequence(replace(config, seed=seed)) for seed in range(1000))
        sampled = np.array([np.cov(run.s1, run.s2)[[0, 0, 1], [0, 1, 1]] for run in runs]).T
        m = predict(config)
        law = sample_covariances(
            [[m.var1, m.cov], [m.cov, m.var2]], config.shots, 200_000, np.random.default_rng(1)
        )
        exact = law[:, [0, 0, 1], [0, 1, 1]].T
        names = ("v1", "c", "v2", "Var(s2|s1)")
        for name, x, y in zip(names, [*sampled, _STATISTICS["sigma_cond"](*sampled)],
                              [*exact, _STATISTICS["sigma_cond"](*exact)]):
            assert ks_2samp(x, y).pvalue > 1e-3, name

    @pytest.mark.parametrize("eta", [1.0, 0.8], ids=["lossless", "lossy"])
    def test_group_moments_follow_their_wishart_law(self, eta):
        # a run_group pair's (s1, s2_qnd, s2_reinit) is Gaussian too, so its
        # Bessel-corrected 3x3 moments S have (n-1)S ~ Wishart(n-1, Sigma):
        # Sigma from the two modes' predict, and Cov(s2_qnd, s2_reinit) = 1/2,
        # the slot-4 light noise and slot-6 refill both s2 carry
        # (eta^2/2 + (1 - eta^2)/2).  Seeds 0-999 against 200,000 draws of
        # that law, by two-sample KS (seeds, counts and the 1e-3 threshold
        # were fixed before the first run).  Not the z basis: there the two
        # s2 are one column, and Sigma is singular.
        modes = [cfg(eta=eta, mode=mode) for mode in ("qnd", "reinit")]

        def moments(seed):
            qnd, reinit = run_group([replace(config, seed=seed) for config in modes])
            return np.cov([qnd.s1, qnd.s2, reinit.s2])

        sampled = np.array([moments(seed) for seed in range(1000)])
        q, r = (predict(config) for config in modes)
        assert r.var1 == pytest.approx(q.var1)
        sigma = [[q.var1, q.cov, r.cov], [q.cov, q.var2, 0.5], [r.cov, 0.5, r.var2]]
        law = sample_covariances(sigma, modes[0].shots, 200_000, np.random.default_rng(2))
        entries = {"v1": (0, 0), "c_qnd": (0, 1), "c_reinit": (0, 2), "v2_qnd": (1, 1),
                   "v2_reinit": (2, 2), "Cov(s2_qnd, s2_reinit)": (1, 2)}
        for name, (i, j) in entries.items():
            assert ks_2samp(sampled[:, i, j], law[:, i, j]).pvalue > 1e-3, name

    @pytest.mark.parametrize("kappa", [0.0, 0.62])
    def test_lossless_z_scores_have_unit_sd(self, kappa):
        # the z-score of sigma1 and sigma_plus against predict, with the SE
        # of stats.variances (the estimate times sqrt(2/(n-1))), over 200,000
        # pseudo-runs of the exact law of a lossless 2600-shot run: its SD lies
        # within 0.95-1.05 (count, seed and bounds fixed before the first run)
        config = cfg(kappa_nominal=kappa)
        m, n = predict(config), config.shots
        s = sample_covariances([[m.var1, m.cov], [m.cov, m.var2]], n, 200_000,
                               np.random.default_rng(3))
        moments = (s[:, 0, 0], s[:, 0, 1], s[:, 1, 1])
        for name, target in (("sigma1", m.var1), ("sigma_plus", m.sigma_plus)):
            estimate = _STATISTICS[name](*moments)
            z = (estimate - target) / (estimate * math.sqrt(2.0 / (n - 1)))
            print(f"kappa {kappa} {name}: z mean {np.mean(z):+.4f}, SD {np.std(z):.4f}")
            assert 0.95 <= np.std(z) <= 1.05, name


class TestDeterminism:
    def test_rerun_is_bitwise_identical(self):
        a = run_sequence(cfg(shots=2))
        b = run_sequence(cfg(shots=2))
        assert len(a) == 2
        for name in ("s1", "s2", "jz1", "jz2", "kappa_shot"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_matter(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)  # a pool on any host
        base = run_sequence(cfg(shots=20000))
        other = run_sequence(cfg(shots=20000), workers=workers)
        for name in ("s1", "s2", "jz1", "jz2", "kappa_shot"):
            assert np.array_equal(getattr(base, name), getattr(other, name))

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2"])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            run_sequence(cfg(shots=20000), workers=workers)

    @pytest.mark.parametrize(
        "workers, chunks, cpus, threads",
        [(16, 40, 2, 2), (16, 3, 8, 3), (2, 40, 8, 2), (16, 40, 1, None), (4, 1, 8, None)],
        ids=["cpus", "chunks", "workers", "one_cpu", "one_chunk"],
    )
    def test_pool_is_capped_by_chunks_and_cpus(self, monkeypatch, workers, chunks, cpus, threads):
        pools = []

        class RecordingPool:  # records its size and fills the chunks in turn
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        config = cfg(shots=100 * chunks)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", 100 * len(_used_slots(config)))
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        serial = run_sequence(config)
        run = run_sequence(config, workers=workers)
        assert pools == ([] if threads is None else [threads])
        assert np.array_equal(run.s1, serial.s1) and np.array_equal(run.s2, serial.s2)

    @pytest.mark.parametrize("modes, settings, chunk", [
        (["qnd"], {}, 19114),
        (["qnd", "reinit"], {}, 14336),
        (["qnd", "reinit"], {"eta": 0.8, "atom_fluctuation": True, "spin_rel_std": 0.05}, 8192),
        (["qnd"], {"basis": "z"}, 19114),
    ], ids=["lossless_qnd", "qnd_reinit", "lossy_pair", "z_basis"])
    def test_chunk_is_normals_over_slots(self, monkeypatch, modes, settings, chunk):
        # a chunk transforms _CHUNK_NORMALS normals at most, whatever the
        # slots its group uses: 8192 shots of the 7 slots of a lossy pair
        configs = [cfg(mode=mode, shots=2 * chunk + 5, **settings) for mode in modes]
        assert chunk == montecarlo._CHUNK_NORMALS // len(group_slots(configs))
        sizes = []

        def normals(seed, start, n, slots):
            sizes.append(n)
            return _normals(seed, start, n, slots)

        monkeypatch.setattr(montecarlo, "_normals", normals)
        run_group(configs)
        assert sizes == [chunk, chunk, 5]

    def test_usable_cpus(self, monkeypatch):
        assert 1 <= montecarlo._usable_cpus() <= os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
        assert montecarlo._usable_cpus() == os.cpu_count()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_is_one_copy_of_the_columns(self, workers):
        # chunks fill the run's two record columns in place: no per-chunk
        # list, no concatenated second copy and no atoms' columns (400k shots
        # keeps chunk temporaries small)
        config = cfg(shots=400_000)
        column_bytes = 8 * config.shots
        gc.collect()
        tracemalloc.start()
        try:
            run_sequence(config, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * column_bytes

    def test_atoms_are_rederived_bit_for_bit(self):
        # the run (three chunks) holds only s1 and s2; jz1, jz2 and kappa_shot
        # come back from the run's own windows on first read, equal to the
        # reference's algebra on the normals of all 20000 shots as one block
        config = cfg(mode="reinit", eta=0.9, atom_fluctuation=True, spin_rel_std=0.07,
                     shots=20000)
        run = run_sequence(config)
        assert set(vars(run)) == {"config", "s1", "s2"}
        z = _normals(SEED, 0, config.shots, _used_slots(config))
        reference = reference_sampler.columns(config, {k: v.tolist() for k, v in z.items()})
        for name, column in reference.items():
            value = getattr(run, name)
            assert same_bits(value, column)
            assert not value.flags.writeable
            with pytest.raises(AttributeError):
                setattr(run, name, column)
        assert run.jz1 is run.jz1  # derived once, then cached

    @pytest.mark.parametrize("k", [2, 8191, 8193, 16385])
    def test_prefix_matches_shorter_run(self, k):
        # shot i depends only on its own draw window, wherever the 8192-shot
        # chunks of either run happen to fall
        config = cfg(mode="reinit", eta=0.9, atom_fluctuation=True, spin_rel_std=0.07,
                     shots=20000)
        full = run_sequence(config)
        prefix = run_sequence(replace(config, shots=k))
        for name in ("s1", "s2", "jz1", "jz2", "kappa_shot"):
            assert np.array_equal(getattr(full, name)[:k], getattr(prefix, name))

    @pytest.mark.parametrize(
        "settings",
        [{}, {"mode": "reinit"}, {"eta": 0.8}, {"atom_fluctuation": True, "spin_rel_std": 0.05}],
        ids=["lossless", "reinit", "lossy", "spread"],
    )
    def test_unused_slots_are_not_read(self, settings):
        config = cfg(shots=100, **settings)
        used = _used_slots(config)
        z = _normals(SEED, 0, 100, list(range(DRAWS_PER_SHOT)))
        poisoned = {k: z[k] if k in used else np.full(100, np.nan) for k in z}
        # the algebra is handed every slot's normals, the poisoned ones too
        clean = _columns([config], {k: z[k] for k in used})
        dirty = _columns([config], poisoned)
        assert clean.keys() == dirty.keys()
        for key in clean:
            assert np.array_equal(clean[key], dirty[key])

    def test_default_point_runs_fast(self):
        start = time.perf_counter()
        run_sequence(cfg())
        assert time.perf_counter() - start < 1.0


def sampler_uniforms(seed: int, shots: int) -> np.ndarray:
    """The doubles ``(word >> 11) * 2**-53`` of shots 0 .. shots - 1's words, one row per shot."""
    return Generator(Philox(key=seed)).random((shots, DRAWS_PER_SHOT))


class TestPpnd16:
    """AS241 against the stdlib's scalar implementation of the same algorithm."""

    # the branch edges: |q| = 0.425, r = 5 (p = exp(-25)), and the extremes
    EDGES = [
        0.075, 0.925, math.nextafter(0.075, 0.0), math.nextafter(0.925, 1.0),
        math.exp(-25.0), math.nextafter(math.exp(-25.0), 0.0),
        math.nextafter(math.exp(-25.0), 1.0), 1.0 - math.exp(-25.0),
        1e-300, 2.0**-53, 1.0 - 2.0**-53, 0.5, np.finfo(float).tiny,
    ]

    def test_matches_stdlib(self):
        p = np.concatenate([sampler_uniforms(SEED, 5000).ravel(), self.EDGES])
        inv_cdf = NormalDist().inv_cdf
        expected = np.array([inv_cdf(v) for v in p.tolist()])
        assert np.max(np.abs(ppnd16(p) - expected)) <= 1e-15

    def test_sampler_uniforms_differ_only_in_the_tails(self):
        # defect 8: NumPy's log may round differently from the C library's,
        # so AS241's tail branch may move a quantile by a few ulps; the
        # central branch, which takes no log, matches bit for bit
        u = np.concatenate([sampler_uniforms(seed, 42000).ravel() for seed in (1, 2, 3)])
        p = np.concatenate([np.maximum(u, np.finfo(float).tiny), self.EDGES])
        inv_cdf = NormalDist().inv_cdf
        expected = np.array([inv_cdf(v) for v in p.tolist()])
        got = ppnd16(p)
        differ = got != expected
        assert not np.any(differ & (np.abs(p - 0.5) <= 0.425))
        assert np.array_equal(got[-len(self.EDGES):], expected[-len(self.EDGES):])
        assert np.array_equal(np.sign(got[differ]), np.sign(expected[differ]))
        ulps = np.abs(got[differ].view(np.int64) - expected[differ].view(np.int64))
        print(f"{differ.sum()} of {len(p)} quantiles differ, by at most {ulps.max(initial=0)} ulps")
        assert ulps.max(initial=0) <= 3

    def test_monotone(self):
        p = np.sort(sampler_uniforms(SEED, 5000).ravel())
        assert np.all(np.diff(ppnd16(p)) >= 0.0)
        # next to the branch edges AS241 itself (the stdlib's evaluation too)
        # can step back by one ulp, on the sampler's 2**-53 lattice and below it
        for edge in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
            lattice = (round(edge * 2.0**53) + np.arange(-3000, 3001)) * 2.0**-53
            finest = [edge]
            for _ in range(100):
                finest = [math.nextafter(finest[0], 0.0), *finest, math.nextafter(finest[-1], 1.0)]
            for grid in (lattice, np.array(finest)):
                x = ppnd16(grid)
                assert np.all(np.diff(x) >= -np.spacing(np.abs(x[1:])))

    def test_matches_scipy_ndtri(self):
        p = np.concatenate([sampler_uniforms(SEED, 5000).ravel(), self.EDGES])
        np.testing.assert_allclose(ppnd16(p), ndtri(p), rtol=1e-14, atol=1e-14)

    def test_keeps_shape(self):
        p = sampler_uniforms(SEED, 4)
        assert ppnd16(p).shape == p.shape
        assert np.array_equal(ppnd16(p).ravel(), ppnd16(p.ravel()))


def test_import_loads_no_scipy():
    # the package namespace is lazy, so every module is imported by name
    modules = ", ".join(
        f"qndsim.{name}"
        for name in ("harness", "figures", "stats", "montecarlo", "gaussian_core", "physics")
    )
    code = (
        f"import sys, {modules}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(qndsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


class TestSweep:
    """Point ``i`` of a sweep runs on ``sweep_seed(seed, i)``."""

    @staticmethod
    def sweep(base, grid):
        return [
            run_sequence(replace(base, kappa_nominal=kappa, seed=sweep_seed(base.seed, i)))
            for i, kappa in enumerate(grid)
        ]

    def test_zero_point_is_shot_noise(self):
        (res,) = self.sweep(cfg(), [0.0])
        n = len(res)
        for col in (res.s1, res.s2):
            assert abs(np.var(col, ddof=1) - 0.5) <= 3 * se_var(0.5, n)

    def test_trend_over_grid(self):
        grid = [0.0, 0.12, 0.25, 0.37, 0.5, 0.62]
        results = self.sweep(cfg(shots=5000), grid)
        sig1 = [np.var(r.s1, ddof=1) for r in results]
        plus = [np.var(r.s1 + r.s2, ddof=1) / 2 for r in results]
        minus = [np.var(r.s1 - r.s2, ddof=1) / 2 for r in results]
        n = 5000
        # endpoints separate cleanly; the difference combination stays flat
        gap = sig1[-1] - sig1[0]
        assert gap > 3 * math.sqrt(se_var(0.69, n) ** 2 + se_var(0.5, n) ** 2)
        assert plus[-1] - plus[0] > gap
        for k, m in zip(grid, minus):
            assert abs(m - 0.5) <= 3 * se_var(0.5, n)

    def test_per_point_seeds_differ_and_reproduce(self):
        first = self.sweep(cfg(shots=100), [0.3, 0.3])
        again = self.sweep(cfg(shots=100), [0.3, 0.3])
        assert not np.array_equal(first[0].s1, first[1].s1)
        assert np.array_equal(first[0].s1, again[0].s1)
        assert first[0].config.seed == sweep_seed(SEED, 0)


class TestEstimatorConsistency:
    """Large-sample variances converge to the exact-model values."""

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.62, 1.0])
    @pytest.mark.parametrize("mode", ["qnd", "reinit"])
    def test_convergence_at_1e5(self, kappa, mode):
        res = run_sequence(cfg(mode=mode, kappa_nominal=kappa, shots=100_000))
        n = len(res)
        individual = (1 + kappa**2) / 2
        if mode == "qnd":
            targets = {
                "s1": individual,
                "s2": individual,
                "plus": (1 + 2 * kappa**2) / 2,
                "minus": 0.5,
            }
        else:
            targets = {k: individual for k in ("s1", "s2", "plus", "minus")}
        observed = {
            "s1": np.var(res.s1, ddof=1),
            "s2": np.var(res.s2, ddof=1),
            "plus": np.var((res.s1 + res.s2) / math.sqrt(2), ddof=1),
            "minus": np.var((res.s1 - res.s2) / math.sqrt(2), ddof=1),
        }
        for name, target in targets.items():
            assert abs(observed[name] - target) <= 5 * se_var(target, n), name

    def test_mode_contrast_power(self):
        qnd = run_sequence(cfg())
        reinit = run_sequence(cfg(mode="reinit"))
        n = len(qnd)
        m_qnd = np.var((qnd.s1 - qnd.s2) / math.sqrt(2), ddof=1)
        m_re = np.var((reinit.s1 - reinit.s2) / math.sqrt(2), ddof=1)
        se = math.sqrt(se_var(m_qnd, n) ** 2 + se_var(m_re, n) ** 2)
        assert (m_re - m_qnd) / se > 5.0

    def test_atom_fluctuation_inflation_below_one_percent(self):
        spread = 2.4 / 34
        res = run_sequence(
            cfg(atom_fluctuation=True, spin_rel_std=spread, shots=1_000_000)
        )
        fixed = (1 + 0.62**2) / 2
        assert abs(np.var(res.s1, ddof=1) - fixed) / fixed < 0.01


class TestSerialization:
    def test_result_validates_columns(self):
        with pytest.raises(ValueError):
            RunResult(cfg(shots=3), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("column", ["s1", "s2"])
    @pytest.mark.parametrize("bad", [[math.inf], [-math.inf], [math.nan], [math.inf, math.nan]])
    def test_result_rejects_non_finite_shots(self, column, bad):
        cols = {"s1": np.zeros(50), "s2": np.zeros(50)}
        cols[column][[17, 40][: len(bad)]] = bad
        with pytest.raises(ValueError, match=f"column {column} holds a non-finite value"):
            RunResult(cfg(shots=50), **cols)

    def test_result_compares_by_identity(self):
        result = run_sequence(cfg(shots=20))
        twin = RunResult(result.config, result.s1, result.s2)
        assert result == result and result != twin
        assert len({result, twin}) == 2  # hashable

    def test_result_keeps_its_own_columns(self):
        # run_sequence's columns own their data and are frozen as they are
        # sampled, so they are kept, not copied; every column a caller passes
        # in is copied, a frozen one that owns its data and a view alike
        result = run_sequence(cfg(shots=20))
        assert result.s1.base is None and not result.s1.flags.writeable
        twin = RunResult(result.config, result.s1, result.s2)
        for name in ("s1", "s2"):
            mine, theirs = getattr(twin, name), getattr(result, name)
            assert not np.shares_memory(mine, theirs) and np.array_equal(mine, theirs)
            assert not mine.flags.writeable
        base = np.stack([result.s1, result.s2])
        viewed = RunResult(result.config, base[0], base[1])
        assert not np.shares_memory(viewed.s1, base) and not np.shares_memory(viewed.s2, base)
        assert not viewed.s1.flags.writeable and base.flags.writeable

    def test_unfreezing_a_frozen_callers_array_changes_no_run(self):
        # the caller still owns a frozen array it passed in, and may unfreeze
        # and write it: the run holds a copy
        a, b = np.linspace(-1.0, 1.0, 50), np.zeros(50)
        a.setflags(write=False)
        run = RunResult(cfg(shots=50), a, b)
        a.setflags(write=True)
        a *= 3
        assert np.array_equal(run.s1, np.linspace(-1.0, 1.0, 50))
        assert not np.shares_memory(run.s1, a)


GROUP_VARIANTS = {
    "lossless": {},
    "eta0.8": {"eta": 0.8},
    "spread0.05": {"atom_fluctuation": True, "spin_rel_std": 0.05},
}


@functools.lru_cache(maxsize=None)
def reference_run(mode, basis, variant, shots):
    """run_sequence of one config, its atoms re-derived, at the default chunk size and one worker."""
    run = run_sequence(cfg(mode=mode, basis=basis, shots=shots, **GROUP_VARIANTS[variant]))
    run.jz1  # derives all three atoms' columns
    return run


class TestGroup:
    """run_group: the runs of configs that differ only in mode, sampled together."""

    @pytest.mark.parametrize("variant", list(GROUP_VARIANTS))
    @pytest.mark.parametrize("basis", ["y", "z"])
    def test_each_run_is_its_own_run_sequence(self, basis, variant):
        # each run of a group, and its re-derived atoms, is bit for bit what
        # run_sequence gives alone; TestReferenceSampler::test_algebra walks
        # the chunk sizes and worker counts
        shots = 20000  # three chunks, on two workers
        alone = {mode: reference_run(mode, basis, variant, shots) for mode in ("qnd", "reinit")}
        for modes in (["qnd", "reinit"], ["reinit", "qnd"]):
            configs = [cfg(mode=mode, basis=basis, shots=shots, **GROUP_VARIANTS[variant])
                       for mode in modes]
            runs = run_group(configs, workers=2)
            assert [run.config for run in runs] == configs
            assert runs[0].s1 is runs[1].s1
            for run in runs:
                for name in ("s1", "s2", "jz1", "jz2", "kappa_shot"):
                    assert np.array_equal(getattr(run, name),
                                          getattr(alone[run.config.mode], name)), name
                    assert not getattr(run, name).flags.writeable

    def test_runs_share_one_frozen_s1(self):
        qnd_run, reinit_run = run_group([cfg(), cfg(mode="reinit")])
        assert qnd_run.s1 is reinit_run.s1
        assert qnd_run.s1.base is None and not qnd_run.s1.flags.writeable
        assert qnd_run.s2 is not reinit_run.s2
        assert set(vars(qnd_run)) == {"config", "s1", "s2"}

    @pytest.mark.parametrize(
        "other",
        [{"seed": SEED + 1}, {"shots": 2601}, {"kappa_nominal": 0.3}, {"basis": "z"},
         {"eta": 0.8}, {"atom_fluctuation": True, "spin_rel_std": 0.05}],
    )
    def test_configs_may_differ_only_in_mode(self, other):
        with pytest.raises(ValueError, match="may differ only in mode"):
            run_group([cfg(), cfg(mode="reinit", **other)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_group([])

    @pytest.mark.parametrize("workers", [0, 1.5, True])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            run_group([cfg()], workers=workers)


def same_bits(a, b) -> bool:
    """Whether two float sequences hold the same doubles, bit for bit."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


REFERENCE_SHOTS = 3000
REFERENCE_GROUPS = {  # name: (seed, basis, settings) of a group of a qnd and a reinit config
    **{f"{basis}-{variant}": (7, basis, settings)
       for basis in ("y", "z") for variant, settings in GROUP_VARIANTS.items()},
    "z-eta0.5-top_seed": (2**64 - 1, "z", {"eta": 0.5}),
}
REFERENCE_SEEDS = sorted({seed for seed, _, _ in REFERENCE_GROUPS.values()})


def reference_group(name: str, shots: int = REFERENCE_SHOTS) -> list[SequenceConfig]:
    seed, basis, settings = REFERENCE_GROUPS[name]
    return [cfg(mode=mode, basis=basis, seed=seed, shots=shots, **settings)
            for mode in ("qnd", "reinit")]


def group_slots(configs) -> list[int]:
    return sorted(set().union(*map(_used_slots, configs)))


@functools.lru_cache(maxsize=None)
def reference_uniforms(seed: int) -> list[float]:
    return reference_sampler.uniforms(seed, 0, REFERENCE_SHOTS)


@functools.lru_cache(maxsize=None)
def reference_columns(name: str) -> list[dict]:
    """The reference's algebra on the package's normals of the whole group, as one block."""
    configs = reference_group(name)
    z = _normals(configs[0].seed, 0, REFERENCE_SHOTS, group_slots(configs))
    z = {k: column.tolist() for k, column in z.items()}
    return [reference_sampler.columns(config, z) for config in configs]


class TestReferenceSampler:
    """The sampler against the NumPy-free ``reference_sampler``, one stage at a time.

    Each stage is fed the package's output of the stage before, so a failure
    names the stage that moved: the words, the uniforms, the normals or the
    column algebra.  The seeds and sizes were fixed before the first run.
    """

    @pytest.mark.parametrize("start", [0, 5, 8191])
    @pytest.mark.parametrize("seed", [0, 7, SEED, 2**64 - 1])
    def test_words(self, seed, start):
        # the stream _normals reads from shot start's window on
        stream = Philox(key=seed).advance(2 * start).random_raw(3 * DRAWS_PER_SHOT)
        assert stream.tolist() == reference_sampler.words(seed, start, 3)

    @pytest.mark.parametrize("group", list(REFERENCE_GROUPS))
    def test_uniforms(self, group):
        # the package's word-to-uniform map and its clip: _normals is ppnd16
        # of the reference's uniforms of the group's slots, bit for bit
        configs = reference_group(group)
        slots = group_slots(configs)
        seed = configs[0].seed
        z = _normals(seed, 0, REFERENCE_SHOTS, slots)
        u = np.reshape(reference_uniforms(seed), (REFERENCE_SHOTS, DRAWS_PER_SHOT)).T
        assert list(z) == slots
        assert same_bits([z[k] for k in slots], ppnd16(u[slots]))

    def test_normals(self):
        # defect 8: ppnd16 is the stdlib's inv_cdf bit for bit in AS241's
        # central branch, which takes no log; in the tails NumPy's log may
        # move a quantile by a few ulps
        u, expected = [], []
        for seed in REFERENCE_SEEDS:
            uniforms = reference_uniforms(seed)
            u.append(np.reshape(uniforms, (REFERENCE_SHOTS, DRAWS_PER_SHOT)).T)
            expected.append(list(reference_sampler.normals(uniforms).values()))
        u, expected = np.hstack(u), np.hstack(expected)
        got = ppnd16(u)
        differ = got != expected
        assert not np.any(differ & (np.abs(u - 0.5) <= 0.425))
        ulps = np.abs(got[differ].view(np.int64) - expected[differ].view(np.int64))
        print(f"{differ.sum()} of {u.size} normals differ from inv_cdf, "
              f"by at most {ulps.max(initial=0)} ulps")
        assert ulps.max(initial=0) <= 3

    @pytest.mark.parametrize("chunk, shots", [(1, 64), (1000, REFERENCE_SHOTS),
                                              (8192, REFERENCE_SHOTS)])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("group", list(REFERENCE_GROUPS))
    def test_algebra(self, monkeypatch, group, workers, chunk, shots):
        # every column of run_group, the re-derived atoms too, is the
        # reference's algebra on the group's normals taken as one block,
        # whatever the chunking and the worker count; 8192 shots is the
        # production chunk of a lossy 7-slot group, and at 3000 shots the
        # production rule makes one chunk of every group, as this case does
        configs = reference_group(group, shots)
        starts = []

        def normals(seed, start, n, slots):
            starts.append(start)
            return _normals(seed, start, n, slots)

        monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", chunk * len(group_slots(configs)))
        monkeypatch.setattr(montecarlo, "_normals", normals)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)  # a pool on any host
        runs = run_group(configs, workers=workers)
        assert sorted(starts) == list(range(0, shots, chunk))  # the chunking took hold
        for run, reference in zip(runs, reference_columns(group)):
            for name, column in reference.items():
                assert same_bits(getattr(run, name), column[:shots]), (run.config.mode, name)

    def test_restates_the_package_constants(self):
        # no stage above reaches the atom-number clip, so its value is compared here
        assert reference_sampler.MIN_ATOM_FRACTION == MIN_ATOM_FRACTION
        assert reference_sampler.DRAWS_PER_SHOT == DRAWS_PER_SHOT

    def test_loads_no_numpy(self):
        tests = str(Path(reference_sampler.__file__).resolve().parent)
        code = "import sys, reference_sampler; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": tests}, timeout=60)
        assert out.stdout.strip() == "False"


def loss(var, eta):
    return eta**2 * var + (1 - eta**2) / 2


class TestPredict:
    """The Gaussian model against hand-written closed forms and its own identities."""

    KAPPAS = [0.0, 0.15, -0.449, 0.62, 1.5, 3.0]

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_lossless_y(self, kappa):
        m = predict(cfg(kappa_nominal=kappa))
        individual = (1 + kappa**2) / 2
        assert m.var1 == pytest.approx(individual, abs=1e-12)
        assert m.var2 == pytest.approx(individual, abs=1e-12)
        assert m.cov == pytest.approx(kappa**2 / 2, abs=1e-12)
        assert m.sigma_plus == pytest.approx((1 + 2 * kappa**2) / 2, abs=1e-12)
        assert m.sigma_minus == pytest.approx(0.5, abs=1e-12)
        cond = (1 + 2 * kappa**2) / (2 * (1 + kappa**2))
        assert m.cond == pytest.approx(cond, abs=1e-12)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_reinit(self, kappa):
        m = predict(cfg(mode="reinit", kappa_nominal=kappa))
        individual = (1 + kappa**2) / 2
        for value in (m.var1, m.var2, m.sigma_plus, m.sigma_minus, m.cond):
            assert value == pytest.approx(individual, abs=1e-12)
        assert m.cov == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["qnd", "reinit"])
    def test_z_basis(self, mode):
        m = predict(cfg(mode=mode, basis="z", eta=0.7, kappa_nominal=1.5))
        for value in (m.var1, m.var2, m.sigma_plus, m.sigma_minus, m.cond):
            assert value == pytest.approx(0.5, abs=1e-12)
        assert m.cov == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kappa, mode",
        [(1e160, "qnd"), (1e160, "reinit"), (-1e200, "qnd"), (-1e200, "reinit"),
         (1e78, "qnd"), (1e100, "qnd")],
    )
    def test_overflow_raises_naming_kappa(self, mode, kappa):
        # an inf or nan moment would reach the theory table and the --check band.
        # At 1e78 and 1e100 only Cov**2 overflows, in the qnd mode's Var(s2 | s1);
        # in reinit Cov is 0 and the model is finite there.
        with pytest.raises(ValueError, match=re.escape(f"kappa={kappa!r}: the model overflows")):
            predict(cfg(mode=mode, kappa_nominal=kappa))

    @pytest.mark.parametrize("mode", ["qnd", "reinit"])
    @pytest.mark.parametrize("kappa", [1.2e154, 1e200])
    def test_z_basis_is_vacuum_at_any_coupling(self, mode, kappa):
        # no shear touches the z quadratures, so the recorded moments are the
        # vacuum's even where kappa**2 overflows float64
        m = predict(cfg(mode=mode, basis="z", kappa_nominal=kappa))
        assert (m.var1, m.var2, m.cov, m.cond) == (0.5, 0.5, 0.0, 0.5)

    @pytest.mark.parametrize("mode", ["qnd", "reinit"])
    def test_no_transmission_at_overflowing_coupling_raises_naming_kappa(self, mode):
        # eta 0 times an infinite kappa**2 is NaN: the model's overflow, not an
        # s1 with no spread
        with pytest.raises(ValueError, match=re.escape("kappa=1e+160: the model overflows")):
            predict(cfg(mode=mode, eta=0.0, kappa_nominal=1e160))
        assert predict(cfg(mode=mode, eta=0.0, kappa_nominal=1e150)).cond == 0.5

    def test_predict_builds_no_state_or_map(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a Gaussian state or map was built")

        for name in ("apply_map", "qnd_map", "apply_loss", "coherent_init", "condition_on"):
            monkeypatch.setattr(gaussian_core, name, built)
        monkeypatch.setattr(gaussian_core.GaussianState, "_freeze", built)
        monkeypatch.setattr(gaussian_core.SymplecticMap, "__post_init__", built)
        for mode, basis in itertools.product(["qnd", "reinit"], ["y", "z"]):
            m = predict(cfg(mode=mode, basis=basis, eta=0.8))
            var = loss((1 + 0.62**2) / 2, 0.8) if basis == "y" else 0.5
            assert m.var1 == pytest.approx(var, abs=1e-12)
            axis = predict(cfg(mode=mode, basis=basis, eta=0.8), np.array([0.0, 0.62]))
            assert axis.var1.tolist() == [0.5, m.var1]

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.8, 0.907])
    def test_loss(self, eta):
        kappa = 0.62
        m = predict(cfg(eta=eta, kappa_nominal=kappa))
        var = loss((1 + kappa**2) / 2, eta)
        cov = eta**2 * kappa**2 / 2
        assert m.var1 == pytest.approx(var, abs=1e-12)
        assert m.var2 == pytest.approx(var, abs=1e-12)
        assert m.cov == pytest.approx(cov, abs=1e-12)
        assert m.cond == pytest.approx(var - cov**2 / var, abs=1e-12)

    @pytest.mark.parametrize("r", [0.05, 2.4 / 34, 0.3, 0.49])
    def test_clipped_mean_kappa_sq_by_quadrature(self, r):
        # E[max(1 + r z, MIN_ATOM_FRACTION)], split at the clip point a
        a = (MIN_ATOM_FRACTION - 1) / r

        def pdf(z):
            return math.exp(-z * z / 2) / math.sqrt(2 * math.pi)

        clipped, _ = quad(lambda z: MIN_ATOM_FRACTION * pdf(z), -np.inf, a, epsabs=1e-14)
        linear, _ = quad(lambda z: (1 + r * z) * pdf(z), a, np.inf, epsabs=1e-14)
        expected = 0.62**2 * (clipped + linear)
        config = cfg(atom_fluctuation=True, spin_rel_std=r)
        assert mean_kappa_sq(config) == pytest.approx(expected, rel=1e-12)
        assert mean_kappa_sq(cfg(spin_rel_std=r)) == 0.62**2  # spread switched off
        m = predict(config)
        assert m.cov == pytest.approx(mean_kappa_sq(config) / 2, abs=1e-12)
        assert m.var1 == pytest.approx((1 + mean_kappa_sq(config)) / 2, abs=1e-12)

    def test_mean_kappa_sq_is_the_normal_dist_formula_bit_for_bit(self):
        # the clip's normal cdf and pdf are written in math; they must give
        # the bits of the statistics.NormalDist formula they replaced
        nd = NormalDist()
        for r in np.linspace(0.0, 0.5, 501, endpoint=False)[1:].tolist():
            a = (MIN_ATOM_FRACTION - 1.0) / r
            for kappa in (0.62, 1e-3, 3.0, -1.7):
                config = cfg(kappa_nominal=kappa, atom_fluctuation=True, spin_rel_std=r)
                expected = kappa * kappa * (MIN_ATOM_FRACTION * nd.cdf(a) + (1.0 - nd.cdf(a))
                                            + r * nd.pdf(a))
                assert mean_kappa_sq(config) == expected, (r, kappa)

    def test_conditional_is_schur_complement(self):
        for mode, basis, eta, spread in itertools.product(
            ["qnd", "reinit"], ["y", "z"], [1.0, 0.8, 0.0], [0.0, 0.2]
        ):
            m = predict(cfg(mode=mode, basis=basis, eta=eta, kappa_nominal=1.3,
                            atom_fluctuation=spread > 0, spin_rel_std=spread))
            assert m.cond == pytest.approx(m.var2 - m.cov**2 / m.var1, abs=1e-12)

    def test_seed_and_shots_do_not_matter(self):
        assert predict(cfg()) == predict(cfg(seed=1, shots=7))
