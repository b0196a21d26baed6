"""Tests for the Gaussian state algebra: exact values and structural invariants."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.gaussian_core import (
    ATOM,
    GaussianState,
    SingularConditioningError,
    SymplecticMap,
    apply_loss,
    apply_map,
    coherent_init,
    condition_on,
    marginal,
    omega,
    pulse,
    qnd_map,
)
from qndsim.figures import _theory_kappas
from qndsim.montecarlo import SequenceConfig, mean_kappa_sq, predict
from qndsim.stats import _STATISTICS, squeezing_db

kappas = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def two_pulse_state(kappa):
    state = coherent_init(2)
    state = apply_map(state, qnd_map(2, 1, kappa))
    return apply_map(state, qnd_map(2, 2, kappa))


class TestCoherentInit:
    def test_single_pulse(self):
        state = coherent_init(1)
        assert state.modes == (ATOM, pulse(1))
        assert np.array_equal(state.mean, np.zeros(4))
        assert np.array_equal(state.cov, 0.5 * np.eye(4))

    def test_two_pulses_product_state(self):
        state = coherent_init(2)
        assert state.cov.shape == (6, 6)
        assert np.array_equal(state.cov, 0.5 * np.eye(6))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_minimum_uncertainty(self, n):
        state = coherent_init(n)
        for mode in state.modes:
            _, _, vy, vz, cyz = marginal(state, mode)
            assert vy * vz - cyz**2 == 0.25

    def test_zero_pulses_rejected(self):
        with pytest.raises(ValueError):
            coherent_init(0)


class TestQndMap:
    def test_zero_coupling_is_identity(self):
        assert np.array_equal(qnd_map(1, 1, 0.0).matrix, np.eye(4))

    def test_coupling_entry_and_symplecticity(self):
        F = qnd_map(1, 1, 0.62).matrix
        assert F[2, 1] == 0.62  # light-y row picks up atom-z
        assert F[0, 3] == 0.62  # atom-y row picks up light-z
        Om = omega(2)
        assert np.max(np.abs(F @ Om @ F.T - Om)) < 1e-10

    def test_two_pulses_kappa_half(self):
        # Frozen by direct multiplication F2 F1 (I/2) F1^T F2^T.
        state = two_pulse_state(0.5)
        assert marginal(state, pulse(1))[2] == pytest.approx(0.625, abs=1e-12)
        assert marginal(state, pulse(2))[2] == pytest.approx(0.625, abs=1e-12)
        assert state.cov[2, 4] == pytest.approx(0.125, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            qnd_map(2, 3, 0.1)
        with pytest.raises(ValueError):
            qnd_map(2, 0, 0.1)

    @given(kappa=kappas, n_pulses=st.integers(1, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_symplectic_invariant(self, kappa, n_pulses, data):
        index = data.draw(st.integers(1, n_pulses))
        F = qnd_map(n_pulses, index, kappa).matrix
        Om = omega(n_pulses + 1)
        assert np.max(np.abs(F @ Om @ F.T - Om)) < 1e-10


class TestApplyMap:
    def test_identity_leaves_state(self):
        state = coherent_init(2)
        out = apply_map(state, SymplecticMap(np.eye(6)))
        assert np.array_equal(out.cov, state.cov)
        assert np.array_equal(out.mean, state.mean)

    def test_single_pulse_variances(self):
        state = apply_map(coherent_init(1), qnd_map(1, 1, 0.62))
        _, _, s_vy, s_vz, _ = marginal(state, pulse(1))
        assert s_vy == pytest.approx(0.6922, abs=1e-12)
        assert s_vz == 0.5
        assert marginal(state, ATOM)[3] == 0.5

    def test_two_pulse_sum_and_difference(self):
        state = two_pulse_state(0.62)
        C = state.cov
        var_sum = (C[2, 2] + C[4, 4] + 2 * C[2, 4]) / 2
        var_diff = (C[2, 2] + C[4, 4] - 2 * C[2, 4]) / 2
        assert var_sum == pytest.approx(0.8844, abs=1e-12)
        assert var_diff == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_map(coherent_init(2), qnd_map(1, 1, 0.3))

    @given(kappa=st.lists(kappas, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_back_action_evasion_and_sz_preservation(self, kappa):
        state = coherent_init(2)
        for i, k in enumerate(kappa):
            state = apply_map(state, qnd_map(2, 1 + i % 2, k))
        my, mz, vy, vz, _ = marginal(state, ATOM)
        assert abs(mz) <= 1e-12
        assert abs(vz - 0.5) <= 1e-12
        for p in (1, 2):
            assert abs(marginal(state, pulse(p))[3] - 0.5) <= 1e-12


class TestApplyLoss:
    def test_full_transmission_is_identity(self):
        state = two_pulse_state(0.62)
        out = apply_loss(state, pulse(1), 1.0)
        assert np.allclose(out.cov, state.cov, atol=0)

    def test_zero_transmission_gives_vacuum(self):
        state = two_pulse_state(0.62)
        out = apply_loss(state, pulse(1), 0.0)
        my, mz, vy, vz, cyz = marginal(out, pulse(1))
        assert (my, mz, vy, vz, cyz) == (0.0, 0.0, 0.5, 0.5, 0.0)
        y = 2 * out.mode_position(pulse(1))
        off = np.delete(out.cov[y], [y, y + 1])
        assert np.array_equal(off, np.zeros(4))

    def test_lossy_operating_point(self):
        # 0.907^2 * 0.6922 + (1 - 0.907^2)/2, eta = 1 - epsilon
        state = apply_map(coherent_init(1), qnd_map(1, 1, 0.62))
        out = apply_loss(state, pulse(1), 0.907)
        assert marginal(out, pulse(1))[2] == pytest.approx(0.6581131378, abs=1e-10)

    @pytest.mark.parametrize("eta", [-0.1, 1.1, 2.0])
    def test_eta_out_of_range(self, eta):
        with pytest.raises(ValueError):
            apply_loss(coherent_init(1), pulse(1), eta)

    @given(kappa=kappas, eta=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_uncertainty_preserved(self, kappa, eta):
        state = apply_map(coherent_init(2), qnd_map(2, 1, kappa))
        out = apply_loss(state, pulse(1), eta)  # constructor re-validates
        for mode in out.modes:
            _, _, vy, vz, cyz = marginal(out, mode)
            assert vy * vz - cyz**2 >= 0.25 - 1e-9


class TestConditionOn:
    def test_uncorrelated_mode_untouched(self):
        state = coherent_init(2)
        out = condition_on(state, pulse(1), "y", 1.7)
        assert out.modes == (ATOM, pulse(2))
        assert np.array_equal(out.cov, 0.5 * np.eye(4))
        assert np.array_equal(out.mean, np.zeros(4))

    @pytest.mark.parametrize("value", [-3.0, 0.0, 0.4, 25.0])
    def test_atom_variance_after_measurement(self, value):
        state = apply_map(coherent_init(1), qnd_map(1, 1, 0.62))
        out = condition_on(state, pulse(1), "y", value)
        assert marginal(out, ATOM)[3] == pytest.approx(0.361167292689974, abs=1e-12)

    def test_second_pulse_conditional_variance(self):
        state = two_pulse_state(0.62)
        out = condition_on(state, pulse(1), "y", 0.0)
        var2 = marginal(out, pulse(2))[2]
        assert var2 == pytest.approx(0.6388327073100261, abs=1e-12)
        assert var2 - 0.5 == pytest.approx(0.62**2 / (2 * (1 + 0.62**2)), abs=1e-12)

    def test_covariance_independent_of_value(self):
        state = two_pulse_state(1.3)
        covs = [condition_on(state, pulse(1), "y", v).cov for v in (-8.0, 0.1, 5.5)]
        assert np.array_equal(covs[0], covs[1])
        assert np.array_equal(covs[1], covs[2])

    def test_singular_variance_rejected(self):
        cov = np.diag([1e-13, 2.6e12])
        state = GaussianState((ATOM,), np.zeros(2), cov)
        with pytest.raises(SingularConditioningError):
            condition_on(state, ATOM, "y", 0.0)

    def test_mean_shift(self):
        state = apply_map(coherent_init(1), qnd_map(1, 1, 0.62))
        out = condition_on(state, pulse(1), "y", 1.0)
        # E[Jz | S1y = 1] = Cov(Jz, S1y)/Var(S1y) = (0.62*0.5)/0.6922
        assert marginal(out, ATOM)[1] == pytest.approx(0.31 / 0.6922, abs=1e-12)


class TestMarginal:
    def test_coherent(self):
        assert marginal(coherent_init(1), ATOM) == (0.0, 0.0, 0.5, 0.5, 0.0)

    def test_atom_var_z_unchanged(self):
        state = apply_map(coherent_init(1), qnd_map(1, 1, 0.9))
        assert marginal(state, ATOM)[3] == 0.5

    def test_atom_anti_squeezing(self):
        state = apply_map(coherent_init(1), qnd_map(1, 1, 0.62))
        assert marginal(state, ATOM)[2] == pytest.approx(0.6922, abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            marginal(coherent_init(1), pulse(2))


class TestOracleIdentities:
    """Closed forms checked against direct matrix evaluation over a kappa grid."""

    @pytest.mark.parametrize("kappa", np.linspace(0.0, 3.0, 13).tolist())
    def test_variance_and_conditioning_identities(self, kappa):
        state = two_pulse_state(kappa)
        C = state.cov
        assert C[2, 2] == pytest.approx((1 + kappa**2) / 2, abs=1e-12)
        assert C[4, 4] == pytest.approx((1 + kappa**2) / 2, abs=1e-12)
        var_sum = (C[2, 2] + C[4, 4] + 2 * C[2, 4]) / 2
        var_diff = (C[2, 2] + C[4, 4] - 2 * C[2, 4]) / 2
        assert var_sum == pytest.approx((1 + 2 * kappa**2) / 2, abs=1e-12)
        assert var_diff == pytest.approx(0.5, abs=1e-12)
        conditioned = condition_on(state, pulse(1), "y", 0.3)
        excess = marginal(conditioned, pulse(2))[2] - 0.5
        assert excess == pytest.approx(kappa**2 / (2 * (1 + kappa**2)), abs=1e-12)


def map_pipeline(config):
    """The protocol through the public maps at predict's K: the state before any pulse is read."""
    k = math.copysign(math.sqrt(mean_kappa_sq(config)), config.kappa_nominal)
    state = apply_map(coherent_init(2), qnd_map(2, 1, k))
    if config.mode == "reinit":
        state = apply_loss(state, ATOM, 0.0)
    state = apply_map(state, qnd_map(2, 2, k))
    for n in (1, 2):
        state = apply_loss(state, pulse(n), config.eta)
    return state


def map_moments(config):
    """(var1, cov, var2, cond, sigma_plus, sigma_minus) of the recorded basis, read off the maps."""
    state = map_pipeline(config)
    q = 0 if config.basis == "y" else 1  # pulse n's quadrature sits at 2*n + q
    sigma = state.cov[np.ix_([2 + q, 4 + q], [2 + q, 4 + q])]
    conditioned = condition_on(state, pulse(1), config.basis, 0.0)
    plus, minus = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    return (sigma[0, 0], sigma[0, 1], sigma[1, 1], marginal(conditioned, pulse(2))[2 + q],
            plus @ sigma @ plus / 2, minus @ sigma @ minus / 2)


class TestPredictOracle:
    """predict's closed form against the symplectic maps: mode x basis x eta x spread x kappa.

    The two round differently (K against sqrt(K)**2, and the maps' matmul
    order), so the bound is in ulps: each moment within 4 of its own value,
    and cond and sigma+- within 8 ulps of var2, twice the largest difference
    measured; their %.9g text, which every output file holds, is identical.
    """

    GRID = [
        *itertools.product(["qnd", "reinit"], [1.0, 0.8, 0.5, 0.0], [0.0, 0.05, 0.45],
                           np.linspace(-3.0, 3.0, 121).tolist()),
        *itertools.product(["qnd", "reinit"], [0.3], [0.0, 0.05, 0.45], [17.0, -1.3]),
    ]

    def test_closed_form_matches_the_maps(self):
        for mode, eta, spread, kappa, basis in (
            (*point, basis) for point in self.GRID for basis in ("y", "z")
        ):
            config = SequenceConfig(mode=mode, kappa_nominal=kappa, eta=eta, basis=basis,
                                    atom_fluctuation=spread > 0, spin_rel_std=spread)
            m = predict(config)
            ours = (m.var1, m.cov, m.var2, m.cond, m.sigma_plus, m.sigma_minus)
            maps = map_moments(config)
            for got, want, scale, ulps in zip(ours, maps, maps[:3] + (maps[2],) * 3,
                                              (4, 4, 4, 8, 8, 8)):
                assert abs(got - want) <= ulps * math.ulp(scale), (config, ours, maps)
            assert ["%.9g" % v for v in ours] == ["%.9g" % v for v in maps], config
            # the statistics are stats' own formulas of predict's moments, bit for bit
            assert m.cond == _STATISTICS["sigma_cond"](m.var1, m.cov, m.var2), config
            for name in ("sigma_plus", "sigma_minus"):
                assert getattr(m, name) == _STATISTICS[name](m.var1, m.cov, m.var2), config

    # the figures' theory axes: from 0 to the grid value of largest magnitude
    THEORY_GRIDS = [(0.0, 0.15, 0.3, 0.45, 0.62), (-3.0, 0.0, 3.0), (1.7,), (0.0,), (-0.636,)]

    def test_coupling_axis_is_the_scalar_model_elementwise(self):
        # one call over a theory axis is, bit for bit, a call per coupling; its
        # squeezing needs no kappa guard, since the total excess is 0 at kappa 0
        for mode, basis, eta, spread, grid in itertools.product(
            ["qnd", "reinit"], ["y", "z"], [1.0, 0.8, 0.5, 0.0], [0.0, 0.05, 0.45],
            self.THEORY_GRIDS,
        ):
            config = SequenceConfig(mode=mode, kappa_nominal=0.62, eta=eta, basis=basis,
                                    atom_fluctuation=spread > 0, spin_rel_std=spread)
            kappas = _theory_kappas(grid)
            m = predict(config, kappas)
            ours = np.array([m.var1, m.cov, m.var2, m.cond, m.sigma_plus, m.sigma_minus,
                             list(map(squeezing_db, (m.var2 - 0.5).tolist(),
                                      (m.cond - 0.5).tolist()))])
            want = []
            for k in kappas.tolist():
                s = predict(replace(config, kappa_nominal=k))
                db = squeezing_db(s.var2 - 0.5, s.cond - 0.5) if k else math.nan
                want.append([s.var1, s.cov, s.var2, s.cond, s.sigma_plus, s.sigma_minus, db])
            assert ours.tobytes() == np.array(want).T.tobytes(), config


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-6
        # a NaN covariance fails the symmetry test too, written as not (<= tol)
        for bad in (cov, np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="symmetric"):
                GaussianState((ATOM,), np.zeros(2), bad)

    def test_non_finite_mean_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mean must be finite"):
                GaussianState((ATOM,), np.array([0.0, bad]), 0.5 * np.eye(2))

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState((ATOM,), np.zeros(2), 0.3 * np.eye(2))

    def test_entangled_uncertainty_violation_rejected(self):
        # each mode's Var(y)Var(z) - Cov^2 is exactly 1/4 and cov is positive
        # semidefinite (eigenvalues 0.1 and 0.9), yet Var(y_a - y_p) *
        # Var(z_a - z_p) = 0.2 * 0.2 < 1: cov + i*Omega/2 has eigenvalue -0.4
        cov = 0.5 * np.eye(4)
        cov[0, 2] = cov[2, 0] = cov[1, 3] = cov[3, 1] = 0.4
        with pytest.raises(ValueError, match=r"uncertainty violated: eigenvalue -0\.4 "):
            GaussianState((ATOM, pulse(1)), np.zeros(4), cov)

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GaussianState((ATOM, ATOM), np.zeros(4), 0.5 * np.eye(4))

    def test_state_is_immutable(self):
        state = coherent_init(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 2.0

    def test_derived_states_are_immutable(self):
        state = apply_map(coherent_init(1), qnd_map(1, 1, 0.62))
        lossy = apply_loss(state, pulse(1), 0.9)
        for derived in (state, lossy, condition_on(state, pulse(1), "y", 0.1)):
            for array in (derived.mean, derived.cov):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_only_built_states_are_validated(self, monkeypatch):
        # the coherent state is valid by construction, and apply_map,
        # apply_loss and condition_on keep a valid state valid, so the maps'
        # run of the protocol (the traffic of the benchmark's own model)
        # validates no state
        checked = []
        validate = GaussianState.__post_init__
        monkeypatch.setattr(
            GaussianState, "__post_init__", lambda self: checked.append(validate(self))
        )
        for basis in ("y", "z"):
            map_moments(SequenceConfig(mode="reinit", kappa_nominal=0.62, eta=0.8, basis=basis))
        assert len(checked) == 0
        GaussianState((ATOM,), np.zeros(2), 0.5 * np.eye(2))
        assert len(checked) == 1

    def test_predict_needs_no_eigvalsh(self, monkeypatch):
        # the positive-semidefinite check is the one LAPACK call of validation;
        # neither predict nor the maps' run of the protocol makes one, while a
        # state a user builds still does
        def no_lapack(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
        config = SequenceConfig(mode="qnd", kappa_nominal=0.62, shots=10)
        model = predict(config)
        assert model.var1 == pytest.approx((1 + 0.62**2) / 2, abs=1e-12)
        assert map_moments(config)[0] == pytest.approx(model.var1, abs=1e-12)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            GaussianState((ATOM,), np.zeros(2), 0.5 * np.eye(2))

    def test_non_symplectic_matrix_rejected(self):
        for bad in (2.0 * np.eye(4), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="symplectic"):
                SymplecticMap(bad)
