"""Acceptance suite: the release gate, one test per criterion at fixed tolerance.

Run with ``pytest -v tests/test_acceptance.py``; each criterion prints its own
PASS line (pytest reports FAIL with the assertion that broke it).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qndsim.figures import cmd_variance_sweep, spec_from_mapping
from qndsim.gaussian_core import (
    ATOM,
    apply_loss,
    apply_map,
    coherent_init,
    condition_on,
    marginal,
    omega,
    pulse,
    qnd_map,
)
from qndsim.harness import main
from qndsim.montecarlo import SequenceConfig, run_sequence
from qndsim.physics import kappa_from_angle, load_sheet, coupling_strength, loss_parameter
from qndsim.stats import binned_conditional, bootstrap_ci, squeezing_db, variances

SEED = 73205080


def exact_conditional(kappa):
    """Reference closed form: lossless y-basis Var(s2 | s1) = (1 + 2k^2) / (2(1 + k^2))."""
    k2 = kappa * kappa
    return (1.0 + 2.0 * k2) / (2.0 * (1.0 + k2))


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({message})")


def run(**kwargs):
    base = dict(mode="qnd", kappa_nominal=0.62, shots=2600, seed=SEED)
    base.update(kwargs)
    return run_sequence(SequenceConfig(**base))


def test_criterion_1_coupling_formula_reproduction():
    sheet = load_sheet("yb171")
    kappa = coupling_strength(sheet.atomic, sheet.pulse)
    assert sheet.pulse.photons == 3.2e6
    assert abs(abs(kappa) - 0.62) <= 0.10 * 0.62
    report(1, f"|kappa| = {abs(kappa):.4f}, within 10% of 0.62")


def test_criterion_2_cross_consistency():
    kappa = kappa_from_angle(0.143, 1.6e6, 3.4e5)
    assert abs(kappa - 0.620) <= 0.005 * 0.620
    eps = loss_parameter(1.86e6, 1e-7)
    assert eps == 9.3e-2
    report(2, f"kappa(phi=0.143) = {kappa:.4f} (±0.5% of 0.620), epsilon = {eps} exactly")


def test_criterion_3_variance_suite():
    checked = 0
    for kappa in (0.0, 0.3, 0.62):
        individual = (1 + kappa**2) / 2
        plus = (1 + 2 * kappa**2) / 2

        vs = variances(run(kappa_nominal=kappa))
        assert abs(vs.sigma1 - individual) <= 3 * vs.se_sigma1
        assert abs(vs.sigma2 - individual) <= 3 * vs.se_sigma2
        assert abs(vs.sigma_plus - plus) <= 3 * vs.se_plus
        assert abs(vs.sigma_minus - 0.5) <= 3 * vs.se_minus

        vz = variances(run(kappa_nominal=kappa, basis="z"))
        for value, se in [
            (vz.sigma1, vz.se_sigma1),
            (vz.sigma2, vz.se_sigma2),
            (vz.sigma_plus, vz.se_plus),
            (vz.sigma_minus, vz.se_minus),
        ]:
            assert abs(value - 0.5) <= 3 * se

        vr = variances(run(kappa_nominal=kappa, mode="reinit"))
        for value, se in [
            (vr.sigma1, vr.se_sigma1),
            (vr.sigma2, vr.se_sigma2),
            (vr.sigma_plus, vr.se_plus),
            (vr.sigma_minus, vr.se_minus),
        ]:
            assert abs(value - individual) <= 3 * se
        checked += 12
    report(3, f"{checked} variance targets hit within 3 SE at 2600 shots")


def test_criterion_4_conditional_suite():
    result = run()
    vs = variances(result)
    cond = binned_conditional(result)
    target = 0.62**2 / (2 * (1 + 0.62**2))
    assert target == pytest.approx(0.1388, abs=5e-5)
    assert abs((cond.sigma_cond - 0.5) - target) <= 3 * cond.se_cond

    gain = vs.sigma2 - cond.sigma_cond
    lo, hi = bootstrap_ci(result, "conditioning_gain", resamples=600, seed=SEED)
    se_gain = (hi - lo) / 2
    assert gain > 3 * se_gain

    ideal_db = squeezing_db(0.62**2 / 2, exact_conditional(0.62) - 0.5)
    assert ideal_db == pytest.approx(1.413, abs=5e-4)
    assert 0.3 <= ideal_db <= 4.2
    report(
        4,
        f"cond excess {cond.sigma_cond - 0.5:.4f} ~ {target:.4f}, "
        f"separation {gain / se_gain:.1f} sigma, ideal {ideal_db:.3f} dB in [0.3, 4.2]",
    )


def test_criterion_5_oracle_equivalence():
    grid = np.arange(0.0, 3.0001, 0.05)
    worst_gap = 0.0
    for kappa in grid:
        state = coherent_init(2)
        state = apply_map(state, qnd_map(2, 1, kappa))
        state = apply_map(state, qnd_map(2, 2, kappa))
        conditioned = condition_on(state, pulse(1), "y", 0.0)
        core = marginal(conditioned, pulse(2))[2]
        worst_gap = max(worst_gap, abs(core - exact_conditional(kappa)))
    assert worst_gap < 1e-12

    for i, kappa in enumerate(grid):
        result = run(kappa_nominal=float(kappa), shots=100_000, seed=SEED + i)
        cond = binned_conditional(result)
        assert abs(cond.sigma_cond - exact_conditional(kappa)) <= 5 * cond.se_cond, kappa
    report(
        5,
        f"core vs closed form gap {worst_gap:.2e} over {len(grid)} kappas; "
        "1e5-shot Monte Carlo within 5 SE at every point",
    )


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(20260810)
    cases = 0

    for _ in range(300):  # symplecticity
        n_pulses = int(rng.integers(1, 4))
        idx = int(rng.integers(1, n_pulses + 1))
        kappa = float(rng.uniform(-5.0, 5.0))
        F = qnd_map(n_pulses, idx, kappa).matrix
        Om = omega(n_pulses + 1)
        assert np.max(np.abs(F @ Om @ F.T - Om)) < 1e-10
        cases += 1

    for _ in range(300):  # back-action evasion and z-variance preservation
        state = coherent_init(2)
        for _ in range(int(rng.integers(1, 5))):
            state = apply_map(
                state, qnd_map(2, int(rng.integers(1, 3)), float(rng.uniform(-5, 5)))
            )
        _, mz, _, vz, _ = marginal(state, ATOM)
        assert abs(mz) <= 1e-12 and abs(vz - 0.5) <= 1e-12
        assert abs(marginal(state, pulse(1))[3] - 0.5) <= 1e-12
        assert abs(marginal(state, pulse(2))[3] - 0.5) <= 1e-12
        cases += 1

    for _ in range(250):  # uncertainty under loss and conditioning
        kappa = float(rng.uniform(-3.0, 3.0))
        state = coherent_init(2)
        state = apply_map(state, qnd_map(2, 1, kappa))
        state = apply_map(state, qnd_map(2, 2, kappa))
        for p in (1, 2):
            state = apply_loss(state, pulse(p), float(rng.uniform(0.0, 1.0)))
        state = condition_on(state, pulse(1), "y", float(rng.normal(0, 2)))
        for mode in state.modes:
            _, _, vy, vz, cyz = marginal(state, mode)
            assert vy * vz - cyz**2 >= 0.25 - 1e-9
        cases += 1

    for _ in range(200):  # parallelogram identity of the +/- estimators
        n = int(rng.integers(10, 400))
        s1 = rng.normal(0, rng.uniform(0.5, 2.0), size=n)
        s2 = rng.normal(0, rng.uniform(0.5, 2.0), size=n)
        sp = np.var(s1 + s2, ddof=1) / 2
        sm = np.var(s1 - s2, ddof=1) / 2
        assert abs((sp + sm) - (np.var(s1, ddof=1) + np.var(s2, ddof=1))) <= 1e-9
        cases += 1

    assert cases >= 1000
    report(6, f"{cases} randomized invariant cases passed")


def test_criterion_7_determinism(tmp_path):
    raw = {
        "name": "det",
        "sequence": {"mode": "qnd", "kappa_nominal": 0.62, "shots": 2600, "seed": SEED},
        "kappa_grid": [0.0, 0.3, 0.62],
    }
    hashes = []
    for label, workers in (("r1", 1), ("r2", 1), ("w4", 4)):
        spec = spec_from_mapping({**raw, "outputs": str(tmp_path / label)})
        fig = cmd_variance_sweep(spec, workers=workers)
        hashes.append(
            tuple(Path(p).read_bytes() for p in fig.data_files + fig.theory_files)
        )
    assert hashes[0] == hashes[1] == hashes[2]

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**raw, "outputs": str(tmp_path / "cli")}))
    assert main(["sweep", "--spec", str(spec_path)]) == 0
    cli_bytes = (tmp_path / "cli" / "det_variance_qnd.csv").read_bytes()
    assert cli_bytes == (tmp_path / "r1" / "det_variance_qnd.csv").read_bytes()
    report(7, "reruns and worker counts produced byte-identical CSV outputs")
