"""Family-wise false-alarm rate of the ``--check`` rules on correct code, under the exact law.

Without atom-number spread each shot of a run is exactly Gaussian, so the
Bessel-corrected moments S of a sweep point's (s1, s2_qnd, s2_reinit) follow
(n - 1) S ~ Wishart(n - 1, Sigma), with Sigma from the two modes' ``predict``
and Cov(s2_qnd, s2_reinit) = 1/2 (see ``tests/wishart.py``).  This script
draws pseudo-runs of the README fig3 spec (lossless, y basis, the default
grid) from that law and applies the checks of ``qnd sweep --check`` and
``qnd conditional --check`` to them: every statistic of every point (and, for
the sweep, of both modes) must lie within CHECK_SIGMAS SEs of its model
target, and a pseudo-run that misses any band is one false alarm.  Beside
the rates it prints the mean and SD of each checked statistic's z-score,
(estimate - target) / SE, at the spec's own coupling: an SE rule that is
right gives mean 0 and SD 1.

Not collected by pytest.  Run it from the repository root:

    PYTHONPATH=src python tests/false_alarm.py
"""

import math
import sys

import numpy as np

from qndsim.figures import CHECK_SIGMAS, DEFAULT_KAPPA_GRID
from qndsim.montecarlo import SequenceConfig, predict
from qndsim.stats import _STATISTICS
from wishart import sample_covariances

RUNS = 200_000
SHOTS = (50, 100, 300, 2600)
SEED = 20081209
SWEEP_STATISTICS = ("sigma1", "sigma2", "sigma_plus", "sigma_minus")
FIG3_KAPPA = 0.62  # the spec's kappa_nominal, where the z-scores are taken


def point_law(kappa: float, shots: int, rng: np.random.Generator):
    """RUNS draws of a grid point's 3x3 moments, and the qnd and reinit models."""
    models = [predict(SequenceConfig(mode=mode, kappa_nominal=kappa, shots=shots))
              for mode in ("qnd", "reinit")]
    q, r = models
    if q.var2 + r.var2 == 2 * 0.5:
        # Var(s2_qnd - s2_reinit) = 0 (no coupling): the modes record one s2
        # column, and the 3x3 law is singular
        s = sample_covariances([[q.var1, q.cov], [q.cov, q.var2]], shots, RUNS, rng)
        s = s[:, [0, 1, 1]][:, :, [0, 1, 1]]
    else:
        sigma = [[q.var1, q.cov, r.cov], [q.cov, q.var2, 0.5], [r.cov, 0.5, r.var2]]
        s = sample_covariances(sigma, shots, RUNS, rng)
    return s, models


def outside(value, se, target):
    """The check band's rule (``figures._band_failures``), on arrays."""
    return ~((np.abs(value - target) <= CHECK_SIGMAS * se) & (CHECK_SIGMAS * se < math.inf))


def false_alarms(shots: int, rng: np.random.Generator):
    """Alarms of ``sweep --check`` and ``conditional --check`` over RUNS pseudo-runs.

    Returns the two boolean arrays and the z-scores of each checked
    statistic at FIG3_KAPPA, keyed "<statistic> <mode>".
    """
    se_factor = math.sqrt(2.0 / (shots - 1))  # stats.variances: each SE is its estimate times this
    sweep = np.zeros(RUNS, dtype=bool)
    conditional = np.zeros(RUNS, dtype=bool)
    z = {}
    for kappa in DEFAULT_KAPPA_GRID:
        s, models = point_law(kappa, shots, rng)
        for column, model, mode in zip((1, 2), models, ("qnd", "reinit")):
            moments = (s[:, 0, 0], s[:, 0, column], s[:, column, column])
            targets = (model.var1, model.var2, model.sigma_plus, model.sigma_minus)
            for name, target in zip(SWEEP_STATISTICS, targets):
                value = _STATISTICS[name](*moments)
                sweep |= outside(value, value * se_factor, target)
                if kappa == FIG3_KAPPA:
                    z[f"{name} {mode}"] = (value - target) / (value * se_factor)
        # conditional --check runs the spec's own mode, qnd
        moments = (s[:, 0, 0], s[:, 0, 1], s[:, 1, 1])
        q = models[0]
        v2 = _STATISTICS["sigma2"](*moments)
        cond = _STATISTICS["sigma_cond"](*moments)
        se_cond = cond * math.sqrt(2.0 / shots)
        conditional |= outside(v2, v2 * se_factor, q.var2)
        conditional |= outside(cond, se_cond, q.cond)
        if kappa == FIG3_KAPPA:  # its sigma2 band is the sweep's "sigma2 qnd"
            z["sigma_cond qnd"] = (cond - q.cond) / se_cond
    return sweep, conditional, z


def rate(alarms: np.ndarray) -> str:
    p = alarms.mean()
    return f"{100 * p:.2f}% ± {100 * math.sqrt(p * (1 - p) / alarms.size):.2f}%"


def main() -> int:
    rng = np.random.default_rng(SEED)
    print(f"fig3 grid {DEFAULT_KAPPA_GRID}, lossless, y basis; {RUNS} pseudo-runs per row, "
          f"seed {SEED}; band {CHECK_SIGMAS:g} SE")
    print("se_cond is taken at its Gaussian value sigma_cond*sqrt(2/n), from the estimate; "
          "the command uses sqrt(Var(r^2)/n)")
    print(f"{'shots':>6}  {'sweep --check':>16}  {'conditional --check':>20}")
    z_scores = {}
    for shots in SHOTS:
        sweep, conditional, z_scores[shots] = false_alarms(shots, rng)
        print(f"{shots:>6}  {rate(sweep):>16}  {rate(conditional):>20}")
    print(f"z-score mean / SD at kappa {FIG3_KAPPA}, (estimate - model) / SE")
    print(f"{'statistic':>18}" + "".join(f"{shots:>16}" for shots in SHOTS))
    for key in z_scores[SHOTS[0]]:
        cells = (f"{z[key].mean():+.3f} / {z[key].std():.3f}" for z in z_scores.values())
        print(f"{key:>18}" + "".join(f"{cell:>16}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
