"""Seeded shot-by-shot sampling of the two-pulse probe protocol.

Reproducibility contract: shot ``i`` of a run consumes exactly
``DRAWS_PER_SHOT`` uniform doubles taken from a counter-based Philox stream
positioned at that shot's window, ``Philox(key=seed).advance(2*i)`` (the
Philox counter emits four 64-bit words per tick and one double costs one
word, so a window of 8 doubles is two counter ticks).  Normals come from the
inverse CDF of those uniforms, never from rejection sampling, so the draw
count per shot is fixed.  Any partition of the shot range into chunks,
evaluated in any order or concurrently, therefore reproduces the exact same
records bit for bit.

Per-shot slot layout (unused slots are drawn and discarded so the layout
never shifts):

    0  atom-number scale (shot-to-shot coupling fluctuation)
    1  atomic z before pulse 1
    2  atomic z before pulse 2 (used only when the spin is re-initialized)
    3  light input quadrature, pulse 1 (measured basis)
    4  light input quadrature, pulse 2
    5  vacuum refill for pulse-1 loss
    6  vacuum refill for pulse-2 loss
    7  reserved padding (keeps windows block-aligned)
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .gaussian_core import (
    ATOM,
    apply_loss,
    apply_map,
    coherent_init,
    condition_on,
    marginal,
    pulse,
    qnd_map,
)

DRAWS_PER_SHOT = 8
_CHUNK_SHOTS = 8192
_U64 = (1 << 64) - 1

MODES = ("qnd", "reinit")
BASES = ("y", "z")

# Atom-number draws are clipped below at this fraction of the mean so the
# Gaussian tail cannot produce a negative atom number.
MIN_ATOM_FRACTION = 0.1


@dataclass(frozen=True)
class SequenceConfig:
    """Everything that determines a run: protocol mode, coupling, noise, seed.

    mode "qnd" keeps the same atomic z for both pulses; "reinit" re-pumps the
    spin between pulses so the second pulse sees a fresh draw.  basis "y"
    records the coupled quadratures, basis "z" the untouched ones.  eta is
    the per-pulse loss transmission (1.0 = lossless).  spin_rel_std is the
    relative shot-to-shot spread of the atom number, active only when
    atom_fluctuation is set.
    """

    mode: str
    kappa_nominal: float
    shots: int = 2600
    atom_fluctuation: bool = False
    spin_rel_std: float = 0.0
    eta: float = 1.0
    basis: str = "y"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        if self.shots < 2:
            raise ValueError("shots must be at least 2")
        if not 0.0 <= self.spin_rel_std < 0.5:
            raise ValueError("spin_rel_std must lie in [0, 0.5) for the linearized model")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0 <= self.seed <= _U64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def mean_kappa_sq(config: SequenceConfig) -> float:
    """E[kappa_shot^2] of the sampler: kappa^2 * E[max(1 + r*z, MIN_ATOM_FRACTION)]."""
    k2 = config.kappa_nominal * config.kappa_nominal
    r = config.spin_rel_std
    if not (config.atom_fluctuation and r > 0.0):
        return k2
    a = (MIN_ATOM_FRACTION - 1.0) / r  # the clip bites for z below a
    nd = NormalDist()
    return k2 * (MIN_ATOM_FRACTION * nd.cdf(a) + (1.0 - nd.cdf(a)) + r * nd.pdf(a))


@dataclass(frozen=True)
class Prediction:
    """Model moments of the recorded quadratures s1, s2 and Var(s2 | s1)."""

    var1: float
    var2: float
    cov: float
    cond: float

    @property
    def sigma_plus(self) -> float:
        """Var(s1 + s2)/2."""
        return (self.var1 + self.var2 + 2.0 * self.cov) / 2.0

    @property
    def sigma_minus(self) -> float:
        """Var(s1 - s2)/2."""
        return (self.var1 + self.var2 - 2.0 * self.cov) / 2.0


def predict(config: SequenceConfig) -> Prediction:
    """Gaussian-core model of the run ``config`` describes (its seed and shots aside).

    Both pulses couple with strength sqrt(E[kappa_shot^2]) (see
    :func:`mean_kappa_sq`); "reinit" replaces the atom by a fresh coherent
    spin between the pulses; each pulse then passes the loss channel eta, and
    the recorded quadrature is the spec's basis.  kappa_shot is drawn
    independently of every quadrature, so the second moments are exact under
    atom-number spread too; the conditional variance there is the Gaussian
    (best-linear) one, the Schur complement Var(s2) - Cov^2/Var(s1).
    """
    kappa = math.copysign(math.sqrt(mean_kappa_sq(config)), config.kappa_nominal)
    state = apply_map(coherent_init(2), qnd_map(2, 1, kappa))
    if config.mode == "reinit":
        state = apply_loss(state, ATOM, 0.0)
    state = apply_map(state, qnd_map(2, 2, kappa))
    for k in (1, 2):
        state = apply_loss(state, pulse(k), config.eta)
    q = 0 if config.basis == "y" else 1  # pulse k's quadrature sits at 2*k + q
    conditioned = condition_on(state, pulse(1), config.basis, 0.0)
    return Prediction(
        var1=marginal(state, pulse(1))[2 + q],
        var2=marginal(state, pulse(2))[2 + q],
        cov=float(state.cov[2 + q, 4 + q]),
        cond=marginal(conditioned, pulse(2))[2 + q],
    )


@dataclass(frozen=True)
class RunResult:
    """All shots of one run, column-wise, with the config that produced them."""

    config: SequenceConfig
    s1: np.ndarray
    s2: np.ndarray
    jz1: np.ndarray
    jz2: np.ndarray
    kappa_shot: np.ndarray

    def __post_init__(self):
        for name in ("s1", "s2", "jz1", "jz2", "kappa_shot"):
            col = np.asarray(getattr(self, name), dtype=float)
            if col.shape != (self.config.shots,):
                raise ValueError(f"column {name} must have length {self.config.shots}")
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.config.shots


def shot_stream(seed: int, shot_index: int) -> Generator:
    """Generator positioned at the start of shot ``shot_index``'s draw window."""
    return Generator(Philox(key=seed).advance(2 * shot_index))


def _standard_normals(uniforms: np.ndarray) -> np.ndarray:
    # Inverse-CDF transform; clip away exact zeros so ndtri stays finite.
    return ndtri(np.maximum(uniforms, np.finfo(float).tiny))


def _columns_from_uniforms(config: SequenceConfig, u: np.ndarray):
    """Map an (n, DRAWS_PER_SHOT) uniform block to the five record columns."""
    z = _standard_normals(u)
    root_half = math.sqrt(0.5)

    if config.atom_fluctuation and config.spin_rel_std > 0.0:
        atom_scale = np.maximum(1.0 + config.spin_rel_std * z[:, 0], MIN_ATOM_FRACTION)
        kappa_shot = config.kappa_nominal * np.sqrt(atom_scale)
    else:
        kappa_shot = np.full(len(z), config.kappa_nominal)

    jz1 = root_half * z[:, 1]
    jz2 = jz1 if config.mode == "qnd" else root_half * z[:, 2]

    s1 = root_half * z[:, 3]
    s2 = root_half * z[:, 4]
    if config.basis == "y":
        s1 = s1 + kappa_shot * jz1
        s2 = s2 + kappa_shot * jz2
    if config.eta < 1.0:
        refill = math.sqrt((1.0 - config.eta**2) * 0.5)
        s1 = config.eta * s1 + refill * z[:, 5]
        s2 = config.eta * s2 + refill * z[:, 6]
    return s1, s2, jz1, jz2, kappa_shot


def _chunk_columns(config: SequenceConfig, start: int, n: int):
    u = shot_stream(config.seed, start).random(n * DRAWS_PER_SHOT)
    return _columns_from_uniforms(config, u.reshape(n, DRAWS_PER_SHOT))


def run_sequence(config: SequenceConfig, workers: int = 1) -> RunResult:
    """Run all shots of ``config``.

    Chunks of shots are independent through their substreams, so they may be
    evaluated concurrently (``workers > 1``); results are assembled in shot
    order and are bitwise identical at every worker count.
    """
    starts = list(range(0, config.shots, _CHUNK_SHOTS))
    sizes = [min(_CHUNK_SHOTS, config.shots - s) for s in starts]
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda sn: _chunk_columns(config, *sn), zip(starts, sizes)))
    else:
        chunks = [_chunk_columns(config, s, n) for s, n in zip(starts, sizes)]
    cols = [np.concatenate([c[k] for c in chunks]) for k in range(5)]
    return RunResult(config, *cols)


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: decorrelates consecutive integers into 64-bit keys."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def sweep_seed(base_seed: int, index: int) -> int:
    """Derived seed for sweep point ``index``: independent and reproducible."""
    return (base_seed ^ _mix64(index)) & _U64


def run_kappa_sweep(
    base_config: SequenceConfig, kappa_values, workers: int = 1
) -> list[RunResult]:
    """One run per coupling value, each on its own derived seed."""
    kappas = list(kappa_values)
    if not kappas:
        raise ValueError("kappa_values must be non-empty")
    results = []
    for i, kappa in enumerate(kappas):
        cfg = replace(
            base_config, kappa_nominal=kappa, seed=sweep_seed(base_config.seed, i)
        )
        results.append(run_sequence(cfg, workers=workers))
    return results
