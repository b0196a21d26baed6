"""Seeded shot-by-shot sampling of the two-pulse probe protocol.

Reproducibility contract: shot ``i`` of a run consumes exactly
``DRAWS_PER_SHOT`` raw 64-bit words of the counter-based Philox stream
(Salmon et al., SC'11) positioned at that shot's window,
``Philox(key=seed).advance(2*i)`` (the Philox counter emits four words per
tick, so a window of 8 words is two counter ticks).  Each word becomes the
uniform double ``(word >> 11) * 2**-53``, and each uniform a standard normal
through :func:`ppnd16`, Wichura's AS241 inverse normal CDF (Applied
Statistics 37:477, 1988), evaluated in this module with NumPy.  No rejection
sampling is used, so the draw count per shot is fixed, and the bits depend
only on the Philox counter function, this module's arithmetic and NumPy's
float64 ``log`` and ``sqrt`` (the tail branch); ``tests/reference_sampler.py``
is the contract in the standard library alone, and the tests check each stage
against it.  Any partition of the shot range into chunks, evaluated in any
order or concurrently, therefore reproduces the exact same columns bit for
bit, and a run need hold only its records s1 and s2: the atoms' columns are
sampled again when first read.

Per-shot slot layout.  All 8 words are always drawn, so the layout never
shifts; only the slots a configuration consumes (see :func:`_used_slots`) are
gathered and transformed to normals, the others are drawn and discarded:

    0  atom-number scale (shot-to-shot coupling fluctuation)
    1  atomic z before pulse 1
    2  atomic z before pulse 2 (used only when the spin is re-initialized)
    3  light input quadrature, pulse 1 (measured basis)
    4  light input quadrature, pulse 2
    5  vacuum refill for pulse-1 loss
    6  vacuum refill for pulse-2 loss
    7  reserved padding (keeps windows block-aligned)

Common random numbers.  s1 reads slots 0, 1, 3 and 5 only, which every mode
uses alike, so configurations that differ only in mode give the same s1 from
the same seed.  :func:`run_group` samples such a group together: each chunk
is drawn and transformed once, and the runs share one s1 column.  A sweep's
point ``i`` runs every mode on ``sweep_seed(seed, i)``, so the modes' s1
columns there are identical.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.random import Philox

from .gaussian_core import two_pulse_moments
from .physics import is_finite_real, is_positive_int
from .stats import _STATISTICS

DRAWS_PER_SHOT = 8
# normals per sampler chunk: a chunk of a group that transforms k slots holds
# this // k shots, so a lossy 7-slot group takes 8192 and a lossless one 19114
_CHUNK_NORMALS = 7 * 8192
_U64 = (1 << 64) - 1
_UNIT = 2.0**-53  # a word's top 53 bits times this is a uniform double in [0, 1)
_TINY = np.finfo(float).tiny

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
    atom_fluctuation is set; ``spread`` is the one the sampler draws.
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
        for name in ("shots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.atom_fluctuation, bool):
            raise TypeError(f"atom_fluctuation must be a boolean, got {self.atom_fluctuation!r}")
        for name in ("kappa_nominal", "spin_rel_std", "eta"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
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

    spread = property(lambda self: self.spin_rel_std if self.atom_fluctuation else 0.0,
                      doc="The atom-number spread the sampler draws: 0.0 when switched off.")


def mean_kappa_sq(config: SequenceConfig, kappa=None):
    """E[kappa_shot^2] = kappa^2 * E[max(1 + r*z, MIN_ATOM_FRACTION)], ``kappa`` as in predict."""
    kappa = config.kappa_nominal if kappa is None else kappa
    k2 = kappa * kappa
    r = config.spread
    if not r > 0.0:
        return k2
    a = (MIN_ATOM_FRACTION - 1.0) / r  # the clip bites for z below a
    cdf = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))  # NormalDist().cdf(a), bit for bit
    pdf = math.exp(a * a / -2.0) / math.sqrt(math.tau)  # and its pdf(a)
    return k2 * (MIN_ATOM_FRACTION * cdf + (1.0 - cdf) + r * pdf)


@dataclass(frozen=True)
class Prediction:
    """Model moments of the recorded quadratures s1, s2 and Var(s2 | s1), elementwise in kappa."""

    var1: float
    var2: float
    cov: float
    cond: float

    sigma_plus = property(lambda self: _STATISTICS["sigma_plus"](self.var1, self.cov, self.var2),
                          doc="Var(s1 + s2)/2.")
    sigma_minus = property(lambda self: _STATISTICS["sigma_minus"](self.var1, self.cov, self.var2),
                           doc="Var(s1 - s2)/2.")


def predict(config: SequenceConfig, kappa=None) -> Prediction:
    """Gaussian-core model of the run ``config`` describes (its seed and shots aside).

    ``kappa``, a float or a float array, defaults to the config's kappa_nominal;
    every field is elementwise in it, each point bit for bit the call at that
    coupling alone.  The moments are :func:`qndsim.gaussian_core.two_pulse_moments`
    at K = E[kappa_shot^2], exact under atom-number spread too, since kappa_shot
    is drawn independently of every quadrature; every statistic of them is its
    one formula in :mod:`qndsim.stats`.  A model that overflows float64 raises
    ValueError naming the first coupling that does, so no inf or nan moment
    reaches a theory table or a ``--check`` band.
    """
    kappa = config.kappa_nominal if kappa is None else kappa
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        var1, cov, var2 = two_pulse_moments(mean_kappa_sq(config, kappa), config.eta,
                                            config.mode, config.basis)
        # the formula rejects a NaN var1 (eta 0 times an infinite K) as an s1 with no spread
        cond = _STATISTICS["sigma_cond"](np.where(np.isnan(var1), np.inf, var1), cov, var2)
    finite = np.isfinite([var1, cov, var2, cond]).all(axis=0)
    if not finite.all():
        first = np.ravel(kappa).tolist()[np.argmin(finite)]
        raise ValueError(f"kappa={first!r}: the model overflows float64")
    return Prediction(var1=var1, var2=var2, cov=cov, cond=cond)


@dataclass(frozen=True, eq=False)
class RunResult:
    """One run's records s1 and s2, column-wise, and its config.

    A run is compared and hashed by identity, and its columns are finite and
    read-only.  Every column passed in is copied, so no array a caller holds,
    frozen or not, is a run's column; only the sampler keeps its own columns,
    which no caller can reach, without a copy (the runs of a
    :func:`run_group` share one s1).
    The atoms' hidden truth, jz1, jz2 and kappa_shot, is not held: on first
    read it is re-derived from the config's Philox windows and cached, so for
    a sampled run it is that run's own atoms, bit for bit.
    """

    config: SequenceConfig
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        for name in ("s1", "s2"):
            col = np.array(getattr(self, name), dtype=float)  # always a copy
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        self._check_columns()

    @classmethod
    def _sampled(cls, config: SequenceConfig, s1: np.ndarray, s2: np.ndarray) -> RunResult:
        """A run of the sampler's own read-only columns, kept without a copy."""
        run = cls.__new__(cls)
        for name, value in (("config", config), ("s1", s1), ("s2", s2)):
            object.__setattr__(run, name, value)
        run._check_columns()
        return run

    def _check_columns(self) -> None:
        for name in ("s1", "s2"):
            col = getattr(self, name)
            if col.shape != (self.config.shots,):
                raise ValueError(f"column {name} must have length {self.config.shots}")
            with np.errstate(invalid="ignore"):  # min and max propagate NaN
                finite = np.isfinite(col.min()) and np.isfinite(col.max())
            if not finite:
                raise ValueError(f"column {name} holds a non-finite value")

    def __len__(self) -> int:
        return self.config.shots

    @cached_property
    def _atoms(self) -> list[np.ndarray]:
        return _sample([self.config], ["jz1", ("jz2", 0), "kappa_shot"], workers=1)

    jz1 = property(lambda self: self._atoms[0], doc="Atomic z before pulse 1.")
    jz2 = property(lambda self: self._atoms[1], doc="Atomic z before pulse 2.")
    kappa_shot = property(lambda self: self._atoms[2], doc="Each shot's coupling.")


# Wichura's AS241 (PPND16) coefficients, highest power first (Horner order).
_CENTRAL_NUM = (
    2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
    4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
    1.3314166789178437745e+2, 3.3871328727963666080e+0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
    2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
    4.2313330701600911252e+1, 1.0,
)
_NEAR_NUM = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
    4.63033784615654529590e+0, 1.42343711074968357734e+0,
)
_NEAR_DEN = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
    2.05319162663775882187e+0, 1.0,
)
_FAR_NUM = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
    5.46378491116411436990e+0, 6.65790464350110377720e+0,
)
_FAR_DEN = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


def _horner(coefs, r: np.ndarray) -> np.ndarray:
    """((c0*r + c1)*r + ...)*r + c_last, rounded in that order."""
    acc = coefs[0] * r
    for c in coefs[1:-1]:
        acc += c
        acc *= r
    acc += coefs[-1]
    return acc


def ppnd16(p) -> np.ndarray:
    """Standard normal quantiles of probabilities ``p`` in (0, 1), elementwise.

    Wichura's AS241 (PPND16): a rational approximation in q = p - 1/2 for
    |q| <= 0.425, otherwise in r = sqrt(-log(min(p, 1 - p))), with a second
    pair of polynomials beyond r = 5 (p below about 1.4e-11).  The
    polynomials are evaluated in the order ``statistics.NormalDist.inv_cdf``
    uses; the central branch matches it bit for bit, and the tails to a few
    ulps (NumPy's ``log`` may round differently from the C library's).  The
    central form is evaluated everywhere and the tail entries overwritten,
    which is cheaper than splitting the array by a mask.
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape
    p = p.ravel()
    q = p - 0.5
    tail = np.flatnonzero(np.abs(q) > 0.425)
    sign = q[tail]
    r = np.square(q)
    np.subtract(0.180625, r, out=r)
    x = _horner(_CENTRAL_NUM, r)
    x *= q
    del q  # with p, r and x, the denominator's polynomial is the fourth full-size array
    x /= _horner(_CENTRAL_DEN, r)
    del r
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    s = r - 1.6
    xt = _horner(_NEAR_NUM, s) / _horner(_NEAR_DEN, s)
    far = np.flatnonzero(r > 5.0)
    s = r[far] - 5.0
    xt[far] = _horner(_FAR_NUM, s) / _horner(_FAR_DEN, s)
    x[tail] = np.copysign(xt, sign)
    return x.reshape(shape)


def _used_slots(config: SequenceConfig) -> list[int]:
    """The window slots ``config`` turns into normals, in ascending order."""
    slots = {1, 3, 4}
    if config.spread > 0.0:
        slots.add(0)
    if config.mode == "reinit":
        slots.add(2)
    if config.eta < 1.0:
        slots |= {5, 6}
    return sorted(slots)


def _normals(seed: int, start: int, n: int, slots: list[int]) -> dict[int, np.ndarray]:
    """Standard normals of the window slots ``slots`` of shots ``start .. start + n - 1``.

    The slots' words are gathered first and only they become uniforms,
    ``(word >> 11) * 2**-53``; an exact zero is clipped to the smallest normal
    double, so AS241 stays finite.  One :func:`ppnd16` call transforms them
    all.  ``tests/reference_sampler.py`` is each step without NumPy.
    """
    words = Philox(key=seed).advance(2 * start).random_raw(n * DRAWS_PER_SHOT)
    used = words.reshape(n, DRAWS_PER_SHOT).T[slots]
    del words  # the words go before AS241's temporaries are made, and so do the gathered ones
    used >>= 11
    u = np.multiply(used, _UNIT)
    del used
    np.maximum(u, _TINY, out=u)
    return dict(zip(slots, ppnd16(u)))


def _columns(configs: list[SequenceConfig], z: dict[int, np.ndarray]) -> dict:
    """One chunk of a group's columns from its normals ``z`` (slot -> normals).

    The configs differ only in mode, so kappa_shot, jz1 and s1 are the
    group's, one each; config ``i``'s own jz2 and s2 are keyed ("jz2", i)
    and ("s2", i).  Only the slots of :func:`_used_slots` are read.
    """
    config = configs[0]
    root_half = math.sqrt(0.5)
    refill = math.sqrt((1.0 - config.eta**2) * 0.5)

    kappa_shot = config.kappa_nominal  # a constant column without atom-number spread
    if config.spread > 0.0:
        atom_scale = np.maximum(1.0 + config.spread * z[0], MIN_ATOM_FRACTION)
        kappa_shot = config.kappa_nominal * np.sqrt(atom_scale)

    def record(light: int, jz, vacuum: int) -> np.ndarray:
        s = root_half * z[light]
        if config.basis == "y":
            s = s + kappa_shot * jz
        if config.eta < 1.0:
            s = config.eta * s + refill * z[vacuum]
        return s

    jz1 = root_half * z[1]
    columns = {"kappa_shot": kappa_shot, "jz1": jz1, "s1": record(3, jz1, 5)}
    for i, member in enumerate(configs):
        jz2 = jz1 if member.mode == "qnd" else root_half * z[2]
        columns["jz2", i], columns["s2", i] = jz2, record(4, jz2, 6)
    return columns


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sample(configs: list[SequenceConfig], keys: list, workers: int) -> list[np.ndarray]:
    """The ``keys`` columns of :func:`_columns` over all shots of the group ``configs``.

    Each chunk's windows are drawn once for the whole group, the union of the
    configs' used slots is transformed once, and the chunk is sampled straight
    into its slice of the columns.  A chunk of a group that transforms k slots
    holds ``_CHUNK_NORMALS // k`` shots, so every chunk transforms about as
    many normals, and a lossless group's NumPy calls are as long as a lossy
    one's.  A pool of min(``workers``, chunks, usable CPUs) threads fills the
    chunks when that is above one, else they are filled in turn; the columns
    are the same either way, and are returned read-only.
    """
    shots, seed = configs[0].shots, configs[0].seed
    slots = sorted(set().union(*map(_used_slots, configs)))
    cols = [np.empty(shots) for _ in keys]
    chunk_shots = _CHUNK_NORMALS // len(slots)

    def fill(start: int) -> None:
        stop = min(start + chunk_shots, shots)
        chunk = _columns(configs, _normals(seed, start, stop - start, slots))
        for col, key in zip(cols, keys):
            col[start:stop] = chunk[key]

    starts = range(0, shots, chunk_shots)
    threads = min(workers, len(starts), _usable_cpus())
    # consuming either map fills every chunk and re-raises a chunk's error
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            deque(pool.map(fill, starts), maxlen=0)
    else:
        deque(map(fill, starts), maxlen=0)
    for col in cols:
        col.setflags(write=False)
    return cols


def run_group(configs, workers: int = 1) -> list[RunResult]:
    """The runs of ``configs``, which may differ only in mode, sampled together.

    Configs with the same seed, shots, coupling, basis, loss and spread read
    the same Philox windows and give the same s1, whatever their mode.  So
    each chunk is drawn and transformed once for all of them, and the runs
    share one read-only s1 column; each holds its own s2.  Every run equals
    its own :func:`run_sequence` bit for bit.  ``workers`` caps the threads
    that fill the shot chunks; no more run than there are chunks or usable
    CPUs, and the runs do not depend on the count.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("configs must be non-empty")
    if len({replace(config, mode=MODES[0]) for config in configs}) > 1:
        raise ValueError("the configs of a group may differ only in mode")
    if not is_positive_int(workers):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    s1, *s2 = _sample(configs, ["s1", *(("s2", i) for i in range(len(configs)))], workers)
    return [RunResult._sampled(config, s1, col) for config, col in zip(configs, s2)]


def run_sequence(config: SequenceConfig, workers: int = 1) -> RunResult:
    """Run all shots of ``config``: the one-config case of :func:`run_group`."""
    (run,) = run_group([config], workers)
    return run


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: decorrelates consecutive integers into 64-bit keys."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def sweep_seed(base_seed: int, index: int) -> int:
    """Derived seed for sweep point ``index``: independent and reproducible."""
    return (base_seed ^ _mix64(index)) & _U64
