"""Gaussian algebra for a collective atomic spin probed by off-resonant light pulses.

Layout convention, used verbatim by every mean vector and covariance matrix in
this package: modes are ordered atom first, then light pulses by ordinal, and
each mode contributes the quadrature pair (y, z).  A state over ``n`` modes is
a length-``2n`` mean vector ``(y_0, z_0, y_1, z_1, ...)`` plus a symmetric
``2n x 2n`` covariance matrix in the same ordering.  Quadratures are
dimensionless with ``[y, z] = i``, so a coherent state has variance 1/2 in
both quadratures and saturates ``Var(y) * Var(z) >= 1/4``.

The x components of both the collective spin and the light polarization are
treated as frozen classical amplitudes (strong x-polarized coherent states),
which is what makes the remaining (y, z) dynamics exactly Gaussian.  The probe
interaction is then the symplectic shear

    S_y -> S_y + kappa * J_z,     S_z -> S_z,
    J_y -> J_y + kappa * S_z,     J_z -> J_z,

which leaves the measured atomic z quadrature untouched (back-action evasion)
while writing it onto the light.  Measuring a pulse's y quadrature and
conditioning the remaining modes (a Schur complement) is what squeezes the
atomic z variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COHERENT_VARIANCE = 0.5

# Tolerances for state and map validation.
SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-10
UNCERTAINTY_TOL = 1e-9
# Variances at or below this are treated as singular rather than inverted.
SINGULAR_VARIANCE = 1e-12


class SingularConditioningError(ValueError):
    """Raised when conditioning on a quadrature with (numerically) zero variance."""


@dataclass(frozen=True)
class ModeLabel:
    """Identifies one mode: the single atom mode or a light pulse by ordinal."""

    kind: str  # "atom" or "pulse"
    index: int

    def __post_init__(self):
        if self.kind not in ("atom", "pulse"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.kind == "atom" and self.index != 0:
            raise ValueError("the atom mode has index 0")
        if self.kind == "pulse" and self.index < 1:
            raise ValueError("pulse ordinals start at 1")


ATOM = ModeLabel("atom", 0)


def pulse(index: int) -> ModeLabel:
    """Label of the ``index``-th light pulse (1-based)."""
    return ModeLabel("pulse", index)


@dataclass(frozen=True)
class GaussianState:
    """Joint light-atom Gaussian state: labeled modes, mean vector, covariance.

    Immutable after construction; every operation below returns a new state.
    Construction validates a finite ``mean``, symmetry of ``cov`` and the one
    exact uncertainty condition: ``cov + i*Omega/2`` has no eigenvalue below
    ``-UNCERTAINTY_TOL`` (a NaN fails every test), which implies that ``cov``
    is positive semidefinite and each mode's ``Var(y)Var(z) - Cov^2 >= 1/4``.
    The operations below build their results with :meth:`_derived`,
    unchecked: a symplectic map, a loss channel and a Schur complement each
    keep a valid state valid, and :func:`coherent_init` is valid by construction.
    """

    modes: tuple[ModeLabel, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate mode labels")
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        dim = 2 * len(modes)
        if mean.shape != (dim,):
            raise ValueError(f"mean must have shape ({dim},), got {mean.shape}")
        if cov.shape != (dim, dim):
            raise ValueError(f"cov must have shape ({dim}, {dim}), got {cov.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        # each test is written as `not (value <= tol)`, so that NaN fails it
        if dim and not np.max(np.abs(cov - cov.T)) <= SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        # the one exact test (Simon, Mukunda and Dutta 1994); eigvalsh reads one triangle
        low = np.linalg.eigvalsh(cov + 0.5j * omega(len(modes))).min() if dim else 0.0
        if not -low <= UNCERTAINTY_TOL:
            raise ValueError(f"uncertainty violated: eigenvalue {low:.6g} of cov + i*Omega/2")
        self._freeze(modes, mean, cov)

    def _freeze(self, modes: tuple[ModeLabel, ...], mean: np.ndarray, cov: np.ndarray):
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _derived(cls, modes: tuple[ModeLabel, ...], mean: np.ndarray, cov: np.ndarray):
        """Unchecked state from arrays valid by construction or computed from a valid state."""
        state = object.__new__(cls)
        state._freeze(modes, mean, cov)
        return state

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_position(self, mode: ModeLabel) -> int:
        """Position of ``mode`` in the layout, raising for unknown labels."""
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"state has no mode {mode}") from None


@dataclass(frozen=True)
class SymplecticMap:
    """Linear map on quadratures that preserves the canonical form Omega."""

    matrix: np.ndarray

    def __post_init__(self):
        F = np.array(self.matrix, dtype=float)
        if F.ndim != 2 or F.shape[0] != F.shape[1] or F.shape[0] % 2:
            raise ValueError("matrix must be square with even dimension")
        Om = omega(F.shape[0] // 2)
        if not np.max(np.abs(F @ Om @ F.T - Om)) <= SYMPLECTIC_TOL:  # NaN fails
            raise ValueError("matrix is not symplectic")
        F.setflags(write=False)
        object.__setattr__(self, "matrix", F)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def omega(n_modes: int) -> np.ndarray:
    """Canonical form: block diagonal with [[0, 1], [-1, 0]] per mode."""
    Om = np.zeros((2 * n_modes, 2 * n_modes))
    for p in range(n_modes):
        Om[2 * p, 2 * p + 1] = 1.0
        Om[2 * p + 1, 2 * p] = -1.0
    return Om


def coherent_init(n_pulses: int) -> GaussianState:
    """Product of coherent states: one atom mode plus ``n_pulses`` light pulses.

    Zero mean, covariance (1/2)*Identity: every mode sits exactly at the
    minimum-uncertainty point, so the state is valid by construction and
    built unchecked.
    """
    if n_pulses < 1:
        raise ValueError("need at least one light pulse")
    modes = (ATOM,) + tuple(pulse(i) for i in range(1, n_pulses + 1))
    dim = 2 * len(modes)
    return GaussianState._derived(modes, np.zeros(dim), COHERENT_VARIANCE * np.eye(dim))


def qnd_map(n_pulses: int, pulse_index: int, kappa: float) -> SymplecticMap:
    """Shear coupling pulse ``pulse_index`` to the atom with strength ``kappa``.

    Writes the atomic z quadrature onto the pulse's y quadrature and the
    pulse's z quadrature onto the atomic y quadrature; both z quadratures are
    left invariant.  Identity on all other pulses.
    """
    if not 1 <= pulse_index <= n_pulses:
        raise ValueError(
            f"pulse_index {pulse_index} out of range for {n_pulses} pulse(s)"
        )
    dim = 2 * (n_pulses + 1)
    F = np.eye(dim)
    atom_y, atom_z = 0, 1
    pulse_y, pulse_z = 2 * pulse_index, 2 * pulse_index + 1
    F[pulse_y, atom_z] = kappa
    F[atom_y, pulse_z] = kappa
    return SymplecticMap(F)


def apply_map(state: GaussianState, smap: SymplecticMap) -> GaussianState:
    """Evolve: mean -> F mean, cov -> F cov F^T."""
    F = smap.matrix
    if F.shape[0] != 2 * state.n_modes:
        raise ValueError(
            f"map acts on {smap.n_modes} modes but state has {state.n_modes}"
        )
    cov = F @ state.cov @ F.T
    return GaussianState._derived(state.modes, F @ state.mean, 0.5 * (cov + cov.T))


def apply_loss(state: GaussianState, mode: ModeLabel, eta: float) -> GaussianState:
    """Beam-splitter attenuation of one mode with vacuum refill.

    Transmission amplitude ``eta`` in [0, 1]: the mode's means scale by eta,
    its variances become ``eta^2 * Var + (1 - eta^2)/2``, and every
    cross-covariance with other modes scales by eta.  ``eta = 1`` is the
    identity; ``eta = 0`` replaces the mode by vacuum.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    pos = state.mode_position(mode)
    scale = np.ones(2 * state.n_modes)
    scale[2 * pos] = scale[2 * pos + 1] = eta
    cov = state.cov * np.outer(scale, scale)
    refill = (1.0 - eta * eta) * COHERENT_VARIANCE
    cov[2 * pos, 2 * pos] += refill
    cov[2 * pos + 1, 2 * pos + 1] += refill
    return GaussianState._derived(state.modes, state.mean * scale, cov)


def condition_on(
    state: GaussianState, mode: ModeLabel, quadrature: str, value: float
) -> GaussianState:
    """Condition the state on a quadrature measurement outcome.

    Measuring quadrature ``"y"`` or ``"z"`` of ``mode`` with result ``value``
    updates the remaining modes by the Gaussian conditioning rule (the Schur
    complement on the measured scalar) and removes the measured mode from the
    state.  The conditioned covariance does not depend on ``value``; only the
    means shift.
    """
    if quadrature not in ("y", "z"):
        raise ValueError(f"quadrature must be 'y' or 'z', got {quadrature!r}")
    pos = state.mode_position(mode)
    b = 2 * pos + (0 if quadrature == "y" else 1)
    var_b = state.cov[b, b]
    if var_b <= SINGULAR_VARIANCE:
        raise SingularConditioningError(
            f"variance {var_b:.3g} of the measured quadrature is degenerate"
        )
    keep = [i for i in range(2 * state.n_modes) if i not in (2 * pos, 2 * pos + 1)]
    cross = state.cov[keep, b]
    mean = state.mean[keep] + cross * ((value - state.mean[b]) / var_b)
    cov = state.cov[np.ix_(keep, keep)] - np.outer(cross, cross) / var_b
    modes = state.modes[:pos] + state.modes[pos + 1 :]
    return GaussianState._derived(modes, mean, 0.5 * (cov + cov.T))


def two_pulse_moments(k2: float, eta: float, mode: str, basis: str) -> tuple[float, float, float]:
    """(Var s1, Cov(s1, s2), Var s2) of the two-pulse protocol, in closed form.

    The maps above give these to within rounding.  Pulse k leaves its shear
    (kappa^2 = ``k2``) as S_ky + kappa * J_z.  No shear touches J_z, which both
    pulses read under "qnd", while "reinit" puts the atom in vacuum between
    them: Var = 1/2 + k2/2, Cov = k2/2 ("qnd") or 0.  Loss eta scales each
    pulse's variance by eta^2 and refills (1 - eta^2)/2, and the covariance by
    eta^2: with c = eta^2 * k2/2, basis "y" records 1/2 + c, c or 0, 1/2 + c.
    No shear touches the z quadratures, so basis "z" records vacua: c = 0.
    ``k2`` may be a float array: each moment is then elementwise in it.
    """
    zero = np.zeros_like(k2, dtype=float)[()]  # a scalar for a scalar k2
    c = zero if basis == "z" else eta * eta * k2 * COHERENT_VARIANCE
    return COHERENT_VARIANCE + c, c if mode == "qnd" else zero, COHERENT_VARIANCE + c


def marginal(
    state: GaussianState, mode: ModeLabel
) -> tuple[float, float, float, float, float]:
    """Single-mode marginal: (mean_y, mean_z, var_y, var_z, cov_yz)."""
    pos = state.mode_position(mode)
    y, z = 2 * pos, 2 * pos + 1
    return (
        float(state.mean[y]),
        float(state.mean[z]),
        float(state.cov[y, y]),
        float(state.cov[z, z]),
        float(state.cov[y, z]),
    )
