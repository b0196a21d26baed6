"""Laboratory parameters and the dimensionless probe coupling.

Unit policy: every frequency-like quantity (linewidth, detunings) is stored as
an angular frequency in rad/s.  Parameter sheets use explicitly unit-suffixed
keys ("gamma_2pi_mhz": 29 means 2*pi*29 MHz) and are converted on load, so no
factor of 2*pi can survive into the formulas.  Lengths are meters, times are
seconds.

The mean photon number per pulse and the atom number enter only through the
spin lengths S = photons/2 and J = atoms/2; S is always computed from the
photon number, never stored separately.

The module runs on the standard library alone, so it also holds the number
rules every other module shares: the tests each spec and sheet value passes,
and the ``%.9g`` form of every number the CLI writes or prints, which the
NumPy-free ``qnd kappa`` and the figure commands both use.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

TWO_PI = 2.0 * math.pi


class SheetError(ValueError):
    """Parameter sheet failed to parse or is missing/mistyping a key."""


def is_finite_real(value) -> bool:
    """True for an int or float with a finite float value.

    bool, str, NaN, the infinities and ints beyond the float range are not
    numbers here: every number read from a spec or a sheet passes this test.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to convert to float
        return False


def is_positive_int(value) -> bool:
    """True for an integer of at least 1; bool is not an integer here."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


_FMT = "%.9g"  # every number the CLI writes or prints


def _json_ready(obj):
    """``obj`` with every float rounded to its ``%.9g`` value, for JSON output."""
    if isinstance(obj, float):
        return float(_FMT % obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _read_json(path: str | Path, error: type[ValueError]):
    """The JSON in file ``path``, in UTF-8, -16 or -32 whatever the locale, or ``error``."""
    try:
        return json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class AtomicParams:
    """Atomic-side constants of the probe transition and the prepared ensemble.

    gamma: natural full linewidth (rad/s).
    sigma0: photon-absorption cross section (m^2).
    delta: probe detuning from the upper hyperfine line (rad/s).
    delta0: splitting between the two excited hyperfine lines (rad/s).
    waist: probe beam waist (m).
    collective_spin: J = (atom number)/2, dimensionless.
    collective_spin_std: shot-to-shot standard deviation of J.
    """

    gamma: float
    sigma0: float
    delta: float
    delta0: float
    waist: float
    collective_spin: float
    collective_spin_std: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if self.waist <= 0:
            raise ValueError("waist must be positive")
        if self.collective_spin <= 0:
            raise ValueError("collective_spin must be positive")
        if self.collective_spin_std < 0:
            raise ValueError("collective_spin_std must be non-negative")


@dataclass(frozen=True)
class PulseParams:
    """Probe pulse settings.

    photons: mean photon number per pulse (S = photons/2 is derived).
    width: pulse duration (s).
    absorption_rate: photon absorption rate r (1/s) entering the loss
        parameter epsilon = r*width/2.
    """

    photons: float
    width: float
    absorption_rate: float = 0.0

    def __post_init__(self):
        if not (is_finite_real(self.photons) and self.photons >= 0):
            raise ValueError(f"photons must be a finite non-negative number, got {self.photons!r}")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.absorption_rate < 0:
            raise ValueError("absorption_rate must be non-negative")

    @property
    def stokes_length(self) -> float:
        """S = photons/2, the classical length of the light's Stokes vector."""
        return self.photons / 2.0


@dataclass(frozen=True)
class DerivedCoupling:
    """Dimensionless coupling kappa, rotation angle phi (rad), loss epsilon."""

    kappa: float
    phi: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")


def coupling_strength(atomic: AtomicParams, pulse: PulseParams) -> float:
    """Signed coupling kappa from atomic and pulse parameters.

    kappa = Gamma*sigma0*sqrt(S*J)/(3*pi*w0^2) times the two-line dispersive
    factor (delta-delta0)/((delta-delta0)^2+(Gamma/2)^2)
    - delta/(delta^2+(Gamma/2)^2).  The sign follows the detunings; all
    variance predictions depend on kappa^2 only.  Raises ValueError when
    the parameters put kappa outside the finite floats.
    """
    s = pulse.stokes_length
    if s == 0.0:
        return 0.0
    try:
        prefactor = (
            atomic.gamma
            * atomic.sigma0
            * math.sqrt(s * atomic.collective_spin)
            / (3.0 * math.pi * atomic.waist**2)
        )
        half_width_sq = (atomic.gamma / 2.0) ** 2
        shifted = atomic.delta - atomic.delta0
        dispersive = shifted / (shifted**2 + half_width_sq) - atomic.delta / (
            atomic.delta**2 + half_width_sq
        )
        kappa = prefactor * dispersive
    except (OverflowError, ZeroDivisionError):  # a square overflowed, or underflowed to zero
        kappa = math.nan
    return _finite("kappa", kappa)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"derived {name} is not finite ({value}): a sheet value is out of range")
    return value


def faraday_angle(kappa: float, stokes_length: float, collective_spin: float) -> float:
    """Polarization rotation angle phi = (kappa/2)*sqrt(J/S) in radians."""
    if stokes_length <= 0 or collective_spin <= 0:
        raise ValueError("stokes_length and collective_spin must be positive")
    return 0.5 * kappa * math.sqrt(collective_spin / stokes_length)


def kappa_from_angle(phi: float, stokes_length: float, collective_spin: float) -> float:
    """Inverse of :func:`faraday_angle`: kappa = 2*phi*sqrt(S/J)."""
    if stokes_length <= 0 or collective_spin <= 0:
        raise ValueError("stokes_length and collective_spin must be positive")
    return 2.0 * phi * math.sqrt(stokes_length / collective_spin)


def loss_parameter(absorption_rate: float, width: float) -> float:
    """Loss parameter epsilon = r*t/2 for absorption rate r and pulse width t."""
    if absorption_rate < 0 or width < 0:
        raise ValueError("absorption_rate and width must be non-negative")
    return 0.5 * absorption_rate * width


def derive_coupling(atomic: AtomicParams, pulse: PulseParams) -> DerivedCoupling:
    """Jointly consistent (kappa, phi, epsilon) for one operating point."""
    kappa = coupling_strength(atomic, pulse)
    phi = (
        _finite("phi", faraday_angle(kappa, pulse.stokes_length, atomic.collective_spin))
        if pulse.photons > 0
        else 0.0
    )
    return DerivedCoupling(
        kappa=kappa,
        phi=phi,
        epsilon=loss_parameter(pulse.absorption_rate, pulse.width),
    )


# ---------------------------------------------------------------------------
# Parameter sheets
# ---------------------------------------------------------------------------

_ATOMIC_KEYS = {
    "gamma_2pi_mhz": ("gamma", lambda v: TWO_PI * v * 1e6),
    "sigma0_m2": ("sigma0", float),
    "delta_2pi_mhz": ("delta", lambda v: TWO_PI * v * 1e6),
    "delta0_2pi_mhz": ("delta0", lambda v: TWO_PI * v * 1e6),
    "waist_um": ("waist", lambda v: v / 1e6),
    "collective_spin": ("collective_spin", float),
    "collective_spin_std": ("collective_spin_std", float),
}

_PULSE_KEYS = {
    "photons": ("photons", float),
    "pulse_width_ns": ("width", lambda v: v / 1e9),
    "absorption_rate_per_s": ("absorption_rate", float),
}

_OPTIONAL_KEYS = {"collective_spin_std", "absorption_rate_per_s"}


@dataclass(frozen=True)
class ParameterSheet:
    """One named laboratory operating point."""

    name: str
    atomic: AtomicParams
    pulse: PulseParams


def _convert(raw: dict, keymap: dict, source: str) -> dict:
    fields = {}
    for key, (field, conv) in keymap.items():
        if key not in raw:
            if key in _OPTIONAL_KEYS:
                continue
            raise SheetError(f"{source}: missing key {key!r}")
        value = raw[key]
        if not is_finite_real(value):
            raise SheetError(f"{source}: key {key!r} must be a finite number, got {value!r}")
        fields[field] = conv(value)
        if not math.isfinite(fields[field]):
            raise SheetError(
                f"{source}: key {key!r} is out of range after unit conversion, got {value!r}"
            )
    return fields


def sheet_from_mapping(raw: dict, source: str = "<sheet>") -> ParameterSheet:
    """Build a :class:`ParameterSheet` from a parsed JSON mapping."""
    if not isinstance(raw, dict):
        raise SheetError(f"{source}: expected a JSON object at top level")
    known = {"name"} | set(_ATOMIC_KEYS) | set(_PULSE_KEYS)
    unknown = set(raw) - known
    if unknown:
        raise SheetError(f"{source}: unknown key(s) {sorted(unknown)}")
    try:
        atomic = AtomicParams(**_convert(raw, _ATOMIC_KEYS, source))
        pulse = PulseParams(**_convert(raw, _PULSE_KEYS, source))
    except ValueError as exc:
        if isinstance(exc, SheetError):
            raise
        raise SheetError(f"{source}: {exc}") from exc
    return ParameterSheet(name=str(raw.get("name", "unnamed")), atomic=atomic, pulse=pulse)


def load_sheet(path: str | Path) -> ParameterSheet:
    """Load a parameter sheet from a JSON file.

    ``path`` may also name a bundled sheet ("yb171") when no such file exists:
    a bare name, with no directory and no suffix, so a mistyped path is an error.
    A path that exists but is not a regular file, a directory say, is an error too.
    """
    p = Path(path)
    if not p.exists():
        bundled = resources.files("qndsim").joinpath(f"data/{p.name}.json")
        if str(path) == p.name and not p.suffix and bundled.is_file():
            return sheet_from_mapping(json.loads(bundled.read_bytes()), source=str(path))
        raise SheetError(f"{path}: no such sheet")
    if not p.is_file():
        raise SheetError(f"{path}: not a regular file")
    return sheet_from_mapping(_read_json(p, SheetError), source=str(path))
