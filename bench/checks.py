"""Output checks: manifests, CSV shape, and estimates against the Gaussian model.

Every estimate is compared with the ``gaussian_core`` prediction for the
configuration that produced it (mode, basis, loss, atom-number spread), not
with the lossless curves the program's own ``--check`` uses.  The band is
``Z_BAND`` standard errors: a two-sided false-alarm probability of 1e-10 per
compared value, so even 10^4 comparisons in a run give a false alarm less than
once in 10^6 runs of correct code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

from qndsim import gaussian_core as gc
from qndsim import physics

Z_BAND = NormalDist().inv_cdf(1.0 - 1e-10 / 2.0)

# The conditional estimator under test: 21 equal-width bins of s1 over
# mean +/- 2.5 sd, which keep about 98.8% of Gaussian shots.
BINS = 21
BIN_HALF_RANGE = 2.5
BIN_KEPT = 0.988
# The sampler clips the per-shot atom-number scale 1 + r*z below at this value.
MIN_ATOM_FRACTION = 0.1

SEQUENCE_DEFAULTS = {"basis": "y", "eta": 1.0, "atom_fluctuation": False, "spin_rel_std": 0.0}

VARIANCE_HEADER = "kappa,sigma1,sigma2,sigma_plus,sigma_minus,se_sigma1,se_sigma2,se_plus,se_minus"
CONDITIONAL_HEADER = "kappa,sigma2_minus_half,sigma_cond_minus_half,squeezing_db,se_sigma2,se_cond"
THEORY_ROWS = 121


@dataclass(frozen=True)
class Moments:
    """Second moments of (s1, s2) and Var(s2 | s1) for one configuration."""

    v1: float
    v2: float
    cov: float
    cond: float

    @property
    def sigma_plus(self) -> float:
        return (self.v1 + self.v2 + 2.0 * self.cov) / 2.0

    @property
    def sigma_minus(self) -> float:
        return (self.v1 + self.v2 - 2.0 * self.cov) / 2.0


def effective_kappa(kappa: float, atom_fluctuation: bool, spin_rel_std: float) -> float:
    """sqrt(E[kappa_shot^2]): kappa_shot^2 = kappa^2 * max(1 + r z, MIN_ATOM_FRACTION)."""
    r = spin_rel_std if atom_fluctuation else 0.0
    if r == 0.0:
        return kappa
    a = (MIN_ATOM_FRACTION - 1.0) / r
    nd = NormalDist()
    mean_scale = MIN_ATOM_FRACTION * nd.cdf(a) + (1.0 - nd.cdf(a)) + r * nd.pdf(a)
    return kappa * math.sqrt(mean_scale)


def predict(seq: dict) -> Moments:
    """Moments of the recorded pulse quadratures from the Gaussian core.

    ``seq`` holds the ``SequenceConfig`` fields.  The second moments are exact
    with E[kappa^2] in place of kappa^2 under atom-number spread; the
    conditional variance is then the Gaussian one.
    """
    kappa = effective_kappa(seq["kappa_nominal"], seq["atom_fluctuation"], seq["spin_rel_std"])
    state = gc.apply_map(gc.coherent_init(2), gc.qnd_map(2, 1, kappa))
    if seq["mode"] == "reinit":
        state = gc.apply_loss(state, gc.ATOM, 0.0)  # re-pumped: a fresh coherent spin
    state = gc.apply_map(state, gc.qnd_map(2, 2, kappa))
    for k in (1, 2):
        state = gc.apply_loss(state, gc.pulse(k), seq["eta"])
    basis = seq["basis"]
    q = 0 if basis == "y" else 1
    p1, p2 = 2 + q, 4 + q
    conditioned = gc.condition_on(state, gc.pulse(1), basis, 0.0)
    _, _, var_y, var_z, _ = gc.marginal(conditioned, gc.pulse(2))
    return Moments(
        v1=float(state.cov[p1, p1]),
        v2=float(state.cov[p2, p2]),
        cov=float(state.cov[p1, p2]),
        cond=var_y if basis == "y" else var_z,
    )


def _band(label: str, est: float, pred: float, se: float, slack: float = 0.0) -> list[str]:
    if math.isfinite(est) and abs(est - pred) <= Z_BAND * se + slack:
        return []
    return [f"{label}: {est:.6g} vs model {pred:.6g} (band {Z_BAND:.2f} x SE {se:.3g})"]


def check_variances(label: str, est: dict, m: Moments, n: int) -> list[str]:
    """sigma1, sigma2, sigma_plus, sigma_minus against the model, Gaussian SEs."""
    rel = math.sqrt(2.0 / (n - 1))
    model = {"sigma1": m.v1, "sigma2": m.v2, "sigma_plus": m.sigma_plus, "sigma_minus": m.sigma_minus}
    failures = []
    for key, pred in model.items():
        failures += _band(f"{label} {key}", float(est[key]), pred, pred * rel)
    return failures


def check_conditional(label: str, sigma_cond: float, m: Moments, n: int) -> list[str]:
    """Binned Var(s2|s1) against the model, allowing the binning bias slope^2*width^2/12."""
    se = m.cond * math.sqrt(2.0 / (BIN_KEPT * n - BINS))
    width = 2.0 * BIN_HALF_RANGE * math.sqrt(m.v1) / BINS
    slope = m.cov / m.v1
    return _band(f"{label} sigma_cond", sigma_cond, m.cond, se, slope**2 * width**2 / 12.0)


def check_pearson(label: str, r: float, m: Moments, n: int) -> list[str]:
    rho = m.cov / math.sqrt(m.v1 * m.v2)
    return _band(f"{label} pearson_r", r, rho, (1.0 - rho * rho) / math.sqrt(n - 1))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_csv(path: Path, header: str, rows: int) -> list[str]:
    """Header line, row count and a rectangular shape (commas per row)."""
    data = path.read_bytes()
    first, _, _ = data.partition(b"\n")
    failures = []
    if first.decode() != header:
        failures.append(f"{path.name}: header {first.decode()!r}, expected {header!r}")
    got_rows = data.count(b"\n") - 1
    if got_rows != rows:
        failures.append(f"{path.name}: {got_rows} rows, expected {rows}")
    elif data.count(b",") != (rows + 1) * header.count(","):
        failures.append(f"{path.name}: ragged rows")
    return failures


def read_manifest(outdir: Path, name: str, figure: str) -> tuple[dict, list[str]]:
    """Load a figure manifest and re-hash every file it lists."""
    path = outdir / f"{name}_{figure}_manifest.json"
    if not path.is_file():
        return {}, [f"{path.name}: missing"]
    manifest = json.loads(path.read_text())
    failures = []
    for fname, digest in manifest.get("files", {}).items():
        fpath = outdir / fname
        if not fpath.is_file():
            failures.append(f"{fname}: listed in {path.name} but missing")
        elif sha256_file(fpath) != digest:
            failures.append(f"{fname}: sha256 differs from {path.name}")
    return manifest, failures


def _csv_rows(path: Path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, map(float, line.split(",")))) for line in lines]


def check_joint(outdir: Path, spec: dict) -> tuple[dict, list[str]]:
    name, seq = spec["name"], spec["sequence"]
    manifest, failures = read_manifest(outdir, name, "joint_y")
    n = seq["shots"]
    for panel in "abc":
        failures += check_csv(outdir / f"{name}_joint_{panel}.csv", "s1,s2", n)
    summary = json.loads((outdir / f"{name}_joint_summary.json").read_text())
    panels = {
        "a": {**seq, "kappa_nominal": 0.0, "basis": "y"},
        "b": {**seq, "basis": "y"},
        "c": {**seq, "basis": "z"},
    }
    for panel, cfg in panels.items():
        est = summary["panels"][panel]
        m = predict(cfg)
        if est["n"] != n:
            failures.append(f"joint {panel}: n={est['n']}, expected {n}")
        failures += check_variances(f"joint {panel}", est, m, n)
        failures += check_pearson(f"joint {panel}", est["pearson_r"], m, n)
    return manifest, failures


def check_sweep(outdir: Path, spec: dict) -> tuple[dict, list[str]]:
    name, seq, grid = spec["name"], spec["sequence"], spec["kappa_grid"]
    manifest, failures = read_manifest(outdir, name, "variance_sweep")
    failures += check_csv(outdir / f"{name}_variance_theory.csv", "kappa,individual,plus,minus", THEORY_ROWS)
    for mode in ("qnd", "reinit"):
        path = outdir / f"{name}_variance_{mode}.csv"
        shape = check_csv(path, VARIANCE_HEADER, len(grid))
        failures += shape
        if shape:
            continue
        for kappa, row in zip(grid, _csv_rows(path)):
            label = f"sweep {mode} kappa={kappa:g}"
            if row["kappa"] != float(f"{kappa:.9g}"):
                failures.append(f"{label}: kappa column reads {row['kappa']}")
            m = predict({**seq, "mode": mode, "kappa_nominal": kappa})
            failures += check_variances(label, row, m, seq["shots"])
    return manifest, failures


def check_conditional_sweep(outdir: Path, spec: dict) -> tuple[dict, list[str]]:
    name, seq, grid = spec["name"], spec["sequence"], spec["kappa_grid"]
    manifest, failures = read_manifest(outdir, name, "conditional_sweep")
    failures += check_csv(
        outdir / f"{name}_conditional_theory.csv",
        "kappa,total_excess,conditional_excess,squeezing_db_ideal",
        THEORY_ROWS,
    )
    path = outdir / f"{name}_conditional.csv"
    shape = check_csv(path, CONDITIONAL_HEADER, len(grid))
    failures += shape
    if shape:
        return manifest, failures
    n = seq["shots"]
    for kappa, row in zip(grid, _csv_rows(path)):
        label = f"conditional kappa={kappa:g}"
        m = predict({**seq, "kappa_nominal": kappa})
        failures += _band(
            f"{label} sigma2", row["sigma2_minus_half"] + 0.5, m.v2, m.v2 * math.sqrt(2.0 / (n - 1))
        )
        failures += check_conditional(label, row["sigma_cond_minus_half"] + 0.5, m, n)
    return manifest, failures


def check_kappa(report_text: str, sheet: str) -> list[str]:
    """The ``qnd kappa --json`` report against the physics layer, to 9 digits."""
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"kappa: report is not JSON ({exc})"]
    loaded = physics.load_sheet(sheet)
    coupling = physics.derive_coupling(loaded.atomic, loaded.pulse)
    failures = []
    for key, value in (("kappa", coupling.kappa), ("phi_rad", coupling.phi), ("epsilon", coupling.epsilon)):
        if report.get(key) != float(f"{value:.9g}"):
            failures.append(f"kappa: {key}={report.get(key)} expected {value:.9g}")
    if not abs(report.get("phi_consistency_abs", math.inf)) <= 1e-9:
        failures.append(f"kappa: phi consistency {report.get('phi_consistency_abs')}")
    return failures


FIGURE_CHECKS = {
    "joint": check_joint,
    "sweep": check_sweep,
    "conditional": check_conditional_sweep,
}
