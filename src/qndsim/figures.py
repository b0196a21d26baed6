"""The figure commands: figure-style data products with provenance manifests.

``joint`` writes the two-pulse scatter panels, ``sweep`` the
variance-vs-coupling tables, ``conditional`` the conditioned-variance tables;
:mod:`qndsim.harness` parses their command lines.  Data files are CSV,
summaries JSON.  One model, :func:`qndsim.montecarlo.predict` (the Gaussian
core's closed form at the spec's own mode, basis, loss and atom-number spread),
supplies every ``--check`` target, one call per grid point and mode, and each
theory companion, one call over its whole coupling axis; theory companions
are identical across seeds.  Every emitted file is listed in exactly one
manifest together with its content hash, the resolved spec, and the seed, so
a run can be reproduced byte for byte; each command returns the manifest it
writes, the one record of its files.

Every table is written by :func:`_write_csv` from its columns, in one pass
that hashes each block as it is written, so the manifest never re-reads a
file.  ``sweep`` and ``conditional`` share one driver, :func:`_sweep`: each
figure declares its statistics once, as (name, estimate, SE, model target),
and the driver builds both the table columns and the ``--check`` bands from
them.  Both squeezing columns of ``conditional``, data and theory, are
:func:`qndsim.stats.squeezing_db` of the total and the conditional excess.
Every command summarises each run as it is sampled and drops it before
sampling the next, so ``joint`` holds one run's columns at a time and a
sweep one grid point's: s1 once, shared by the point's modes (common random
numbers), plus each mode's s2.

A spec that fails raises :class:`SpecError`, a ``--check`` that fails
:class:`CheckFailure`; the CLI maps them to exit codes 2 and 4.  This module
never imports :mod:`qndsim.harness`: run as ``python -m qndsim.harness``,
that module is ``__main__``, and a second import would make a second copy.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import stats
from .montecarlo import (
    SequenceConfig, predict, run_group, run_sequence, sweep_seed
)
from .physics import _FMT, _json_ready, _read_json, coupling_strength, is_finite_real, load_sheet

DEFAULT_KAPPA_GRID = (0.0, 0.15, 0.3, 0.45, 0.62)
THEORY_POINTS = 121
CHECK_SIGMAS = 3.0


class SpecError(ValueError):
    """Experiment spec failed to parse or is inconsistent."""


class CheckFailure(Exception):
    """One or more sweep points fell outside the statistical acceptance band."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, fully resolved experiment: sequence settings plus a kappa grid.

    Every field is checked here, so a spec built in code is held to what a
    spec file is; a named physics sheet must load (else :class:`SheetError`),
    and each grid is stored as a tuple.  The sweep abscissa is resolved here
    too, as the attribute ``kappas``: the ``kappa_grid``, the sheet's coupling
    at each ``photon_grid`` entry (ValueError if one is not finite), or
    :data:`DEFAULT_KAPPA_GRID`.  It is not a field, so ``asdict`` (the
    manifest's spec) holds only what the spec says; ``replace`` resolves it anew.
    """

    name: str
    sequence: SequenceConfig
    physics_sheet: str | None = None
    kappa_grid: tuple[float, ...] | None = None
    photon_grid: tuple[float, ...] | None = None
    outputs: str = "out"

    def __post_init__(self):
        for key in ("kappa_grid", "photon_grid"):
            grid = getattr(self, key)
            if grid is None:
                continue
            if not isinstance(grid, (list, tuple)):
                raise SpecError(f"{key} must be a list of finite numbers, got {grid!r}")
            if not grid:
                raise SpecError(f"{key} must be non-empty")
            for value in grid:
                if not is_finite_real(value):
                    raise SpecError(f"{key} entries must be finite numbers, got {value!r}")
                if key == "photon_grid" and value < 0:
                    raise SpecError(f"{key} entries must be non-negative, got {value!r}")
            object.__setattr__(self, key, tuple(grid))
        # the name prefixes every file name, so it may not hold a path separator
        name = self.name
        if not isinstance(name, str) or not name or "/" in name or "\\" in name:
            raise SpecError(f"name must be a non-empty string without '/' or '\\', got {name!r}")
        if not isinstance(self.outputs, str):
            raise SpecError(f"outputs must be a string, got {self.outputs!r}")
        # no path may hold a NUL byte; the OS would refuse it only after sampling
        for key, value in (("name", name), ("outputs", self.outputs)):
            if "\0" in value:
                raise SpecError(f"{key} must not hold a NUL byte, got {value!r}")
        if self.physics_sheet is not None and not isinstance(self.physics_sheet, str):
            raise SpecError(f"physics_sheet must be a string or null, got {self.physics_sheet!r}")
        if self.kappa_grid is not None and self.photon_grid is not None:
            raise SpecError("kappa_grid and photon_grid are mutually exclusive")
        if self.photon_grid is not None and not self.physics_sheet:
            raise SpecError("photon_grid requires a physics_sheet")
        kappas = self.kappa_grid or DEFAULT_KAPPA_GRID
        if self.physics_sheet:  # a named sheet must load, whatever the grid
            sheet = load_sheet(self.physics_sheet)
            if self.photon_grid is not None:
                pulses = (replace(sheet.pulse, photons=p) for p in self.photon_grid)
                kappas = tuple(coupling_strength(sheet.atomic, pulse) for pulse in pulses)
        object.__setattr__(self, "kappas", kappas)


def spec_from_mapping(raw: dict, source: str = "<spec>") -> ExperimentSpec:
    return _build_spec(raw, source)


def _build_spec(raw: dict, source: str, seed=None, shots=None, out=None) -> ExperimentSpec:
    """The spec of ``raw``, built once: :func:`load_spec`'s overrides go in before the check."""
    if not isinstance(raw, dict):
        raise SpecError(f"{source}: expected a JSON object")
    known = {"name", "physics_sheet", "sequence", "kappa_grid", "photon_grid", "outputs"}
    unknown = set(raw) - known
    if unknown:
        raise SpecError(f"{source}: unknown key(s) {sorted(unknown)}")
    seq_raw = raw.get("sequence")
    if not isinstance(seq_raw, dict):
        raise SpecError(f"{source}: 'sequence' must be an object")
    allowed = {f.name for f in fields(SequenceConfig)}
    bad = set(seq_raw) - allowed
    if bad:
        raise SpecError(f"{source}: unknown sequence key(s) {sorted(bad)}")
    try:
        sequence = SequenceConfig(**seq_raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{source}: {exc}") from exc
    for flag, key, value in (("--seed", "seed", seed), ("--shots", "shots", shots)):
        if value is not None:
            try:
                sequence = replace(sequence, **{key: value})
            except ValueError as exc:
                raise SpecError(f"{flag}: {exc}") from exc
    try:
        return ExperimentSpec(
            name=raw.get("name", ""),
            physics_sheet=raw.get("physics_sheet"),
            sequence=sequence,
            kappa_grid=raw.get("kappa_grid"),
            photon_grid=raw.get("photon_grid"),
            outputs=raw.get("outputs", "out") if out is None else out,
        )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{source}: {exc}") from exc


def load_spec(
    path: str | Path,
    seed: int | None = None,
    shots: int | None = None,
    out: str | None = None,
) -> ExperimentSpec:
    """Load a spec file and apply command-line overrides."""
    return _build_spec(_read_json(path, SpecError), str(path), seed, shots, out)


_BLOCK_ROWS = 2048  # table rows formatted at once: bounds the temporaries (about 280 B a value)


def _digit_words() -> np.ndarray:
    """The ASCII digits of 0..9999 as little-endian uint32 words, in six sections.

    A NUL byte stands for a digit that is not written.  The sections, at
    multiples of 10000, are the word variants :func:`_csv_block` picks from.
    """
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    nonzero = digits > ord("0")
    lead = np.logical_or.accumulate(nonzero, axis=1)  # from the first nonzero digit on
    trail = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]  # up to the last one
    chars = np.stack([digits] * 6)
    chars[0] *= lead & [False, False, True, True]  # two digits after separator and sign
    chars[2] *= lead
    chars[3:5, :, :3] = digits[:, 1:]  # three digits before the point
    chars[3:5, :, 3] = 0
    chars[4, :, :3] *= lead[:, 1:] | [False, False, True]  # 0 as "0"
    chars[5] *= trail
    return chars.view("<u4").ravel()


_WORDS = _digit_words()
_TOP, _FULL, _LEAD, _LOW_FULL, _LOW_LEAD, _TRAIL = range(0, 60_000, 10_000)
_POW10 = 10.0 ** np.arange(13)  # exact in float64
# an integer part of up to 9 digits splits 2+4+3, a 12-digit fraction 4+4+4
_GROUP_DIV = np.array([[1e7, 1e3], [1e8, 1e4]])[:, :, None]
_GROUP_MOD = np.array([1e4, 1e3, 0.0, 1e4, 1e4])[:, None]
_MINUS = np.uint32(ord("-") << 8)
_POINT = np.uint32(ord(".") << 24)


def _csv_block(block: np.ndarray) -> bytes:
    """The ``%.9g`` text of a (rows, k) block of floats, each row led by its newline.

    A value in ``%``'s fixed form (exponent -4 to 8) has nine significant
    digits m = |x|·10^p, rounded, with p digits after the point.  10^p is
    exact and m < 2^30, so the computed m lies within 6e-8 of the exact
    product and rounds as the exact decimal does, which ``%`` rounds
    correctly, unless it is within 1e-6 of a tie.  Zeros, non-finite values,
    exponent forms and near-ties are formatted by ``%`` itself, one at a time.

    Each value is written as six words: separator, sign and the integer
    part's top two digits; its next four; its last three and the point; the
    12-digit fraction in three.  Suppressed digits are NUL, and one
    ``compress`` drops them.
    """
    values = block.ravel()
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):  # zeros, inf, nan: flagged below
        # p = 8 - floor(log10 a); the 1e-9 keeps exact powers of ten on this
        # path, and a misjudged p leaves m outside [1e8, 1e9)
        p = np.fmin(np.fmax(9 - 1e-9 - np.log10(a), 0), 12).astype(np.intp)
        scale = _POW10[p]
        m = a * scale
        digits = np.rint(m)
        exact = (np.abs(m - digits) <= 0.499999) & (m >= 1e8) & (m < 999999999.5)
    slow = np.flatnonzero(~exact)
    if slow.size:  # an in-range stand-in, overwritten below
        digits[slow], scale[slow], p[slow] = 1e8, 1e8, 8
    # the integer part and the 12-digit fraction, each cut into three groups
    groups = np.empty((2, 3, values.size))
    np.floor(digits / scale, out=groups[0, 2])
    groups[1, 2] = (digits - groups[0, 2] * scale) * _POW10[12 - p]
    np.floor(groups[:, 2:] / _GROUP_DIV, out=groups[:, :2])
    groups = groups.reshape(6, -1)
    groups[1:] -= groups[:-1] * _GROUP_MOD
    # a group is written in full when a digit is written before it (integer
    # part) or after it (fraction); otherwise its outer zeros are suppressed
    nonzero = groups > 0
    nonzero[1] |= nonzero[0]
    nonzero[4] |= nonzero[5]
    # group 0 indexes the first section, _TOP, as it stands
    groups[1] += np.where(nonzero[0], _FULL, _LEAD)
    groups[2] += np.where(nonzero[1], _LOW_FULL, _LOW_LEAD)
    groups[3] += np.where(nonzero[4], _FULL, _TRAIL)
    groups[4] += np.where(nonzero[5], _FULL, _TRAIL)
    groups[5] += _TRAIL
    words = _WORDS.take(groups.T.astype(np.intp, order="C"))
    separators = np.full(block.shape, ord(","), dtype="<u4")
    separators[:, 0] = ord("\n")
    words[:, 0] += separators.ravel() + np.signbit(values) * _MINUS
    words[:, 2] += (nonzero[3] | nonzero[4]) * _POINT
    text = words.view(np.uint8)
    if slow.size:
        exact_text = np.array([_FMT % v for v in values[slow].tolist()], dtype="S23")
        text[slow, 1:] = exact_text.view(np.uint8).reshape(-1, 23)
    text = text.ravel()
    return np.compress(text != 0, text).tobytes()


def _write_text(path: Path, parts) -> str:
    """Write ``parts`` (text or bytes) to ``path`` in order; return the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with path.open("wb") as f:
        for part in parts:
            data = part.encode() if isinstance(part, str) else part
            f.write(data)
            digest.update(data)
    return digest.hexdigest()


def _write_csv(path: Path, header: str, columns) -> str:
    """Write k equal-length columns under ``header``, a block of rows at a time.

    Each block's rows are interleaved from the columns' slices, so no table of
    the whole file is built, and turned into text by :func:`_csv_block`, which
    leads each row with the newline ending the line before.  Returns the
    sha256 of the bytes written.
    """
    blocks = (
        np.column_stack([np.asarray(c[i : i + _BLOCK_ROWS], dtype=float) for c in columns])
        for i in range(0, len(columns[0]), _BLOCK_ROWS)
    )
    return _write_text(path, itertools.chain([header], map(_csv_block, blocks), ["\n"]))


def _emit_manifest(
    outdir: Path, spec: ExperimentSpec, figure_id: str, files: dict[Path, str]
) -> dict:
    """Write the manifest of a figure's files, given as path -> sha256, and return it."""
    # the embedded spec is kept at full float precision: feeding it back into
    # spec_from_mapping must reproduce the data files byte for byte
    manifest = {
        "name": spec.name,
        "figure": figure_id,
        "seed": spec.sequence.seed,
        "spec": asdict(spec),
        "files": {p.name: digest for p, digest in files.items()},
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    _write_text(
        outdir / f"{spec.name}_{figure_id}_manifest.json",
        [json.dumps(manifest, indent=1, sort_keys=True), "\n"],
    )
    return manifest


def _outdir(spec: ExperimentSpec) -> Path:
    path = Path(spec.outputs)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_joint(spec: ExperimentSpec, workers: int = 1) -> dict:
    """Scatter panels: (a) no atoms, (b) coupled y basis, (c) z basis; returns the manifest."""
    seq = spec.sequence
    panels = {
        "a": replace(seq, kappa_nominal=0.0, basis="y", seed=sweep_seed(seq.seed, 0)),
        "b": replace(seq, basis="y", seed=sweep_seed(seq.seed, 1)),
        "c": replace(seq, basis="z", seed=sweep_seed(seq.seed, 2)),
    }
    for cfg in panels.values():  # a config the model cannot take raises before any file
        predict(cfg)
    files = {}
    summary = {"config": asdict(seq), "panels": {}}
    for panel, cfg in panels.items():
        result = run_sequence(cfg, workers=workers)
        outdir = _outdir(spec)  # made once a run is sampled: a sampling error leaves none
        path = outdir / f"{spec.name}_joint_{panel}.csv"
        files[path] = _write_csv(path, "s1,s2", (result.s1, result.s2))
        vs = stats.variances(result)
        # Pearson's r from the variances: sigma_plus - sigma_minus = 2*Cov(s1, s2)
        r = (vs.sigma_plus - vs.sigma_minus) / (2.0 * math.sqrt(vs.sigma1 * vs.sigma2))
        summary["panels"][panel] = {
            "kappa": cfg.kappa_nominal,
            "basis": cfg.basis,
            "seed": cfg.seed,
            "pearson_r": r,
            **vs.to_dict(),
        }
        del result  # drop this panel's run before the next one is sampled
    summary_path = outdir / f"{spec.name}_joint_summary.json"
    files[summary_path] = _write_text(
        summary_path, [json.dumps(_json_ready(summary), indent=1), "\n"]
    )
    return _emit_manifest(outdir, spec, "joint_y", files)


def _theory_kappas(grid: tuple[float, ...]) -> np.ndarray:
    """Theory abscissa: 0 to the grid value of largest magnitude (1 if all zero).

    The end is made a float: linspace would make a Python int past int64 an object array.
    """
    return np.linspace(0.0, float(max(grid, key=abs)) or 1.0, THEORY_POINTS)


def _band_failures(label: str, points) -> list[str]:
    """Messages for the (name, value, se, target) points outside the check band.

    A nan or infinite estimate, SE or target is outside every band.
    """
    return [
        f"{label}: {name}={value:.4f} vs {target:.4f} exceeds {CHECK_SIGMAS:g} SE ({se:.4f})"
        for name, value, se, target in points
        if not abs(value - target) <= CHECK_SIGMAS * se < math.inf
    ]


def _sweep(spec, stem, modes, point, theory, header, theory_header, check, workers):
    """Run one sweep figure over the grid, once per mode (None: the spec's own mode).

    ``point(run, model)`` gives a run's statistics, each a (name, estimate,
    SE, model target) tuple feeding both its table columns and ``--check``,
    and its unchecked extra columns: a row is kappa, the estimates, the
    extras, then the SEs.  ``theory(seq, kappas)`` gives the theory columns after kappa.
    Every model runs before any run is sampled, and the output directory is
    created once the whole grid is summarised, so an error while sampling or
    estimating, a bad ``workers`` included, leaves no directory behind.
    The grid is walked point by point: point ``i`` runs every mode on
    ``sweep_seed(seed, i)``, so its runs share their Philox windows and are
    sampled together by :func:`run_group`; its configs, one per mode, are
    built once for both its models and its runs.  Each mode's rows and
    failures are built after the walk, in mode order, and the manifest is
    written, data files first and the theory file last, before a
    :class:`CheckFailure` is raised; otherwise it is returned.
    """
    grid = spec.kappas
    seq = spec.sequence
    groups = [
        [replace(seq, mode=mode or seq.mode, kappa_nominal=kappa, seed=sweep_seed(seq.seed, i))
         for mode in modes]
        for i, kappa in enumerate(grid)
    ]
    models = [[predict(config) for config in group] for group in groups]
    kappas = _theory_kappas(grid)
    theory_columns = [kappas, *theory(seq, kappas)]
    # the inner comprehension drops a point's runs once summarised, before the
    # next point is sampled: one point's s1 and each mode's s2 are held
    summaries = [
        [point(run, model) for run, model in zip(run_group(group, workers), group_models)]
        for group, group_models in zip(groups, models)
    ]
    outdir = _outdir(spec)
    files, failures = {}, []
    for mode, mode_summaries in zip(modes, zip(*summaries)):
        tag = [mode] if mode else []
        rows = []
        for kappa, (statistics, extra) in zip(grid, mode_summaries):
            _, values, ses, _ = zip(*statistics)
            rows.append((kappa, *values, *extra, *ses))
            if check:
                failures += _band_failures(" ".join([*tag, f"kappa={kappa:g}"]), statistics)
        path = outdir / ("_".join([spec.name, stem, *tag]) + ".csv")
        files[path] = _write_csv(path, header, list(zip(*rows)))
    theory_path = outdir / f"{spec.name}_{stem}_theory.csv"
    files[theory_path] = _write_csv(theory_path, theory_header, theory_columns)
    manifest = _emit_manifest(outdir, spec, f"{stem}_sweep", files)
    if failures:
        raise CheckFailure("; ".join(failures))
    return manifest


def cmd_variance_sweep(
    spec: ExperimentSpec,
    mode: str | None = None,
    check: bool = False,
    workers: int = 1,
) -> dict:
    """The correlated and re-initialized variance-vs-kappa tables; returns the manifest."""

    def point(run, model):
        vs = stats.variances(run)
        return (
            ("sigma1", vs.sigma1, vs.se_sigma1, model.var1),
            ("sigma2", vs.sigma2, vs.se_sigma2, model.var2),
            ("sigma_plus", vs.sigma_plus, vs.se_plus, model.sigma_plus),
            ("sigma_minus", vs.sigma_minus, vs.se_minus, model.sigma_minus),
        ), ()

    def theory(seq, kappas):  # the correlated protocol's curves, whichever modes ran
        model = predict(replace(seq, mode="qnd"), kappas)
        return model.var1, model.sigma_plus, model.sigma_minus

    return _sweep(
        spec, "variance", [mode] if mode else ["qnd", "reinit"], point, theory,
        "kappa,sigma1,sigma2,sigma_plus,sigma_minus,se_sigma1,se_sigma2,se_plus,se_minus",
        "kappa,individual,plus,minus", check, workers,
    )


def cmd_conditional_sweep(
    spec: ExperimentSpec, check: bool = False, workers: int = 1
) -> dict:
    """Conditioned-variance (and squeezing) table over the kappa grid; returns the manifest."""

    def point(run, model):
        vs, cond = stats.variances(run), stats.binned_conditional(run)
        return (
            ("sigma2 excess", vs.sigma2 - 0.5, vs.se_sigma2, model.var2 - 0.5),
            ("conditional excess", cond.sigma_cond - 0.5, cond.se_cond, model.cond - 0.5),
        ), (cond.squeezing_db,)

    def theory(seq, kappas):  # squeezing_db is NaN where no atomic signal reaches s2
        model = predict(seq, kappas)
        total, conditional = (model.var2 - 0.5).tolist(), (model.cond - 0.5).tolist()
        return total, conditional, list(map(stats.squeezing_db, total, conditional))

    return _sweep(
        spec, "conditional", [None], point, theory,
        "kappa,sigma2_minus_half,sigma_cond_minus_half,squeezing_db,se_sigma2,se_cond",
        "kappa,total_excess,conditional_excess,squeezing_db_ideal", check, workers,
    )

