"""Command-line entry of qndsim: the ``qnd`` parser, ``qnd kappa`` and the exit codes.

Subcommands map onto the standard plots for this protocol: ``kappa`` reports
the derived coupling for a parameter sheet, ``joint`` writes the two-pulse
scatter panels, ``sweep`` the variance-vs-coupling tables, ``conditional``
the conditioned-variance tables.  ``kappa`` is arithmetic on the sheet, run
on the standard library and :mod:`qndsim.physics` alone; the figure commands
live in :mod:`qndsim.figures`, which :func:`main` imports, and NumPy with
it, only for them.  Every number printed is ``%.9g``.

Exit codes: 0 success, 2 config error (a shot count too large for memory
included), 3 I/O error, 4 statistical check failure (with --check).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .physics import _FMT, SheetError, _json_ready, derive_coupling, kappa_from_angle, load_sheet


def _fmt(x) -> str:
    return _FMT % x


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_kappa(sheet_path: str, photons: float | None = None, as_json: bool = False) -> dict:
    """Report kappa, phi, epsilon for a sheet, with the phi cross-check."""
    sheet = load_sheet(sheet_path)
    pulse = sheet.pulse if photons is None else replace(sheet.pulse, photons=photons)
    coupling = derive_coupling(sheet.atomic, pulse)
    if pulse.photons > 0:
        recovered = kappa_from_angle(
            coupling.phi, pulse.stokes_length, sheet.atomic.collective_spin
        )
    else:
        recovered = 0.0
    report = {
        "sheet": sheet.name,
        "photons": pulse.photons,
        "kappa": coupling.kappa,
        "phi_rad": coupling.phi,
        "epsilon": coupling.epsilon,
        "kappa_from_phi": recovered,
        "phi_consistency_abs": abs(coupling.kappa - recovered),
    }
    if as_json:
        print(json.dumps(_json_ready(report), indent=1))
    else:
        print(f"sheet    {report['sheet']}  (photons = {_fmt(report['photons'])})")
        print(f"kappa    {_fmt(report['kappa'])}")
        print(f"phi      {_fmt(report['phi_rad'])} rad")
        print(f"epsilon  {_fmt(report['epsilon'])}")
        print(
            f"check    kappa from phi = {_fmt(report['kappa_from_phi'])} "
            f"(|diff| = {_fmt(report['phi_consistency_abs'])})"
        )
    return report


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec", required=True, help="experiment spec (JSON)")
    sub.add_argument("--seed", type=int, default=None, help="override the spec seed")
    sub.add_argument("--shots", type=int, default=None, help="override shots per run")
    sub.add_argument("--out", default=None, help="override the output directory")
    sub.add_argument(
        "--workers", type=int, default=1,
        help="concurrent shot chunks, at most one per usable CPU; the output does not depend on it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnd",
        description="Two-pulse collective-spin probe: simulator and figure harness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kap = subs.add_parser("kappa", help="derived coupling for a parameter sheet")
    kap.add_argument(
        "--sheet", required=True, help="parameter sheet: a JSON path, or a bundled name (yb171)"
    )
    kap.add_argument("--photons", type=float, default=None, help="override photon number")
    kap.add_argument("--json", action="store_true", help="emit the report as JSON")

    joint = subs.add_parser("joint", help="two-pulse joint-distribution panels")
    _add_common(joint)

    sweep = subs.add_parser("sweep", help="variance sweep over the kappa grid")
    _add_common(sweep)
    sweep.add_argument("--mode", choices=["qnd", "reinit"], default=None)
    sweep.add_argument("--check", action="store_true", help="fail if points leave the 3-SE band")

    cond = subs.add_parser("conditional", help="conditioned-variance sweep")
    _add_common(cond)
    cond.add_argument("--check", action="store_true", help="fail if points leave the 3-SE band")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "kappa":
            cmd_kappa(args.sheet, photons=args.photons, as_json=args.json)
            return 0
        from . import figures  # the figure commands, and NumPy with them

        spec = figures.load_spec(args.spec, seed=args.seed, shots=args.shots, out=args.out)
        try:
            if args.command == "joint":
                figures.cmd_joint(spec, workers=args.workers)
            elif args.command == "sweep":
                figures.cmd_variance_sweep(
                    spec, mode=args.mode, check=args.check, workers=args.workers
                )
            elif args.command == "conditional":
                figures.cmd_conditional_sweep(spec, check=args.check, workers=args.workers)
        except figures.CheckFailure as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 4
        return 0
    except (SheetError, ValueError, MemoryError) as exc:  # a SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
