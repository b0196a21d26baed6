"""qndsim benchmark: time the ``qnd`` CLI and the library on this checkout.

    python3 bench/run.py --workload cli_paper --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # every workload, untraced then traced

Prints a report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full record
(provenance, samples, per-cycle data digests, spans) goes to
``bench/_results/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("cli_paper", "cli_bulk", "lib_analysis")


def import_checkout() -> None:
    """Put the checkout's ``src`` first on the path and insist qndsim comes from it."""
    if not (SRC / "qndsim" / "__init__.py").is_file():
        sys.exit(f"error: no qndsim package under {SRC}; run from a qndsim checkout")
    sys.path.insert(0, str(SRC))
    import qndsim

    if not Path(qndsim.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: qndsim imported from {qndsim.__file__}, outside {SRC}")


def run_all(seed: int, seconds: float, traces: tuple[int, ...]) -> int:
    """Every workload in its own process (so peak RSS is per workload); one combined line."""
    results = {}
    for name in WORKLOADS:
        for trace in traces:
            argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            results[name, trace] = json.loads(lines[-1])
            print(f"{name} trace {trace}: {lines[-1]}", flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for (name, _), r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: traced per-layer metrics (default: both with 'all')")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, (args.trace,) if args.trace is not None else (0, 1))
    if args.trace is None:
        parser.error("--trace is required for a single workload")
    import_checkout()
    import workloads

    prov = workloads.provenance()
    workloads.check_child_import()
    run, metrics = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(workloads.report(run, metrics)))
    print(f"  results: {workloads.save(run, metrics, prov)}")
    print(json.dumps(workloads.result_line(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
