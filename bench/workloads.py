"""The benchmark's workloads, their timing loops, checks and metrics.

Imported by ``run.py`` only after it has put the checkout's ``src`` first on
``sys.path``, so ``qndsim`` here is always the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracing
from qndsim import harness, montecarlo, physics, stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"
RESULTS = BENCH / "_results"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

SETUP_RUNS = 5
PAPER_SHOTS = 2600
BULK_SHOTS = 1_000_000
BULK_WORKERS = 2
BOOTSTRAP_RESAMPLES = 1000
# The lib_analysis grid: photon numbers as multiples of the yb171 sheet's.
PHOTON_SCALES = (0.25, 0.5, 1.0, 1.5)
LOSSY = {"eta": 0.8, "atom_fluctuation": True, "spin_rel_std": 0.05}
# The worker check needs several 8192-shot sampler chunks.
WORKER_CHECK_SHOTS = 40_000

# The README's fig3 spec, and the lossy variant the cli_bulk sweep runs.
FIG3 = {
    "name": "fig3",
    "sequence": {"mode": "qnd", "kappa_nominal": 0.62, "shots": PAPER_SHOTS, "seed": 7},
    "kappa_grid": [0.0, 0.15, 0.3, 0.45, 0.62],
}
FIG3_LOSSY = {**FIG3, "name": "fig3lossy", "sequence": {**FIG3["sequence"], **LOSSY}}

def derive_seed(*parts) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One ``qnd`` subcommand invocation of a CLI workload."""

    label: str
    argv: list[str]
    spec: dict | None = None  # the resolved spec its outputs are checked against
    shots: int = 0
    check: bool = False  # runs with --check: exit 4 is an alarm, not a failure


def _figure(label, spec, seed, out, shots, extra) -> Command:
    work = out.parent  # output directories sit beside the run's spec files
    resolved = {
        **spec,
        "sequence": {**checks.SEQUENCE_DEFAULTS, **spec["sequence"], "seed": seed, "shots": shots},
    }
    runs = {"joint": 3, "sweep": 2 * len(spec["kappa_grid"]), "conditional": len(spec["kappa_grid"])}
    argv = [label, "--spec", str(work / f"{spec['name']}.json"), "--seed", str(seed), "--out", str(out)]
    return Command(label, argv + extra, resolved, runs[label] * shots, "--check" in extra)


def cli_commands(workload: str, seed: int, out: Path) -> list[Command]:
    if workload == "cli_paper":
        return [
            Command("kappa", ["kappa", "--sheet", "yb171", "--json"]),
            _figure("joint", FIG3, seed, out, PAPER_SHOTS, []),
            _figure("sweep", FIG3, seed, out, PAPER_SHOTS, ["--check"]),
            _figure("conditional", FIG3, seed, out, PAPER_SHOTS, ["--check"]),
        ]
    bulk = ["--shots", str(BULK_SHOTS), "--workers", str(BULK_WORKERS)]
    return [
        _figure("joint", FIG3, seed, out, BULK_SHOTS, bulk),
        _figure("sweep", FIG3_LOSSY, seed, out, BULK_SHOTS, bulk),
        _figure("conditional", FIG3, seed, out, BULK_SHOTS, bulk),
    ]


def spawn(args: list[str], out: Path | None = None) -> tuple[float, int, float]:
    """Run ``python <args>`` on the checkout; return wall s, exit code, max RSS MB."""
    with contextlib.ExitStack() as stack:
        stdout = stack.enter_context(open(out.with_suffix(".out"), "w")) if out else subprocess.DEVNULL
        stderr = stack.enter_context(open(out.with_suffix(".err"), "w")) if out else subprocess.DEVNULL
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=stderr, env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_command_subprocess(cmd: Command, log: Path) -> tuple[float, int, float, str]:
    wall, rc, rss = spawn(["-m", "qndsim.harness", *cmd.argv], log)
    return wall, rc, rss, log.with_suffix(".out").read_text()


def run_command_inprocess(cmd: Command, tracer: tracing.Tracer | None) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            rc = harness.main(cmd.argv)
        else:
            first = len(tracer.spans)
            rc = tracer.call("harness", "main", harness.main, cmd.argv)
            tracer.spans[first].attrs["command"] = cmd.label
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue()


def check_command(cmd: Command, rc: int, stdout: str, out: Path) -> tuple[list[str], dict]:
    """Failures of one command's outputs, and the data-file digests it listed."""
    if rc not in ((0, 4) if cmd.check else (0,)):
        return [f"{cmd.label}: exit status {rc}"], {}
    try:
        if cmd.label == "kappa":
            return checks.check_kappa(stdout, "yb171"), {}
        manifest, failures = checks.FIGURE_CHECKS[cmd.label](out, cmd.spec)
        return failures, manifest.get("files", {})
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"{cmd.label}: {type(exc).__name__}: {exc}"], {}


def lib_point(seed: int, index: int) -> list[tuple]:
    """One grid point of lib_analysis: the {mode} x {basis} x {loss} matrix."""
    sheet = physics.load_sheet("yb171")
    photons = sheet.pulse.photons * PHOTON_SCALES[index % len(PHOTON_SCALES)]
    kappa = physics.coupling_strength(sheet.atomic, replace(sheet.pulse, photons=photons))
    rows = []
    j = 0
    for mode in ("qnd", "reinit"):
        for basis in ("y", "z"):
            for extra in ({}, LOSSY):
                cfg = montecarlo.SequenceConfig(
                    mode=mode, kappa_nominal=kappa, basis=basis, shots=PAPER_SHOTS,
                    seed=derive_seed(seed, j), **extra,
                )
                j += 1
                run = montecarlo.run_sequence(cfg)
                vs = stats.variances(run)
                cond = stats.binned_conditional(run)
                ci_cond = stats.bootstrap_ci(run, "sigma_cond", resamples=BOOTSTRAP_RESAMPLES, seed=cfg.seed)
                ci_s1 = stats.bootstrap_ci(run, "sigma1", resamples=BOOTSTRAP_RESAMPLES, seed=cfg.seed)
                rows.append((cfg, run, vs, cond, ci_cond, ci_s1, checks.predict(asdict(cfg))))
    return rows


def column_digest(run) -> str:
    h = hashlib.sha256()
    for col in (run.s1, run.s2, run.jz1, run.jz2, run.kappa_shot):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def check_lib_point(rows) -> tuple[list[str], dict]:
    failures, digests = [], {}
    for cfg, run, vs, cond, ci_cond, ci_s1, m in rows:
        label = f"lib {cfg.mode}/{cfg.basis}/eta={cfg.eta:g} kappa={cfg.kappa_nominal:.4f}"
        digests[f"{label} seed={cfg.seed}"] = column_digest(run)
        failures += checks.check_variances(label, vs.to_dict(), m, cfg.shots)
        failures += checks.check_conditional(label, cond.sigma_cond, m, cfg.shots)
        for name, (lo, hi) in (("sigma_cond", ci_cond), ("sigma1", ci_s1)):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                failures.append(f"{label} bootstrap {name}: interval ({lo}, {hi})")
        # the 68.3% percentile interval of a variance is about +/- one Gaussian SE
        half_width = (ci_s1[1] - ci_s1[0]) / 2.0
        if not 0.5 <= half_width / vs.se_sigma1 <= 2.0:
            failures.append(f"{label} bootstrap sigma1: half-width {half_width:.4g} vs SE {vs.se_sigma1:.4g}")
    return failures, digests


# ---------------------------------------------------------------------------
# One run of a workload
# ---------------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    samples: dict = field(default_factory=dict)  # label -> list of wall times
    cycles: list = field(default_factory=list)  # per-cycle record
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    alarms: int = 0
    check_commands: int = 0
    rss_mb: float = 0.0
    tracer: tracing.Tracer | None = None
    detail: dict = field(default_factory=dict)  # report-only figures
    work: Path = field(default_factory=lambda: WORK_ROOT / str(os.getpid()))

    def count(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += failures

    def record(self, label: str, wall: float, failures: list[str]) -> None:
        self.samples.setdefault(label, []).append(wall)
        self.count(failures)

    def write_specs(self) -> None:
        self.work.mkdir(parents=True)
        for spec in (FIG3, FIG3_LOSSY):
            text = json.dumps({**spec, "outputs": str(self.work / "unused")})
            (self.work / f"{spec['name']}.json").write_text(text)


def dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.iterdir() if p.is_file() and p.suffix in (".csv", ".json")]
    return len(files), sum(p.stat().st_size for p in files)


def cli_cycle(run: Run, index: int, tracer: tracing.Tracer | None) -> float:
    """Run every command of the workload once; return the timed wall seconds."""
    cycle_seed = derive_seed(run.workload, run.seed, index)
    out = run.work / f"cycle{index}"
    out.mkdir()
    commands = cli_commands(run.workload, cycle_seed, out)
    timed = []
    with tracing.active(tracer):
        for k, cmd in enumerate(commands):
            if run.trace:
                wall, rc, stdout = run_command_inprocess(cmd, tracer)
            else:
                wall, rc, rss, stdout = run_command_subprocess(cmd, out / f"log{k}")
                run.rss_mb = max(run.rss_mb, rss)
            timed.append((cmd, wall, rc, stdout))
    record = {"seed": cycle_seed, "traced": tracer is not None, "files": {}}
    for cmd, wall, rc, stdout in timed:
        failures, digests = check_command(cmd, rc, stdout, out)
        record["files"].update(digests)
        if cmd.check and tracer is None:  # a traced cycle repeats its untraced twin's seed
            run.check_commands += 1
            run.alarms += rc == 4
        run.record(cmd.label if tracer is None else f"{cmd.label}.traced", wall, failures)
    record["files_written"], record["bytes_written"] = dir_size(out)
    record["wall_s"] = sum(w for _, w, _, _ in timed)
    record["shots"] = sum(cmd.shots for cmd in commands)
    run.cycles.append(record)
    shutil.rmtree(out)
    return record["wall_s"]


def timed_point(point_seed: int, index: int, tracer: tracing.Tracer | None = None) -> tuple:
    """One checked lib_analysis point: wall s, failures, digests, shots, max RSS MB."""
    rows, failures = [], []
    with tracing.active(tracer):
        start = time.perf_counter()
        try:
            if tracer is None:
                rows = lib_point(point_seed, index)
            else:
                rows = tracer.call("bench", "point", lib_point, point_seed, index)
        except Exception as exc:  # a library error is a failed operation, not a crash
            failures.append(f"lib point {index}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
    found, digests = check_lib_point(rows)
    failures += found
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return wall, failures, digests, sum(r[0].shots for r in rows), rss


def lib_cycle(run: Run, index: int, tracer: tracing.Tracer | None) -> float:
    point_seed = derive_seed(run.workload, run.seed, index)
    if not run.trace:
        wall, failures, digests, shots, rss = remote_point(point_seed, index)
    else:
        wall, failures, digests, shots, rss = timed_point(point_seed, index, tracer)
    run.rss_mb = max(run.rss_mb, rss)
    run.record("point" if tracer is None else "point.traced", wall, failures)
    run.cycles.append({
        "seed": point_seed, "traced": tracer is not None, "files": digests, "wall_s": wall,
        "shots": shots, "files_written": 0, "bytes_written": 0,
    })
    return wall


def remote_point(point_seed: int, index: int) -> tuple:
    """:func:`timed_point` in a fresh process, as every CLI command runs in one.

    On a shared host one long-lived process tends to keep one speed for tens
    of seconds. Timing all points of a run in the benchmark process made
    lib_analysis the least steady workload.
    """
    env = {**CHILD_ENV, "PYTHONPATH": os.pathsep.join((str(BENCH), str(SRC)))}
    code = f"import json, workloads; print(json.dumps(workloads.timed_point({point_seed}, {index})))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"lib_analysis point process failed: {proc.stderr.strip()}")
    return tuple(json.loads(proc.stdout))


def worker_check(run: Run) -> None:
    """Untimed: rerun at 1 and 2 workers and compare data digests.

    The rerun uses enough shots for several sampler chunks, and an output that
    depends on shot order: per-shot columns, or the ``joint`` panel CSVs.
    """
    seed = derive_seed(run.workload, run.seed, "workers")
    if run.workload == "lib_analysis":
        cfg = montecarlo.SequenceConfig(mode="qnd", kappa_nominal=0.62, shots=WORKER_CHECK_SHOTS, seed=seed)
        digests = [{"columns": column_digest(montecarlo.run_sequence(cfg, workers=w))} for w in (1, 2)]
        failures = []
    else:
        digests, failures = [], []
        for workers in (1, 2):
            out = run.work / f"workers{workers}"
            out.mkdir()
            extra = ["--shots", str(WORKER_CHECK_SHOTS), "--workers", str(workers)]
            cmd = _figure("joint", FIG3, seed, out, WORKER_CHECK_SHOTS, extra)
            _, rc, _, stdout = run_command_subprocess(cmd, out / "log")
            found, files = check_command(cmd, rc, stdout, out)
            failures += found
            digests.append(files)
            shutil.rmtree(out)
    if not digests[0] or digests[0] != digests[1]:
        failures.append(f"{run.workload}: data digests differ between 1 and 2 workers")
    run.count(failures)


def check_child_import() -> None:
    """Children must import qndsim from this checkout too; this also fills the bytecode cache."""
    proc = subprocess.run(
        [sys.executable, "-c", "import qndsim; print(qndsim.__file__)"],
        env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
    )
    path = proc.stdout.strip()
    if proc.returncode != 0 or not Path(path).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: a child interpreter imports qndsim from {path or proc.stderr.strip()!r}, not {SRC}")


def measure_setup() -> list[float]:
    """Fresh-interpreter ``import qndsim`` wall times."""
    return [spawn(["-c", "import qndsim"])[0] for _ in range(SETUP_RUNS)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds, trace)
    cycle = lib_cycle if workload == "lib_analysis" else cli_cycle
    run.write_specs()
    try:
        setup = [] if trace else measure_setup()
        run.tracer = tracing.Tracer() if trace else None
        timed, index = 0.0, 0
        walls = {False: [], True: []}
        while timed < seconds or index == 0:
            if trace:
                # pairs at the same seed: untraced then traced, for the overhead ratio
                walls[False].append(cycle(run, index, None))
                run.tracer.op = index
                walls[True].append(cycle(run, index, run.tracer))
                timed += walls[False][-1] + walls[True][-1]
            else:
                timed += cycle(run, index, None)
            index += 1
        worker_check(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    metrics = trace_metrics(run, walls) if trace else end_to_end_metrics(run, setup)
    return run, metrics


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _m(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(run: Run, setup: list[float]) -> dict:
    walls = [c["wall_s"] for c in run.cycles]
    run.samples["setup"] = setup
    # shots per cycle is fixed, so throughput only restates cycle_s: reported, not gated
    run.detail["shots_per_s"] = _m(sum(c["shots"] for c in run.cycles) / sum(walls), "1/s")
    return {
        "setup_s": _m(statistics.median(setup), "s"),
        "cycle_s": _m(statistics.median(walls), "s"),
        "peak_rss_mb": _m(run.rss_mb, "MB"),
    }


def trace_metrics(run: Run, walls: dict) -> dict:
    """Per-layer metrics: medians over the traced cycles of per-cycle totals."""
    by_op: dict[int, list] = {}
    for span in run.tracer.spans:
        by_op.setdefault(span.op, []).append(span)
    traced = [c for c in run.cycles if c["traced"]]
    cycles = [(rec, tracing.layer_totals(by_op[i])) for i, rec in enumerate(traced)]

    def layer(name, key):
        return lambda rec, t: t["layers"][name][key]

    def call(name):
        layer_name = name.partition(".")[0]
        return lambda rec, t: t["layers"][layer_name]["by_name"].get(name, 0.0)

    def ratio(num, den):
        return lambda rec, t: num(rec, t) / den(rec, t) if den(rec, t) else 0.0

    def count(key):
        return lambda rec, t: t[key] if key in t else rec[key]

    spec = {
        "harness.cmd_s": (layer("harness", "busy_s"), "s"),
        "harness.self_s": (layer("harness", "self_s"), "s"),
        "harness.self_share": (ratio(layer("harness", "self_s"), layer("harness", "busy_s")), "ratio"),
        "harness.bytes_written": (count("bytes_written"), "bytes"),
        "harness.files_written": (count("files_written"), "count"),
        "montecarlo.runs": (count("runs"), "count"),
        "montecarlo.shots": (count("shots"), "count"),
        "montecarlo.busy_s": (layer("montecarlo", "busy_s"), "s"),
        "montecarlo.shots_per_busy_s": (ratio(count("shots"), layer("montecarlo", "busy_s")), "1/s"),
        "montecarlo.cpu_per_wall": (ratio(layer("montecarlo", "cpu_s"), layer("montecarlo", "busy_s")), "ratio"),
        "stats.variances_s": (call("stats.variances"), "s"),
        "stats.binned_s": (call("stats.binned_conditional"), "s"),
        "stats.bootstrap_s": (call("stats.bootstrap_ci"), "s"),
        "stats.bootstrap_resamples": (count("resamples"), "count"),
        "gaussian_core.calls": (layer("gaussian_core", "calls"), "count"),
        "gaussian_core.busy_s": (layer("gaussian_core", "busy_s"), "s"),
        "physics.calls": (layer("physics", "calls"), "count"),
        "physics.busy_s": (layer("physics", "busy_s"), "s"),
    }
    metrics = {
        name: _m(statistics.median(fn(rec, t) for rec, t in cycles), unit)
        for name, (fn, unit) in spec.items()
    }
    metrics["harness.check_alarms"] = _m(run.alarms, "count")
    metrics["trace.overhead_frac"] = _m(sum(walls[True]) / sum(walls[False]) - 1.0, "ratio")

    # Report-only detail: self time of every layer, and harness time per command.
    for name in tracing.LAYERS[:-1]:  # harness.self_s is a metric already
        run.detail[f"{name}.self_s"] = _m(statistics.median(t["layers"][name]["self_s"] for _, t in cycles), "s")
    own = tracing.self_times(run.tracer.spans)
    for span in run.tracer.spans:
        if span.name == "harness.main":
            label = span.attrs["command"]
            run.samples.setdefault(f"harness.{label}.self", []).append(own[span.id])
    return metrics


# ---------------------------------------------------------------------------
# Provenance and reporting
# ---------------------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a plain checkout: src_sha256 identifies the code instead
    src = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    import qndsim

    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "qndsim_file": qndsim.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "platform": platform.platform(),
    }


def percentile_with_tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (50, 75, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(values, n=100, method="inclusive")[q - 1])
    return best


def report(run: Run, metrics: dict) -> list[str]:
    lines = [
        f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  cycles {len(run.cycles)}  "
        f"attempted {run.attempted}  failed {run.failed}  "
        f"fail_frac {run.failed / run.attempted:.4g}  "
        f"check_alarms {run.alarms}/{run.check_commands}"
    ]
    for label, values in sorted(run.samples.items()):
        tail = percentile_with_tail(values)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile with 10 samples beyond"
        lines.append(
            f"  {label + '_s':<16} median {statistics.median(values):.4f} s  n={len(values)}  {tail_text}"
        )
    for name, m in metrics.items():
        lines.append(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    for name, m in run.detail.items():
        lines.append(f"  {name:<30} {m['value']:.6g} {m['unit']}  (report only)")
    for failure in run.failures[:20]:
        lines.append(f"  FAILED {failure}")
    return lines


def save(run: Run, metrics: dict, prov: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    payload = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "provenance": prov,
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "check_alarms": run.alarms,
        "check_commands": run.check_commands,
        "failures": run.failures,
        "samples": run.samples,
        "detail": run.detail,
        "cycles": run.cycles,
        "spans": run.tracer.to_json() if run.tracer else [],
    }
    path.write_text(json.dumps(payload, default=str) + "\n")
    return path


def result_line(run: Run, metrics: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
