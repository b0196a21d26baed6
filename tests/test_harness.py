"""Tests for the CLI and the figure commands: specs, written files and manifests, exit codes."""

import errno
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qndsim
from qndsim import figures
from qndsim.figures import (
    CheckFailure,
    ExperimentSpec,
    SpecError,
    cmd_conditional_sweep,
    cmd_joint,
    cmd_variance_sweep,
    load_spec,
    spec_from_mapping,
)
from qndsim.harness import cmd_kappa, main
from qndsim.montecarlo import SequenceConfig, run_group, run_sequence, sweep_seed
from qndsim.physics import SheetError
from qndsim.stats import bootstrap_ci

SEED = 141421356
BIG = 10**400  # an int beyond the float range

# --check messages of feed_lossy_runs' eta=0.5 runs against the lossless spec at kappa 0.62
LOSSY_FAILURES = {
    "variance_sweep": "; ".join(
        f"{mode} kappa=0.62: {name}={value} vs {target} exceeds 3 SE ({se})"
        for mode, name, value, target, se in [
            ("qnd", "sigma1", "0.5413", "0.6922", "0.0150"),
            ("qnd", "sigma2", "0.5342", "0.6922", "0.0148"),
            ("qnd", "sigma_plus", "0.5886", "0.8844", "0.0163"),
            ("reinit", "sigma1", "0.5413", "0.6922", "0.0150"),
            ("reinit", "sigma2", "0.5374", "0.6922", "0.0149"),
            ("reinit", "sigma_plus", "0.5469", "0.6922", "0.0152"),
            ("reinit", "sigma_minus", "0.5318", "0.6922", "0.0148"),
        ]
    ),
    "conditional_sweep": "kappa=0.62: sigma2 excess=0.0342 vs 0.1922 exceeds 3 SE (0.0148); "
    "kappa=0.62: conditional excess=0.0294 vs 0.1388 exceeds 3 SE (0.0144)",
}


# (sequence keys, top-level keys, error message) of a spec that is rejected
NAME_ERROR = "name must be a non-empty string without '/' or '\\', got"
MISTYPED_SPEC_VALUES = [
    pytest.param({"shots": 2600.5}, {}, "shots must be an integer, got 2600.5", id="float_shots"),
    pytest.param({"seed": 1.5}, {}, "seed must be an integer, got 1.5", id="float_seed"),
    pytest.param({"shots": True}, {}, "shots must be an integer, got True", id="bool_shots"),
    pytest.param({"atom_fluctuation": 1}, {}, "atom_fluctuation must be a boolean, got 1",
                 id="int_flag"),
    pytest.param({"kappa_nominal": "0.62"}, {},
                 "kappa_nominal must be a finite number, got '0.62'", id="str_kappa"),
    pytest.param({"eta": math.nan}, {}, "eta must be a finite number, got nan", id="nan_eta"),
    pytest.param({"spin_rel_std": math.inf}, {}, "spin_rel_std must be a finite number, got inf",
                 id="inf_spread"),
    pytest.param({}, {"kappa_grid": ["0.3"]},
                 "kappa_grid entries must be finite numbers, got '0.3'", id="str_grid"),
    pytest.param({}, {"kappa_grid": [0.3, math.nan]},
                 "kappa_grid entries must be finite numbers, got nan", id="nan_grid"),
    pytest.param({}, {"kappa_grid": None, "physics_sheet": "yb171", "photon_grid": [1e6, False]},
                 "photon_grid entries must be finite numbers, got False", id="bool_photons"),
    pytest.param({}, {"kappa_grid": "abc"},
                 "kappa_grid must be a list of finite numbers, got 'abc'", id="string_grid"),
    pytest.param({}, {"kappa_grid": {"a": 1}},
                 "kappa_grid must be a list of finite numbers, got {'a': 1}", id="object_grid"),
    pytest.param({}, {"kappa_grid": 3}, "kappa_grid must be a list of finite numbers, got 3",
                 id="scalar_grid"),
    pytest.param({}, {"kappa_grid": None, "physics_sheet": "yb171", "photon_grid": 3.2e6},
                 "photon_grid must be a list of finite numbers, got 3200000.0",
                 id="scalar_photons"),
    pytest.param({"kappa_nominal": BIG}, {}, f"kappa_nominal must be a finite number, got {BIG}",
                 id="huge_kappa"),
    pytest.param({}, {"kappa_grid": [0.3, BIG]},
                 f"kappa_grid entries must be finite numbers, got {BIG}", id="huge_grid"),
    pytest.param({}, {"kappa_grid": []}, "kappa_grid must be non-empty", id="empty_grid"),
    pytest.param({}, {"kappa_grid": None, "physics_sheet": "yb171", "photon_grid": []},
                 "photon_grid must be non-empty", id="empty_photons"),
    pytest.param({}, {"kappa_grid": None, "physics_sheet": "yb171", "photon_grid": [1e6, -5]},
                 "photon_grid entries must be non-negative, got -5", id="negative_photons"),
    pytest.param({}, {"kappa_grid": None, "physics_sheet": 5, "photon_grid": [1e6]},
                 "physics_sheet must be a string or null, got 5", id="int_sheet"),
    pytest.param({}, {"kappa_grid": None, "physics_sheet": ["yb171"], "photon_grid": [1e6]},
                 "physics_sheet must be a string or null, got ['yb171']", id="list_sheet"),
    pytest.param({}, {"name": None}, f"{NAME_ERROR} None", id="null_name"),
    pytest.param({}, {"name": "../escaped"}, f"{NAME_ERROR} '../escaped'", id="escaping_name"),
    pytest.param({}, {"name": "a/b"}, f"{NAME_ERROR} 'a/b'", id="nested_name"),
    pytest.param({}, {"name": "a\\b"}, f"{NAME_ERROR} 'a\\\\b'", id="backslash_name"),
    pytest.param({}, {"outputs": None}, "outputs must be a string, got None", id="null_outputs"),
]

def make_spec(tmp_path, **overrides):
    raw = {
        "name": "t",
        "sequence": {"mode": "qnd", "kappa_nominal": 0.62, "shots": 2600, "seed": SEED},
        "kappa_grid": [0.0, 0.3, 0.62],
        "outputs": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return spec_from_mapping(raw)


def feed_lossy_runs(monkeypatch, eta=0.5):
    """Make the commands sample at ``eta`` whatever the spec says."""

    def lossy(configs, workers=1):
        return run_group([replace(config, eta=eta) for config in configs], workers=workers)

    monkeypatch.setattr(figures, "run_group", lossy)


def write_spec(tmp_path, **overrides) -> Path:
    raw = {
        "name": "t",
        "sequence": {"mode": "qnd", "kappa_nominal": 0.62, "shots": 2600, "seed": SEED},
        "kappa_grid": [0.0, 0.3, 0.62],
        "outputs": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    return path


class TestKappaCommand:
    @pytest.mark.parametrize(
        "extra, stdout",
        [
            ([], "sheet    yb171  (photons = 3200000)\n"
                 "kappa    -0.635684603\n"
                 "phi      -0.146518062 rad\n"
                 "epsilon  0.093\n"
                 "check    kappa from phi = -0.635684603 (|diff| = 0)\n"),
            (["--json"], '{\n "sheet": "yb171",\n "photons": 3200000.0,\n'
                         ' "kappa": -0.635684603,\n "phi_rad": -0.146518062,\n'
                         ' "epsilon": 0.093,\n "kappa_from_phi": -0.635684603,\n'
                         ' "phi_consistency_abs": 0.0\n}\n'),
        ],
        ids=["text", "json"],
    )
    def test_yb171_stdout_is_pinned(self, extra, stdout):
        src = str(Path(qndsim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qndsim.harness", "kappa", "--sheet", "yb171", *extra],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    def test_operating_point(self, capsys):
        report = cmd_kappa("yb171", photons=3.2e6)
        assert abs(abs(report["kappa"]) - 0.62) <= 0.062
        assert abs(report["phi_rad"]) == pytest.approx(0.143, rel=0.05)
        assert report["epsilon"] == 9.3e-2
        assert report["phi_consistency_abs"] <= 1e-9
        out = capsys.readouterr().out
        assert "kappa" in out and "epsilon" in out

    def test_zero_photons(self, capsys):
        report = cmd_kappa("yb171", photons=0.0, as_json=True)
        assert report["kappa"] == 0.0 and report["phi_rad"] == 0.0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["kappa"] == 0.0

    def test_photon_scaling(self):
        base = cmd_kappa("yb171", photons=1e6)["kappa"]
        assert cmd_kappa("yb171", photons=4e6)["kappa"] == 2 * base

    @pytest.mark.parametrize(
        "sheet, extra, message",
        [
            ({"gamma_2pi_mhz": math.nan}, [], "key 'gamma_2pi_mhz' must be a finite number, got nan"),
            ({}, ["--photons", "inf"], "photons must be a finite non-negative number, got inf"),
            # finite sheet values whose converted or derived values are not
            ({"gamma_2pi_mhz": 1e305}, [],
             "key 'gamma_2pi_mhz' is out of range after unit conversion, got 1e+305"),
            ({"waist_um": 1e300}, [], "derived kappa is not finite"),
            ({"collective_spin": 1e300, "photons": 1e-300}, [], "derived phi is not finite"),
        ],
        ids=["nan_sheet_value", "inf_photons_flag", "huge_linewidth", "overflowing_waist",
             "overflowing_phi"],
    )
    def test_non_finite_inputs_exit_2(self, tmp_path, capsys, sheet, extra, message):
        raw = json.loads(resources.files("qndsim").joinpath("data/yb171.json").read_text())
        path = tmp_path / "sheet.json"
        path.write_text(json.dumps({**raw, **sheet}))
        assert main(["kappa", "--sheet", str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestSpecs:
    def test_overrides(self, tmp_path):
        path = write_spec(tmp_path)
        spec = load_spec(path, seed=7, shots=100, out=str(tmp_path / "elsewhere"))
        assert spec.sequence.seed == 7
        assert spec.sequence.shots == 100
        assert spec.outputs.endswith("elsewhere")

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="unknown key"):
            make_spec(tmp_path, extra=1)
        with pytest.raises(SpecError, match="unknown sequence key"):
            spec_from_mapping({"name": "x", "sequence": {"mode": "qnd", "kappa": 1}})

    def test_grids_mutually_exclusive(self, tmp_path):
        with pytest.raises(SpecError, match="mutually exclusive"):
            make_spec(tmp_path, photon_grid=[1e6])

    def test_photon_grid_needs_sheet(self, tmp_path):
        with pytest.raises(SpecError, match="physics_sheet"):
            make_spec(tmp_path, kappa_grid=None, photon_grid=[1e6])

    def test_photon_grid_resolution(self, tmp_path):
        spec = make_spec(
            tmp_path, kappa_grid=None, photon_grid=[0.0, 3.2e6], physics_sheet="yb171"
        )
        grid = spec.kappas
        assert grid[0] == 0.0
        assert abs(grid[1]) == pytest.approx(0.6357, abs=1e-3)

    def test_default_grid(self, tmp_path):
        spec = make_spec(tmp_path, kappa_grid=None)
        assert spec.kappas == (0.0, 0.15, 0.3, 0.45, 0.62)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  ]")
        with pytest.raises(SpecError, match="line 2"):
            load_spec(path)

    def test_utf16_spec_loads(self, tmp_path):
        # a file is read as bytes, so its encoding is JSON's, not the locale's
        path = write_spec(tmp_path, name="fig3 ¹⁷¹Yb")
        path.write_bytes(path.read_text(encoding="utf-8").encode("utf-16"))
        assert load_spec(path).name == "fig3 ¹⁷¹Yb"

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="name"):
            make_spec(tmp_path, name="")


@pytest.fixture(scope="module")
def joint_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("joint")
    spec = make_spec(tmp)
    return cmd_joint(spec), spec


class TestJoint:
    def test_panel_files_written(self, joint_run):
        manifest, spec = joint_run
        assert manifest["figure"] == "joint_y"
        names = list(manifest["files"])
        assert names == ["t_joint_a.csv", "t_joint_b.csv", "t_joint_c.csv",
                         "t_joint_summary.json"]
        for name in names:
            assert (Path(spec.outputs) / name).exists()

    def test_panel_statistics(self, joint_run):
        _, spec = joint_run
        summary = json.loads((Path(spec.outputs) / "t_joint_summary.json").read_text())
        n = spec.sequence.shots
        se_r = 3.0 / math.sqrt(n)
        a, b, c = (summary["panels"][k] for k in "abc")
        # (a) no atoms: isotropic shot noise
        assert abs(a["pearson_r"]) <= se_r
        assert abs(a["sigma1"] - 0.5) <= 3 * a["se_sigma1"]
        assert abs(a["sigma2"] - 0.5) <= 3 * a["se_sigma2"]
        # (b) coupled: positive correlation at the predicted level
        target_r = (0.62**2 / 2) / ((1 + 0.62**2) / 2)
        assert abs(b["pearson_r"] - target_r) <= se_r
        assert abs(b["sigma1"] - 0.6922) <= 3 * b["se_sigma1"]
        # (c) z basis: indistinguishable from (a)
        assert abs(c["pearson_r"] - a["pearson_r"]) <= math.sqrt(2) * se_r
        for name in ("sigma1", "sigma2"):
            se = math.hypot(a[f"se_{name}"], c[f"se_{name}"])
            assert abs(c[name] - a[name]) <= 3 * se

    def test_scatter_rows(self, joint_run):
        _, spec = joint_run
        lines = (Path(spec.outputs) / "t_joint_a.csv").read_text().splitlines()
        assert lines[0] == "s1,s2"
        assert len(lines) == spec.sequence.shots + 1

    def test_holds_one_run_at_a_time(self, tmp_path):
        # each panel's run is dropped before the next panel is sampled; the
        # peak is one run's s1 and s2, the variances' scratch column and the
        # writer's block
        # (100k shots: several chunks, and the traced CSV formatting stays short)
        spec = make_spec(tmp_path)
        spec = replace(spec, sequence=replace(spec.sequence, shots=100_000))
        column_bytes = 8 * spec.sequence.shots
        gc.collect()
        tracemalloc.start()
        try:
            cmd_joint(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * column_bytes


class TestVarianceSweep:
    def test_check_passes_and_files_match_theory(self, tmp_path):
        spec = make_spec(tmp_path)
        manifest = cmd_variance_sweep(spec, check=True)
        assert manifest["figure"] == "variance_sweep"
        qnd_csv = (Path(spec.outputs) / "t_variance_qnd.csv").read_text().splitlines()
        assert qnd_csv[0].startswith("kappa,sigma1")
        rows = [list(map(float, line.split(","))) for line in qnd_csv[1:]]
        for kappa, s1, s2, sp, sm, e1, e2, ep, em in rows:
            assert abs(s1 - (1 + kappa**2) / 2) <= 3 * e1
            assert abs(sp - (1 + 2 * kappa**2) / 2) <= 3 * ep
            assert abs(sm - 0.5) <= 3 * em

    @pytest.mark.parametrize("workers", [1, 2])
    def test_holds_one_point_at_a_time(self, tmp_path, workers):
        # a point's runs share one s1 and are dropped before the next point
        # is sampled: the peak is s1, the two modes' s2 and the variances'
        # scratch column, or those three columns and the sampler's chunks
        # in flight (400k lossy shots transform 7 of the 8 slots)
        spec = make_spec(tmp_path, kappa_grid=[0.3, 0.62])
        spec = replace(spec, sequence=replace(
            spec.sequence, shots=400_000, eta=0.8, atom_fluctuation=True, spin_rel_std=0.05
        ))
        column_bytes = 8 * spec.sequence.shots
        gc.collect()
        tracemalloc.start()
        try:
            cmd_variance_sweep(spec, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * column_bytes

    def test_modes_share_each_points_s1(self, tmp_path):
        # common random numbers: point i of both modes runs on sweep_seed(seed, i)
        spec = make_spec(tmp_path)
        cmd_variance_sweep(spec)
        qnd, reinit = (
            np.loadtxt(Path(spec.outputs) / f"t_variance_{mode}.csv", delimiter=",", skiprows=1)
            for mode in ("qnd", "reinit")
        )
        assert np.array_equal(qnd[:, [0, 1, 5]], reinit[:, [0, 1, 5]])  # kappa, sigma1, se_sigma1
        assert not np.array_equal(qnd[:, 2], reinit[:, 2])

    def test_single_mode_flag(self, tmp_path):
        spec = make_spec(tmp_path)
        manifest = cmd_variance_sweep(spec, mode="reinit")
        assert list(manifest["files"]) == ["t_variance_reinit.csv", "t_variance_theory.csv"]

    def test_theory_file_is_seed_free(self, tmp_path):
        spec_a = make_spec(tmp_path, outputs=str(tmp_path / "a"))
        spec_b = make_spec(tmp_path, outputs=str(tmp_path / "b"),
                           sequence={"mode": "qnd", "kappa_nominal": 0.62,
                                     "shots": 2600, "seed": 999})
        cmd_variance_sweep(spec_a)
        cmd_variance_sweep(spec_b)
        a, b = tmp_path / "a", tmp_path / "b"
        theory = "t_variance_theory.csv"
        assert (a / theory).read_bytes() == (b / theory).read_bytes()
        data = "t_variance_qnd.csv"
        assert (a / data).read_bytes() != (b / data).read_bytes()

    @pytest.mark.parametrize(
        "command, figure_id",
        [(cmd_variance_sweep, "variance_sweep"), (cmd_conditional_sweep, "conditional_sweep")],
        ids=["sweep", "conditional"],
    )
    def test_lossy_run_fails_lossless_check(self, tmp_path, monkeypatch, command, figure_id):
        # --check compares to the spec's own (lossless) model, not the data's;
        # the files and the manifest are written before the failure is raised
        feed_lossy_runs(monkeypatch)
        spec = make_spec(tmp_path, kappa_grid=[0.62])
        with pytest.raises(CheckFailure) as failure:
            command(spec, check=True)
        assert str(failure.value) == LOSSY_FAILURES[figure_id]
        assert (Path(spec.outputs) / f"t_{figure_id}_manifest.json").exists()

    @pytest.mark.parametrize("photons", [[1.6e6, 3.2e6], [0.0, 1.6e6, 3.2e6]])
    def test_theory_spans_negative_couplings(self, tmp_path, photons):
        # the yb171 couplings are negative: the curves run from 0 to the
        # grid value of largest magnitude
        spec = make_spec(
            tmp_path, kappa_grid=None, photon_grid=photons, physics_sheet="yb171",
            sequence={"mode": "qnd", "kappa_nominal": 0.62, "shots": 300, "seed": SEED},
        )
        far = spec.kappas[-1]
        assert far == pytest.approx(-0.6357, abs=1e-3)
        cmd_variance_sweep(spec, mode="qnd")
        cmd_conditional_sweep(spec)
        for stem in ("variance", "conditional"):
            lines = (Path(spec.outputs) / f"t_{stem}_theory.csv").read_text().splitlines()
            kappas = [float(line.split(",")[0]) for line in lines[1:]]
            assert len(kappas) == 121
            assert kappas[0] == 0.0
            assert kappas[-1] == float(f"{far:.9g}")

    def test_manifest_lists_every_file_once(self, tmp_path):
        # the manifest lists exactly the files in the output directory, itself aside
        spec = make_spec(tmp_path)
        manifest = cmd_variance_sweep(spec)
        manifest_path = Path(spec.outputs) / "t_variance_sweep_manifest.json"
        emitted = sorted(p.name for p in Path(spec.outputs).iterdir() if p != manifest_path)
        assert sorted(manifest["files"]) == emitted
        stored = json.loads(manifest_path.read_text())
        assert stored["files"] == manifest["files"]
        assert stored["seed"] == SEED
        assert stored["spec"]["sequence"]["kappa_nominal"] == 0.62


class TestCheckBand:
    def test_non_finite_points_fail(self):
        # nan compares False, so "outside the band" must be the negated "inside"
        points = [
            ("nan_value", math.nan, 0.01, 0.5),
            ("inf_value", math.inf, 0.01, 0.5),
            ("nan_se", 0.5, math.nan, 0.5),
            ("inf_se", math.inf, math.inf, 0.5),
            ("nan_target", 0.5, 0.01, math.nan),
            ("inside", 0.52, 0.01, 0.5),
        ]
        failures = figures._band_failures("kappa=1", points)
        assert [f.split("=")[1] for f in failures] == [
            "1: nan_value", "1: inf_value", "1: nan_se", "1: inf_se", "1: nan_target"
        ]


class TestConditionalSweep:
    def test_separation_and_squeezing(self, tmp_path):
        spec = make_spec(tmp_path)
        cmd_conditional_sweep(spec, check=True)
        rows = {}
        lines = (Path(spec.outputs) / "t_conditional.csv").read_text().splitlines()
        for line in lines[1:]:
            vals = list(map(float, line.split(",")))
            rows[vals[0]] = vals
        _, s2x, condx, db, se2, sec = rows[0.62]
        assert condx == pytest.approx(0.1388, abs=3 * sec)
        assert condx < s2x  # conditioning beats the raw variance
        # significance of the gap: the two estimators share the same shots, so
        # judge it by the difference's own bootstrap error, not se_cond
        point = run_sequence(
            replace(spec.sequence, kappa_nominal=0.62, seed=sweep_seed(SEED, 2))
        )
        lo, hi = bootstrap_ci(point, "conditioning_gain", resamples=500)
        assert (s2x - condx) > 3 * (hi - lo) / 2
        assert 0.3 <= db <= 4.2
        # zero-coupling row: both excesses consistent with zero, squeezing undefined
        _, s2x0, condx0, db0, se20, sec0 = rows[0.0]
        assert abs(s2x0) <= 3 * se20
        assert abs(condx0) <= 3 * sec0
        assert math.isnan(db0)

    def test_theory_columns(self, tmp_path):
        spec = make_spec(tmp_path)
        cmd_conditional_sweep(spec)
        lines = (Path(spec.outputs) / "t_conditional_theory.csv").read_text().splitlines()
        assert lines[0] == "kappa,total_excess,conditional_excess,squeezing_db_ideal"
        last = list(map(float, lines[-1].split(",")))
        kappa = last[0]
        assert last[1] == pytest.approx(kappa**2 / 2, rel=1e-8)
        assert last[2] == pytest.approx(kappa**2 / (2 * (1 + kappa**2)), rel=1e-8)

    def test_squeezing_under_loss(self, tmp_path):
        # loss scales both excesses by eta^2, so their ratio reads the
        # model's 10*log10(1 + eta^2*kappa^2): 0.75 dB at eta 0.7, not the
        # 3.8 dB of a normalisation by the nominal kappa^2/2
        sequence = {"mode": "qnd", "kappa_nominal": 0.62, "eta": 0.7, "seed": SEED}
        path = write_spec(tmp_path, sequence=sequence, kappa_grid=[0.0, 0.62])
        assert main(["conditional", "--spec", str(path), "--shots", "200000"]) == 0
        model = 10 * math.log10(1 + 0.7**2 * 0.62**2)
        assert model == pytest.approx(0.7495, abs=1e-4)
        out = tmp_path / "out"
        rows = np.loadtxt(out / "t_conditional.csv", delimiter=",", skiprows=1)
        assert math.isnan(rows[0, 3])
        # the ratio's spread at 2*10^5 shots is about 0.03 dB
        assert rows[1, 3] == pytest.approx(model, abs=0.15)
        theory = np.loadtxt(out / "t_conditional_theory.csv", delimiter=",", skiprows=1)
        assert math.isnan(theory[0, 3])
        assert theory[-1, 3] == pytest.approx(model, abs=1e-8)


class TestDeterminismAndBundles:
    def test_rerun_byte_identical(self, tmp_path):
        spec_a = make_spec(tmp_path, outputs=str(tmp_path / "r1"))
        spec_b = make_spec(tmp_path, outputs=str(tmp_path / "r2"))
        manifest = cmd_variance_sweep(spec_a)
        cmd_variance_sweep(spec_b)
        for name in manifest["files"]:
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_manifest_spec_reruns_byte_identical(self, tmp_path):
        # provenance round trip: rebuild the spec from the manifest and re-run
        spec = make_spec(tmp_path, outputs=str(tmp_path / "orig"),
                         sequence={"mode": "qnd", "kappa_nominal": 0.6356846032661904,
                                   "shots": 300, "seed": SEED},
                         kappa_grid=[0.6356846032661904])
        cmd_conditional_sweep(spec)
        manifest = json.loads(
            (tmp_path / "orig" / "t_conditional_sweep_manifest.json").read_text()
        )
        respec = spec_from_mapping({**manifest["spec"], "outputs": str(tmp_path / "redo")})
        cmd_conditional_sweep(respec)
        data = "t_conditional.csv"
        assert (tmp_path / "redo" / data).read_bytes() == (tmp_path / "orig" / data).read_bytes()

    @pytest.mark.parametrize("command", [cmd_joint, cmd_variance_sweep, cmd_conditional_sweep])
    def test_manifest_digests_match_files_on_disk(self, tmp_path, command):
        # the digests are taken from the bytes as written, never re-read
        spec = make_spec(tmp_path, sequence={"mode": "qnd", "kappa_nominal": 0.62,
                                             "shots": 300, "seed": SEED})
        manifest = command(spec)
        outdir = Path(spec.outputs)
        manifest_path = outdir / f"t_{manifest['figure']}_manifest.json"
        stored = json.loads(manifest_path.read_text())
        assert stored["files"] == manifest["files"]
        emitted = (p.name for p in outdir.iterdir() if p != manifest_path)
        assert sorted(stored["files"]) == sorted(emitted)
        for name, digest in stored["files"].items():
            assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest

    def test_workers_byte_identical(self, tmp_path):
        spec_a = make_spec(tmp_path, outputs=str(tmp_path / "w1"))
        spec_b = make_spec(tmp_path, outputs=str(tmp_path / "w4"))
        cmd_conditional_sweep(spec_a, workers=1)
        cmd_conditional_sweep(spec_b, workers=4)
        data = "t_conditional.csv"
        assert (tmp_path / "w1" / data).read_bytes() == (tmp_path / "w4" / data).read_bytes()


class TestCliEntry:
    def test_sweep_via_main(self, tmp_path):
        path = write_spec(tmp_path)
        rc = main(["sweep", "--spec", str(path), "--check"])
        assert rc == 0
        assert (tmp_path / "out" / "t_variance_qnd.csv").exists()

    def test_conditional_via_main(self, tmp_path):
        path = write_spec(tmp_path)
        assert main(["conditional", "--spec", str(path), "--check"]) == 0
        assert (tmp_path / "out" / "t_conditional.csv").exists()
        assert main(["joint", "--spec", str(path)]) == 0

    def test_seed_override_changes_data(self, tmp_path):
        path = write_spec(tmp_path)
        assert main(["joint", "--spec", str(path), "--out", str(tmp_path / "j1")]) == 0
        assert main(["joint", "--spec", str(path), "--out", str(tmp_path / "j2"),
                     "--seed", "5"]) == 0
        a = (tmp_path / "j1" / "t_joint_b.csv").read_bytes()
        b = (tmp_path / "j2" / "t_joint_b.csv").read_bytes()
        assert a != b

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["sweep", "--spec", str(bad)]) == 2

    @pytest.mark.parametrize("sequence, grids, message", MISTYPED_SPEC_VALUES)
    def test_mistyped_spec_values_exit_2(
        self, tmp_path, monkeypatch, capsys, sequence, grids, message
    ):
        monkeypatch.chdir(tmp_path)  # a relative output directory would land here
        base = {"mode": "qnd", "kappa_nominal": 0.62, "shots": 2600, "seed": SEED}
        path = write_spec(tmp_path, sequence={**base, **sequence}, **grids)
        assert main(["sweep", "--spec", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert list(tmp_path.iterdir()) == [path]  # nothing written, inside or out

    @pytest.mark.parametrize("command", ["joint", "sweep", "conditional"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_exit_2(self, tmp_path, capsys, command, workers):
        path = write_spec(tmp_path)
        assert main([command, "--spec", str(path), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err == f"error: workers must be a positive integer, got {workers}\n"
        assert list((tmp_path / "out").glob("*")) == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["joint", "sweep", "conditional"])
    def test_overflowing_kappa_exit_2_before_sampling(self, tmp_path, monkeypatch, capsys, command):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(figures, "run_group", no_sampling)
        monkeypatch.setattr(figures, "run_sequence", no_sampling)
        sequence = {"mode": "qnd", "kappa_nominal": 1e160, "shots": 2600, "seed": SEED}
        path = write_spec(tmp_path, sequence=sequence, kappa_grid=[0.0, 1e160])
        check = [] if command == "joint" else ["--check"]
        assert main([command, "--spec", str(path), *check]) == 2
        assert capsys.readouterr().err == "error: kappa=1e+160: the model overflows float64\n"
        assert list((tmp_path / "out").glob("*")) == []
        assert not (tmp_path / "out").exists()

    def test_overflowing_qnd_theory_exit_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        # the reinit points' model is finite at 1e78 (Cov is 0), but the
        # variance figure's theory is the qnd protocol's, whose Var(s2 | s1)
        # overflows first at the 21st of the 121 theory couplings; NumPy's
        # float64 arithmetic warns there, where a Python float does not.  The
        # JSON integer 10**78, past int64, is the same coupling
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(figures, "run_group", no_sampling)
        monkeypatch.setattr(figures, "run_sequence", no_sampling)
        for end in (1e78, 10**78):
            path = write_spec(tmp_path, kappa_grid=[0, end])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["sweep", "--spec", str(path), "--mode", "reinit", "--check"]) == 2
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            err = capsys.readouterr().err
            assert err == "error: kappa=1.6666666666666667e+77: the model overflows float64\n"
            assert not (tmp_path / "out").exists()

    def test_grid_integer_past_int64_is_its_float(self, tmp_path):
        # the theory abscissa ends at the float of the grid's largest entry: a
        # Python int past int64 would make np.linspace build an object array
        files = []
        for end in (1e20, 10**20):
            out = tmp_path / type(end).__name__
            path = write_spec(tmp_path, kappa_grid=[0, end], outputs=str(out))
            assert main(["conditional", "--spec", str(path)]) == 0
            files.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert sorted(files[0]) == ["t_conditional.csv", "t_conditional_theory.csv"]
        assert files[1] == files[0]

    @pytest.mark.parametrize("command", ["joint", "sweep"])
    @pytest.mark.parametrize("key", ["name", "outputs"])
    def test_nul_byte_exit_2_before_sampling(self, tmp_path, monkeypatch, capsys, command, key):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(figures, "run_group", no_sampling)
        monkeypatch.setattr(figures, "run_sequence", no_sampling)
        monkeypatch.chdir(tmp_path)  # a relative output directory would land here
        value = {"name": "t\0x", "outputs": f"{tmp_path}/o\0ut"}[key]
        path = write_spec(tmp_path, **{key: value})
        assert main([command, "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: {key} must not hold a NUL byte, got {value!r}\n"
        assert list(tmp_path.iterdir()) == [path]  # nothing written, inside or out

    @pytest.mark.parametrize("command", ["joint", "sweep", "conditional"])
    @pytest.mark.parametrize(
        "grids",
        [{}, {"kappa_grid": None, "photon_grid": [0.0, 3.2e6]}],
        ids=["kappa_grid", "photon_grid"],
    )
    @pytest.mark.parametrize("sheet", ["missing", "malformed", "directory"])
    def test_bad_sheet_exit_2_before_sampling(
        self, tmp_path, monkeypatch, capsys, command, grids, sheet
    ):
        # a named sheet is loaded when the spec is checked, whatever its grid
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(figures, "run_group", no_sampling)
        monkeypatch.setattr(figures, "run_sequence", no_sampling)
        monkeypatch.chdir(tmp_path)  # "nope" is looked up here
        if sheet == "missing":
            name, message = "nope", "nope: no such sheet"
        elif sheet == "directory":
            name = str(tmp_path / "sheets")
            (tmp_path / "sheets").mkdir()
            message = f"{name}: not a regular file"
        else:
            name = str(tmp_path / "sheet.json")
            (tmp_path / "sheet.json").write_text("{\n  ]")
            message = f"{name}: line 2 col 3: Expecting property name enclosed in double quotes"
        path = write_spec(tmp_path, physics_sheet=name, **grids)
        before = sorted(tmp_path.iterdir())
        assert main([command, "--spec", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert sorted(tmp_path.iterdir()) == before  # nothing written, inside or out

    @pytest.mark.parametrize("command", ["joint", "sweep", "conditional"])
    def test_non_finite_coupling_exit_2_before_sampling(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # a photon grid is resolved into couplings when the spec is checked
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(figures, "run_group", no_sampling)
        monkeypatch.setattr(figures, "run_sequence", no_sampling)
        path = write_spec(tmp_path, kappa_grid=None, physics_sheet="yb171",
                          photon_grid=[0.0, 1e308])
        assert main([command, "--spec", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: derived kappa is not finite (-inf): a sheet value is out of range\n"
        )
        assert sorted(tmp_path.iterdir()) == [path]  # nothing written, inside or out

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--shots", "1", "shots must be at least 2"),
         ("--seed", "-1", "seed must be a 64-bit unsigned integer")],
        ids=["shots", "seed"],
    )
    def test_out_of_range_override_exit_2_naming_its_flag(
        self, tmp_path, capsys, flag, value, message
    ):
        path = write_spec(tmp_path)
        assert main(["joint", "--spec", str(path), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_estimator_error_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "D"
        path = write_spec(tmp_path)
        assert main(["conditional", "--spec", str(path), "--shots", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need at least three shots to condition\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, sampler",
        [("joint", "run_sequence"), ("sweep", "run_group"), ("conditional", "run_group")],
    )
    def test_memory_error_exit_2(self, tmp_path, monkeypatch, capsys, command, sampler):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(figures, sampler, out_of_memory)
        path = write_spec(tmp_path)
        assert main([command, "--spec", str(path)]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 72.8 TiB for an array\n"
        assert not (tmp_path / "out").exists()

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        path = write_spec(tmp_path, outputs=str(blocker / "nested"))
        assert main(["sweep", "--spec", str(path)]) == 3

    def test_check_failure_exit_code(self, tmp_path, monkeypatch):
        feed_lossy_runs(monkeypatch)
        path = write_spec(tmp_path, kappa_grid=[0.62])
        assert main(["sweep", "--spec", str(path), "--check"]) == 4

    @pytest.mark.parametrize(
        "settings",
        [
            {"eta": 0.8},
            {"basis": "z"},
            {"eta": 0.8, "atom_fluctuation": True, "spin_rel_std": 0.05},
        ],
        ids=["lossy", "z_basis", "lossy_spread"],
    )
    def test_check_uses_spec_configuration(self, tmp_path, settings):
        sequence = {"mode": "qnd", "kappa_nominal": 0.62, "shots": 2600, "seed": SEED}
        path = write_spec(tmp_path, sequence={**sequence, **settings})
        assert main(["sweep", "--spec", str(path), "--check"]) == 0
        assert main(["conditional", "--spec", str(path), "--check"]) == 0

    def test_kappa_subcommand(self, capsys):
        assert main(["kappa", "--sheet", "yb171", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epsilon"] == 0.093

    @pytest.mark.parametrize(
        "sheet", ["/nonexistent/dir/yb171.json", "yb171.txt", "yb171.json", "data/yb171"]
    )
    def test_mistyped_sheet_path_exit_2(self, tmp_path, monkeypatch, capsys, sheet):
        # only the bare name "yb171" falls back on the bundled sheet: a
        # directory or a suffix makes it a path, and a missing path is an error
        monkeypatch.chdir(tmp_path)
        assert main(["kappa", "--sheet", sheet]) == 2
        assert capsys.readouterr().err == f"error: {sheet}: no such sheet\n"

    def test_directory_sheet_exit_2(self, tmp_path, capsys):
        assert main(["kappa", "--sheet", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: not a regular file\n"

    @pytest.mark.parametrize("command", ["kappa", "joint"])
    def test_undecodable_file_exit_2_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        option = "--sheet" if command == "kappa" else "--spec"
        assert main([command, option, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )


class TestSpecTypes:
    def test_direct_construction_checks(self):
        seq = SequenceConfig(mode="qnd", kappa_nominal=0.3)
        with pytest.raises(SpecError):
            ExperimentSpec(name="x", sequence=seq, kappa_grid=(0.1,), photon_grid=(1.0,))

    @pytest.mark.parametrize(
        "sequence, fields, message", [row for row in MISTYPED_SPEC_VALUES if not row.values[0]]
    )
    def test_direct_construction_checks_values(self, sequence, fields, message):
        # a spec built in code is held to what a spec file is, message for message
        seq = SequenceConfig(mode="qnd", kappa_nominal=0.3)
        with pytest.raises(SpecError) as info:
            ExperimentSpec(**{"name": "x", "sequence": seq, "kappa_grid": (0.1,), **fields})
        assert str(info.value) == message

    def test_named_sheet_must_load(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seq = SequenceConfig(mode="qnd", kappa_nominal=0.3)
        with pytest.raises(SheetError, match="^nope: no such sheet$"):
            ExperimentSpec(name="x", sequence=seq, kappa_grid=(0.1,), physics_sheet="nope")
        spec = ExperimentSpec(name="x", sequence=seq, kappa_grid=(0.1,), physics_sheet="yb171")
        assert spec.kappas == (0.1,)

    def test_sweep_reads_no_sheet(self, tmp_path, monkeypatch):
        # the spec resolves its photon grid when it is checked; the sweep reads its kappas
        sequence = {"mode": "qnd", "kappa_nominal": 0.62, "shots": 300, "seed": SEED}
        spec = make_spec(tmp_path, kappa_grid=None, physics_sheet="yb171",
                         photon_grid=[0.0, 3.2e6], sequence=sequence)
        loads, load_sheet = [], figures.load_sheet

        def counted(path):
            loads.append(path)
            return load_sheet(path)

        monkeypatch.setattr(figures, "load_sheet", counted)
        cmd_variance_sweep(spec)
        assert loads == []

    def test_overrides_build_the_spec_once(self, tmp_path, monkeypatch):
        # --seed, --shots and --out go in before the spec is checked, so its
        # sheet is loaded and its photon grid resolved once
        path = write_spec(tmp_path, kappa_grid=None, physics_sheet="yb171",
                          photon_grid=[0.0, 3.2e6])
        loads, load_sheet = [], figures.load_sheet

        def counted(path):
            loads.append(path)
            return load_sheet(path)

        monkeypatch.setattr(figures, "load_sheet", counted)
        spec = load_spec(path, seed=7, shots=300, out=str(tmp_path / "elsewhere"))
        assert loads == ["yb171"]
        assert (spec.sequence.seed, spec.sequence.shots) == (7, 300)
        assert spec.outputs == str(tmp_path / "elsewhere")

    def test_grids_are_stored_as_tuples(self):
        seq = SequenceConfig(mode="qnd", kappa_nominal=0.3)
        spec = ExperimentSpec(name="x", sequence=seq, kappa_grid=[0.0, 0.3])
        assert spec.kappa_grid == (0.0, 0.3)


# tables of 1-5 columns and 1-40 rows of any float64: +-0, subnormals, normals, +-inf, nan
FLOAT_TABLES = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.tuples(*[st.floats()] * k), min_size=1, max_size=40))


class TestCsvWriter:
    """The NumPy table formatter against the per-value f-string."""

    @staticmethod
    def reference(header, rows) -> bytes:
        lines = [header] + [",".join(f"{x:.9g}" for x in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    def assert_same_bytes(self, tmp_path, rows, header="a", workers=1):
        path = tmp_path / "table.csv"
        digest = figures._write_csv(path, header, list(zip(*rows)), workers)
        written = path.read_bytes()
        assert written == self.reference(header, rows)
        assert digest == hashlib.sha256(written).hexdigest()

    def test_random_bit_patterns(self, tmp_path):
        words = np.random.default_rng(20081209).integers(0, 2**64, size=(25_000, 4),
                                                         dtype=np.uint64)
        table = words.view(np.float64)
        self.assert_same_bytes(tmp_path, table.tolist(), header="w,x,y,z")

    def test_special_values_and_subnormals(self, tmp_path):
        tiny = np.finfo(float).tiny
        mantissas = np.random.default_rng(7).integers(1, 2**52, size=2000, dtype=np.uint64)
        subnormals = mantissas.view(np.float64)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, tiny,
                    np.nextafter(tiny, 0.0), np.finfo(float).max, -np.finfo(float).max]
        values = np.concatenate([specials, subnormals, -subnormals])
        self.assert_same_bytes(tmp_path, values.reshape(-1, 1).tolist())

    def test_rounding_edges(self, tmp_path):
        # decimal ties at the 10th significant digit and their float neighbours
        edges = [999999999.5, 9.9999999995e-05, 0.99999999995, 1.00000000005,
                 123456789.5, 1e16, 9.999999995e22, 0.5, 2.5e-9]
        digits = np.random.default_rng(11).integers(10**9, 10**10, size=2000) // 10 * 10 + 5
        exponents = np.random.default_rng(12).integers(-320, 300, size=2000)
        ties = [float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())]
        values = np.array(edges + ties)
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
        values = np.concatenate([values, -values])
        self.assert_same_bytes(tmp_path, values.reshape(-1, 3).tolist())

    def test_integer_grid_entries(self, tmp_path):
        # a JSON grid may hold ints; they were formatted as ints before
        rows = [(0, 0.5, 1), (3, 0.25, -2), (1234567891, 7, 10**15)]
        self.assert_same_bytes(tmp_path, rows, header="kappa,x,y")

    def test_tables_longer_than_a_block(self, tmp_path):
        # two full blocks of rows and a partial one, each its own % operation
        n = 2 * figures._BLOCK_ROWS + 37
        rows = np.random.default_rng(5).normal(scale=1e3, size=(n, 3)).tolist()
        self.assert_same_bytes(tmp_path, rows, header="x,y,z")

    @pytest.mark.parametrize("shape", [(1, 5), (7, 1), (1, 1)])
    def test_one_row_or_one_column(self, tmp_path, shape):
        rows = np.random.default_rng(3).normal(size=shape).tolist()
        self.assert_same_bytes(tmp_path, rows)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(FLOAT_TABLES)
    def test_any_float64_table(self, tmp_path, rows):
        # every float64 class: +-0, subnormals, normals, +-inf, nan
        self.assert_same_bytes(tmp_path, rows)

    def test_fixed_form_edges(self, tmp_path):
        switch = np.array([9.9999999995e-05, 1e-4, 999999999.5, 1e9])  # fixed vs exponent form
        switch = np.concatenate([switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)])
        powers = np.array([float(f"1e{k}") for k in range(-5, 10)])
        near_powers = (powers.view(np.int64)[:, None] + np.arange(-5, 6)).view(np.float64)
        carry_and_zeros = [0.9999999996, 1.5, 100.0, 0.00012]  # 1, and stripped zeros
        edges = np.concatenate([switch, near_powers.ravel(), carry_and_zeros])
        edges = np.concatenate([edges, -edges])
        # after one full block, so the edges land in a partial last block
        filler = np.random.default_rng(17).normal(size=2 * figures._BLOCK_ROWS)
        table = np.concatenate([filler, edges]).reshape(-1, 2)
        assert len(table) % figures._BLOCK_ROWS
        self.assert_same_bytes(tmp_path, table.tolist(), header="x,y")

    @staticmethod
    def write_peak(tmp_path, workers=1):
        """The traced peak of writing 400,000 rows x 2 columns, over the columns' bytes."""
        rng = np.random.default_rng(13)
        columns = (rng.normal(size=400_000), rng.normal(size=400_000))
        column_bytes = sum(c.nbytes for c in columns)
        gc.collect()
        tracemalloc.start()
        try:
            figures._write_csv(tmp_path / "table.csv", "s1,s2", columns, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / column_bytes

    def test_peak_memory_is_one_block(self, tmp_path):
        # the columns are interleaved a block at a time: no (n, k) table of the
        # whole file, which alone would be 1x the columns' bytes
        assert self.write_peak(tmp_path) <= 0.3

    def test_pooled_peak_memory_is_blocks_in_flight(self, tmp_path, monkeypatch):
        # a pool of two formats two blocks ahead of the one being written:
        # two blocks in flight, each within the serial writer's bound
        monkeypatch.setattr(figures, "_usable_cpus", lambda: 2)
        assert self.write_peak(tmp_path, workers=2) <= 2 * 0.3

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pooled_blocks_are_written_in_order(self, tmp_path, monkeypatch, workers):
        # five full blocks and a partial one, with %-path values (zeros,
        # ties, exponent forms) in blocks 0 and 2 and in the partial block
        monkeypatch.setattr(figures, "_usable_cpus", lambda: 8)  # a pool on any host
        block = figures._BLOCK_ROWS
        table = np.random.default_rng(23).normal(scale=1e3, size=(5 * block + 101, 2))
        odd = [0.0, -0.0, 999999999.5, 0.99999999995, 123456789.5, 1e16, -2.5e-9, 1e-5]
        for row in (5, 2 * block + 7, 5 * block + 50):
            table[row : row + len(odd), 0] = odd
            table[row : row + len(odd), 1] = odd[::-1]
        self.assert_same_bytes(tmp_path, table.tolist(), header="x,y", workers=workers)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(FLOAT_TABLES)
    def test_any_float64_table_pooled(self, tmp_path, monkeypatch, rows):
        # the tables of test_any_float64_table, in 3-row blocks on a pool of two
        monkeypatch.setattr(figures, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(figures, "_usable_cpus", lambda: 2)
        self.assert_same_bytes(tmp_path, rows, workers=2)

    @pytest.mark.parametrize(
        "workers, blocks, cpus, threads",
        [(16, 6, 2, 2), (16, 3, 8, 3), (2, 6, 8, 2), (16, 6, 1, None), (4, 1, 8, None)],
        ids=["cpus", "blocks", "workers", "one_cpu", "one_block"],
    )
    def test_pool_is_capped_by_blocks_and_cpus(self, tmp_path, monkeypatch, workers, blocks,
                                              cpus, threads):
        pools, in_flight, most = [], set(), []

        class Pending(Future):  # in flight from its submission until its result is read
            def result(self, timeout=None):
                in_flight.discard(self)
                return super().result(timeout)

        class RecordingPool:  # records its size and the blocks in flight, formats in turn
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Pending()
                future.set_result(fn(*args))
                in_flight.add(future)
                most.append(len(in_flight))
                return future

        monkeypatch.setattr(figures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(figures, "_BLOCK_ROWS", 10)
        monkeypatch.setattr(figures, "_usable_cpus", lambda: cpus)
        rows = np.random.default_rng(29).normal(size=(10 * blocks, 2)).tolist()
        self.assert_same_bytes(tmp_path, rows, workers=workers)
        assert pools == ([] if threads is None else [threads])
        assert max(most, default=None) == threads  # the pool formats that many blocks ahead

    def test_failed_block_leaves_no_thread(self, tmp_path, monkeypatch):
        # the third block's formatting raises: the caller gets that error,
        # and the pool's threads are gone when _write_csv returns
        monkeypatch.setattr(figures, "_usable_cpus", lambda: 2)
        block, csv_block = figures._BLOCK_ROWS, figures._csv_block

        def failing(rows):
            if rows[0, 0] == 2 * block:  # the rows are numbered
                raise ValueError("block 2")
            return csv_block(rows)

        monkeypatch.setattr(figures, "_csv_block", failing)
        rows = np.arange(6 * block, dtype=float)
        before = threading.active_count()
        with pytest.raises(ValueError, match="block 2"):
            figures._write_csv(tmp_path / "table.csv", "a,b", (rows, rows), workers=2)
        assert threading.active_count() == before

    def test_failed_write_leaves_no_thread(self, monkeypatch):
        # the file fills up mid-table: the caller gets the OSError, and no
        # pool thread is left; a pool held by a suspended generator would be
        # kept alive by the traceback the raised error holds
        monkeypatch.setattr(figures, "_usable_cpus", lambda: 2)

        class FullDisk:  # a path whose file takes the header and two blocks
            writes = 0

            def open(self, mode):
                return self

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, data):
                self.writes += 1
                if self.writes > 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return len(data)

        rows = np.random.default_rng(31).normal(size=6 * figures._BLOCK_ROWS)
        before = threading.active_count()
        with pytest.raises(OSError) as excinfo:
            figures._write_csv(FullDisk(), "a,b", (rows, rows), workers=2)
        assert threading.active_count() == before
        assert excinfo.value.errno == errno.ENOSPC
