"""Tests for the parameter-to-coupling mapping and the sheet loader."""

import json
import math
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.physics import (
    AtomicParams,
    DerivedCoupling,
    PulseParams,
    SheetError,
    coupling_strength,
    derive_coupling,
    faraday_angle,
    kappa_from_angle,
    load_sheet,
    loss_parameter,
    sheet_from_mapping,
)

TWO_PI = 2.0 * math.pi

YB = AtomicParams(
    gamma=TWO_PI * 29e6,
    sigma0=7.6e-14,
    delta=TWO_PI * 160e6,
    delta0=TWO_PI * 320e6,
    waist=58e-6,
    collective_spin=3.4e5,
    collective_spin_std=2.4e4,
)
PULSE = PulseParams(photons=3.2e6, width=1e-7, absorption_rate=1.86e6)


def one_line_kappa(gamma, sigma0, delta, delta0, waist, j, s):
    """Standalone re-evaluation of the coupling formula, kept independent."""
    h2 = (gamma / 2) ** 2
    bracket = (delta - delta0) / ((delta - delta0) ** 2 + h2) - delta / (delta**2 + h2)
    return gamma * sigma0 * math.sqrt(s * j) / (3 * math.pi * waist**2) * bracket


class TestCouplingStrength:
    def test_operating_point_magnitude(self):
        kappa = coupling_strength(YB, PULSE)
        assert abs(abs(kappa) - 0.62) <= 0.1 * 0.62
        assert kappa < 0  # red of the upper line, blue of the lower

    def test_matches_standalone_calculator(self):
        expected = one_line_kappa(YB.gamma, YB.sigma0, YB.delta, YB.delta0, YB.waist,
                                  YB.collective_spin, PULSE.stokes_length)
        assert coupling_strength(YB, PULSE) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-0.6356846032661904, rel=1e-12)

    def test_no_photons_gives_zero(self):
        assert coupling_strength(YB, PulseParams(photons=0.0, width=1e-7)) == 0.0

    def test_line_center_detuning(self):
        # delta = delta0/2 puts the probe midway; both terms add.
        mid = AtomicParams(YB.gamma, YB.sigma0, YB.delta0 / 2, YB.delta0, YB.waist,
                           YB.collective_spin)
        expected = one_line_kappa(mid.gamma, mid.sigma0, mid.delta, mid.delta0,
                                  mid.waist, mid.collective_spin, PULSE.stokes_length)
        assert coupling_strength(mid, PULSE) == pytest.approx(expected, rel=1e-14)

    def test_photon_number_scaling(self):
        base = coupling_strength(YB, PULSE)
        quadrupled = coupling_strength(
            YB, PulseParams(photons=4 * PULSE.photons, width=PULSE.width)
        )
        assert quadrupled == 2 * base

    def test_atom_number_scaling(self):
        doubled = AtomicParams(YB.gamma, YB.sigma0, YB.delta, YB.delta0, YB.waist,
                               2 * YB.collective_spin)
        ratio = coupling_strength(doubled, PULSE) / coupling_strength(YB, PULSE)
        assert ratio == pytest.approx(math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("x_mhz", [10.0, 50.0, 160.0, 300.0])
    def test_dispersive_factor_symmetric_about_line_center(self, x_mhz):
        def kappa_at(delta):
            atomic = AtomicParams(YB.gamma, YB.sigma0, delta, YB.delta0, YB.waist,
                                  YB.collective_spin)
            return coupling_strength(atomic, PULSE)

        center = YB.delta0 / 2
        x = TWO_PI * x_mhz * 1e6
        assert kappa_at(center + x) == pytest.approx(kappa_at(center - x), rel=1e-12)


class TestAngleRelations:
    def test_operating_point_angle(self):
        phi = faraday_angle(0.62, 1.6e6, 3.4e5)
        assert phi == pytest.approx(0.143, rel=2e-3)

    def test_zero_coupling(self):
        assert faraday_angle(0.0, 1.6e6, 3.4e5) == 0.0

    def test_equal_spins(self):
        assert faraday_angle(0.8, 1234.0, 1234.0) == pytest.approx(0.4, rel=1e-15)

    def test_angle_inversion(self):
        kappa = kappa_from_angle(0.143, 1.6e6, 3.4e5)
        assert kappa == pytest.approx(0.620, rel=5e-3)

    def test_zero_angle(self):
        assert kappa_from_angle(0.0, 1.6e6, 3.4e5) == 0.0

    @given(
        kappa=st.floats(-3.0, 3.0),
        s=st.floats(1.0, 1e8),
        j=st.floats(1.0, 1e8),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, kappa, s, j):
        recovered = kappa_from_angle(faraday_angle(kappa, s, j), s, j)
        assert recovered == pytest.approx(kappa, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("fn", [faraday_angle, kappa_from_angle])
    def test_nonpositive_inputs_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            fn(0.1, 1.0, -2.0)


class TestLossParameter:
    def test_operating_point_exact(self):
        assert loss_parameter(1.86e6, 1e-7) == 9.3e-2

    def test_zero_rate(self):
        assert loss_parameter(0.0, 1e-7) == 0.0

    def test_unit_product(self):
        assert loss_parameter(2.0, 0.5) == 0.5

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            loss_parameter(-1.0, 1e-7)
        with pytest.raises(ValueError):
            loss_parameter(1.0, -1e-7)


class TestDerivedCoupling:
    def test_joint_consistency(self):
        d = derive_coupling(YB, PULSE)
        implied = 0.5 * d.kappa * math.sqrt(YB.collective_spin / PULSE.stokes_length)
        assert abs(d.phi - implied) <= 1e-9
        assert d.epsilon == 9.3e-2

    def test_zero_photons(self):
        d = derive_coupling(YB, PulseParams(photons=0.0, width=1e-7))
        assert d.kappa == 0.0 and d.phi == 0.0

    @pytest.mark.parametrize("waist", [1e294, 1e-170], ids=["overflows", "underflows"])
    def test_out_of_range_coupling_is_a_value_error(self, waist):
        # was an OverflowError or a ZeroDivisionError from waist**2
        with pytest.raises(ValueError, match="derived kappa is not finite"):
            derive_coupling(replace(YB, waist=waist), PULSE)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            DerivedCoupling(kappa=0.5, phi=0.1, epsilon=1.0)
        with pytest.raises(ValueError):
            DerivedCoupling(kappa=0.5, phi=0.1, epsilon=-0.1)


class TestParamValidation:
    def test_atomic_params(self):
        with pytest.raises(ValueError):
            AtomicParams(0.0, 1e-14, 1.0, 2.0, 1e-5, 1e5)
        with pytest.raises(ValueError):
            AtomicParams(1.0, 1e-14, 1.0, 2.0, 0.0, 1e5)
        with pytest.raises(ValueError):
            AtomicParams(1.0, 1e-14, 1.0, 2.0, 1e-5, -1.0)

    def test_pulse_params(self):
        with pytest.raises(ValueError):
            PulseParams(photons=-1.0, width=1e-7)
        with pytest.raises(ValueError):
            PulseParams(photons=1.0, width=0.0)
        assert PulseParams(photons=5.0, width=1.0).stokes_length == 2.5


class TestSheets:
    def test_bundled_sheet(self):
        sheet = load_sheet("yb171")
        assert sheet.name == "yb171"
        assert sheet.atomic.gamma == pytest.approx(TWO_PI * 29e6)
        assert sheet.atomic.waist == pytest.approx(58e-6)
        assert sheet.pulse.width == 1e-7
        assert sheet.pulse.photons == 3.2e6

    def test_file_sheet_roundtrip(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "name": "custom",
            "gamma_2pi_mhz": 10.0,
            "sigma0_m2": 1e-14,
            "delta_2pi_mhz": 50.0,
            "delta0_2pi_mhz": 100.0,
            "waist_um": 40.0,
            "collective_spin": 1e5,
            "photons": 1e6,
            "pulse_width_ns": 200.0,
        }))
        sheet = load_sheet(path)
        assert sheet.pulse.absorption_rate == 0.0  # optional keys default
        assert sheet.atomic.delta == pytest.approx(TWO_PI * 50e6)

    def test_missing_sheet(self):
        with pytest.raises(SheetError, match="no such sheet"):
            load_sheet("does_not_exist")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": "x",\n  oops\n}')
        with pytest.raises(SheetError, match="line 3"):
            load_sheet(path)

    def test_missing_key_named(self):
        with pytest.raises(SheetError, match="gamma_2pi_mhz"):
            sheet_from_mapping({"name": "x", "photons": 1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(SheetError, match="unknown key"):
            sheet_from_mapping({"name": "x", "gamma_mhz": 29.0})

    def test_non_numeric_value(self):
        raw = {
            "gamma_2pi_mhz": "29",
            "sigma0_m2": 1e-14,
            "delta_2pi_mhz": 50.0,
            "delta0_2pi_mhz": 100.0,
            "waist_um": 40.0,
            "collective_spin": 1e5,
            "photons": 1e6,
            "pulse_width_ns": 200.0,
        }
        with pytest.raises(SheetError, match="must be a finite number"):
            sheet_from_mapping(raw)

    @pytest.mark.parametrize(
        "key, value",
        [("gamma_2pi_mhz", math.nan), ("waist_um", math.inf), ("photons", 10**400)],
        ids=["nan_linewidth", "inf_waist", "huge_photons"],
    )
    def test_non_finite_value_named(self, tmp_path, key, value):
        # json writes and reads NaN and Infinity; the 401-digit int overflows a float
        raw = json.loads(resources.files("qndsim").joinpath("data/yb171.json").read_text())
        path = tmp_path / "sheet.json"
        path.write_text(json.dumps({**raw, key: value}))
        with pytest.raises(SheetError, match=f"key '{key}' must be a finite number, got"):
            load_sheet(path)

    @pytest.mark.parametrize("key", ["gamma_2pi_mhz", "delta_2pi_mhz", "delta0_2pi_mhz"])
    def test_value_out_of_range_after_conversion(self, tmp_path, key):
        # 1e305 MHz is finite, 2*pi*1e305*1e6 rad/s is not
        raw = json.loads(resources.files("qndsim").joinpath("data/yb171.json").read_text())
        path = tmp_path / "sheet.json"
        path.write_text(json.dumps({**raw, key: 1e305}))
        with pytest.raises(SheetError, match=f"key '{key}' is out of range after unit conversion"):
            load_sheet(path)
