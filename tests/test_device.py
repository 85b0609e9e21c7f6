import json
import math
import warnings

import numpy as np
import pytest

from fluxlattice import (
    ConfigError,
    CouplerSpec,
    CrosstalkMatrix,
    NumericalError,
    TransmonTuneCurve,
    coupler_off_frequency,
    crosstalk_correct,
    crosstalk_fit,
    g_eff,
    simulate_compensation_data,
    three_mode_vacuum_rabi,
    tune_curve,
)
from fluxlattice.device import device_from_dict, load_crosstalk_csv, load_device
from fluxlattice.cli import data_path

DISPERSIVE = CouplerSpec(
    omega_a=4.2, omega_b=4.2, omega_c=5.8, g_ac=0.1, g_bc=0.1, g_ab=0.012,
    u_a=-0.2, u_b=-0.2, u_c=-0.1,
)


class TestEffectiveCoupling:
    def test_far_detuned_limit_approaches_direct_coupling(self):
        far = CouplerSpec(4.2, 4.2, 400.0, 0.1, 0.1, 0.012)
        assert g_eff(far) == pytest.approx(0.012, abs=1e-4)

    def test_symmetric_substitution(self):
        assert g_eff(DISPERSIVE) == pytest.approx(0.012 + 0.01 / (4.2 - 5.8), abs=1e-15)

    def test_resonant_coupler_rejected(self):
        near = CouplerSpec(4.2, 4.2, 4.5, 0.1, 0.1, 0.012)
        with pytest.raises(ConfigError, match="dispersive"):
            g_eff(near)

    def test_marginal_ratio_warns(self):
        marginal = CouplerSpec(4.2, 4.2, 5.0, 0.1, 0.1, 0.012)
        with pytest.warns(UserWarning, match="marginal"):
            g_eff(marginal)

    def test_off_frequency_closed_form(self):
        omega0 = coupler_off_frequency(DISPERSIVE, (4.8, 7.0))
        assert omega0 == pytest.approx(4.2 + 0.01 / 0.012, rel=1e-8)

    def test_off_frequency_requires_sign_change(self):
        no_zero = CouplerSpec(4.2, 4.2, 5.8, 0.1, 0.1, 0.0)
        with pytest.raises(ConfigError, match="sign change"):
            coupler_off_frequency(no_zero, (4.8, 7.0))

    def test_window_must_avoid_poles(self):
        with pytest.raises(ConfigError, match="window"):
            coupler_off_frequency(DISPERSIVE, (4.0, 7.0))

    def test_monotone_on_each_side_of_band(self):
        import dataclasses

        above = [
            g_eff(dataclasses.replace(DISPERSIVE, omega_c=w))
            for w in np.linspace(5.3, 8.0, 40)
        ]
        assert np.all(np.diff(above) > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            below = [
                g_eff(dataclasses.replace(DISPERSIVE, omega_c=w))
                for w in np.linspace(2.0, 3.5, 40)
            ]
        assert np.all(np.diff(below) > 0)
        assert np.all(np.isfinite(above)) and np.all(np.isfinite(below))


class TestThreeModeOracle:
    def test_two_mode_limit_exact(self):
        spec = CouplerSpec(4.2, 4.2, 5.8, 0.0, 0.0, 0.012)
        out = three_mode_vacuum_rabi(spec)
        assert out.magnitude == pytest.approx(0.012, abs=1e-12)
        assert out.sign == 1
        assert out.coupler_weights == (0.0, 0.0)

    def test_dispersive_agreement_with_formula(self):
        out = three_mode_vacuum_rabi(DISPERSIVE, 3)
        formula = g_eff(DISPERSIVE)
        assert abs(out.value - formula) / abs(formula) < 0.05

    def test_truncation_converged(self):
        m3 = three_mode_vacuum_rabi(DISPERSIVE, 3).magnitude
        m4 = three_mode_vacuum_rabi(DISPERSIVE, 4).magnitude
        assert abs(m3 - m4) / m3 < 1e-3

    def test_sweep_changes_sign_through_zero(self):
        values = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for omega_c in np.linspace(4.9, 7.6, 12):
                spec = CouplerSpec(4.2, 4.2, float(omega_c), 0.13, 0.13, 0.0055)
                values.append(three_mode_vacuum_rabi(spec).value)
        assert values[0] < 0 < values[-1]
        signs = np.sign(values)
        assert np.count_nonzero(np.diff(signs)) >= 1

    def test_hybridized_regime_rejected(self):
        spec = CouplerSpec(4.2, 4.2, 4.25, 0.1, 0.1, 0.0)
        with pytest.raises(NumericalError, match="hybridize"):
            three_mode_vacuum_rabi(spec)

    def test_truncation_validation(self):
        with pytest.raises(ConfigError):
            three_mode_vacuum_rabi(DISPERSIVE, 1)


class TestTuneCurve:
    CURVE = TransmonTuneCurve(omega_max=4.891, omega_min=3.639)

    def test_sweet_spots(self):
        assert tune_curve(self.CURVE, 0.0) == pytest.approx(4.891, abs=1e-12)
        assert tune_curve(self.CURVE, 0.5) == pytest.approx(3.639, abs=1e-12)

    def test_quarter_flux_value(self):
        assert tune_curve(self.CURVE, 0.25) == pytest.approx(4.397056730713708, abs=1e-12)

    def test_periodic_and_symmetric(self):
        phis = np.linspace(0.0, 1.0, 21)
        curve = tune_curve(self.CURVE, phis)
        assert np.allclose(tune_curve(self.CURVE, phis + 1.0), curve, atol=1e-12)
        assert np.allclose(tune_curve(self.CURVE, 1.0 - phis), curve, atol=1e-12)

    def test_ordering_validation(self):
        with pytest.raises(ConfigError):
            TransmonTuneCurve(3.0, 4.0)


class TestCrosstalk:
    def test_identity_correction(self):
        m = CrosstalkMatrix(np.eye(3))
        v = np.array([0.1, -0.2, 0.3])
        assert np.allclose(crosstalk_correct(m, v), v)

    def test_roundtrip_small_offdiagonals(self):
        rng = np.random.default_rng(8)
        mat = rng.normal(6e-4, 1e-4, size=(7, 7))
        np.fill_diagonal(mat, 1.0)
        m = CrosstalkMatrix(mat)
        v = rng.normal(size=7)
        applied = crosstalk_correct(m, v)
        assert np.abs(m.matrix @ applied - v).max() < 1e-12 * np.abs(v).max()

    def test_singular_rejected(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="ill-conditioned"):
            crosstalk_correct(CrosstalkMatrix(mat), np.array([1.0, 0.0]))

    def test_diagonal_normalization_enforced(self):
        with pytest.raises(ConfigError):
            CrosstalkMatrix(np.diag([1.0, 0.9]))

    def test_fit_recovers_synthetic_element(self):
        rng = np.random.default_rng(7)
        data = simulate_compensation_data(6e-4, np.linspace(-1, 1, 50), 1e-5, rng)
        assert crosstalk_fit(data) == pytest.approx(6e-4, abs=3e-5)

    def test_fit_two_exact_points(self):
        assert crosstalk_fit([(0.0, 0.0), (1.0, -5e-4)]) == pytest.approx(5e-4, abs=1e-15)

    def test_fit_constant_target_gives_zero(self):
        assert crosstalk_fit([(-1.0, 0.2), (0.0, 0.2), (1.0, 0.2)]) == pytest.approx(0.0, abs=1e-12)

    def test_fit_degenerate_abscissa(self):
        with pytest.raises(ConfigError, match="degenerate"):
            crosstalk_fit([(1.0, 0.1), (1.0, 0.2)])

    def test_noise_needs_rng(self):
        with pytest.raises(ConfigError):
            simulate_compensation_data(1e-4, [0.0, 1.0], noise_sigma=1e-5)


class TestDeviceFiles:
    def test_sample_device_loads(self):
        device = load_device(data_path("sample_device.json"))
        assert len(device.qubits) == 7
        assert device.qubits["A,1"].tune.omega_max == 4.891
        assert device.coupler.g_ab == pytest.approx(0.0055)
        lo, hi, count = device.sweep_window
        assert lo < hi and count >= 2

    def test_per_bond_couplers_inherit_defaults(self):
        device = load_device(data_path("sample_device.json"))
        assert ("A,1", "up,1") in device.bond_couplers
        spec = device.bond_couplers[("A,1", "up,1")]
        assert spec.omega_a == pytest.approx(4.120)
        assert spec.g_ac == device.coupler.g_ac  # inherited default

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError):
            device_from_dict({"schema": 1, "qubits": {"A,1": {"omega_max_GHz": 4.9}}})

    @pytest.mark.parametrize(
        "sweep",
        [[4.9, 7.6, 11.5], [4.9, 7.6, True], [4.9, 7.6, 1], [4.9, 7.6, 10**12], [10**400, 7.6, 11]],
        ids=["count-fraction", "count-bool", "count-one", "count-above-max-points", "start-overflows"],
    )
    def test_sweep_rejected(self, sweep):
        # Refused on loading, before coupler-calibrate computes any point.
        doc = json.loads(data_path("sample_device.json").read_text())
        with pytest.raises(ConfigError, match="sweep_GHz"):
            device_from_dict({**doc, "sweep_GHz": sweep})

    def test_integral_float_sweep_count_loads(self):
        doc = json.loads(data_path("sample_device.json").read_text())
        assert device_from_dict({**doc, "sweep_GHz": [4.9, 7.6, 11.0]}).sweep_window == (4.9, 7.6, 11)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigError):
            device_from_dict({"schema": 2})

    @pytest.mark.parametrize("row", ["Z1,nan,0", "Z1,1,inf"], ids=["nan-diagonal", "infinite-entry"])
    def test_nonfinite_crosstalk_rejected(self, tmp_path, row):
        path = tmp_path / "crosstalk.csv"
        path.write_text(f",Z1,Z2\n{row}\nZ2,0,1\n")
        with pytest.raises(ConfigError, match="finite"):
            load_crosstalk_csv(path)

    def test_sample_crosstalk_matrix_loads_and_corrects(self):
        matrix = load_crosstalk_csv(data_path("sample_crosstalk.csv"))
        assert matrix.dim == 7
        assert np.abs(np.diag(matrix.matrix) - 1.0).max() == 0.0
        off = matrix.matrix[~np.eye(7, dtype=bool)]
        assert 1e-4 < np.abs(off).mean() < 1.2e-3
        v = np.linspace(-1, 1, 7)
        applied = crosstalk_correct(matrix, v)
        assert np.abs(matrix.matrix @ applied - v).max() < 1e-12
