import csv
import functools
import hashlib
import json
import math
import operator
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_readme import quick_start_commands

from fluxlattice import cli
from fluxlattice.cli import (
    MAX_PLAQUETTES,
    MAX_POINTS,
    OPTIONS,
    build_parser,
    compare_against_reference,
    data_path,
    main,
    parse_delta_token,
    parse_pi_multiple,
    parse_range,
)
from fluxlattice import (
    PI,
    DensityMatrix,
    DephasingRates,
    PopulationTrace,
    build_lattice,
    hamiltonian_single_excitation,
    lindblad_evolve,
    schedule_to_json,
    site_labels,
    two_stage_ramp,
    with_vacuum,
)


def read_csv_columns(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


class TestParsers:
    def test_pi_multiples(self):
        assert parse_pi_multiple("4pi") == pytest.approx(4 * math.pi)
        assert parse_pi_multiple("pi") == pytest.approx(math.pi)
        assert parse_pi_multiple("2.5") == 2.5

    def test_delta_tokens(self):
        assert parse_delta_token("sqrt2") == pytest.approx(math.sqrt(2))
        assert parse_delta_token("2sqrt2") == pytest.approx(2 * math.sqrt(2))
        assert parse_delta_token("10") == 10.0

    def test_range(self):
        grid = parse_range("0:1:5")
        assert grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestDynamicsCommand:
    def test_caging_columns_stay_dark(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "dynamics",
                "--lattice", str(data_path("lattice_l2_pi.json")),
                "--init", "A,2",
                "--tmax", "4pi",
                "--outdir", str(out),
            ]
        )
        assert code == 0
        header, data = read_csv_columns(out / "dynamics.csv")
        assert header[0] == "Jt"
        for column in ("n_A1", "n_A3"):
            values = data[:, header.index(column)]
            assert values.max() < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["dynamics", "--l", "2", "--flux", "pi", "--init", "A,2"]
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(argv + ["--outdir", str(out)]) == 0
            digests.append(hashlib.sha256((out / "dynamics.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_manifest_lists_outputs_with_hashes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["dynamics", "--l", "1", "--flux", "0", "--outdir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["schema"] == 1
        named = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
        assert set(named) == {"dynamics.csv", "dynamics.json"}
        for name, digest in named.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_invalid_flux_exits_2(self, tmp_path):
        code = main(["dynamics", "--l", "1", "--flux", "pi/2", "--outdir", str(tmp_path / "x")])
        assert code == 2

    def test_numeric_pi_flux_matches_token(self, tmp_path):
        blobs = []
        for flux in ("pi", "3.14159265358979"):
            out = tmp_path / flux
            assert main(["dynamics", "--l", "1", "--flux", flux, "--outdir", str(out)]) == 0
            blobs.append((out / "dynamics.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestDephasedDynamics:
    """A lattice file that declares dephasing runs the master equation."""

    @staticmethod
    def _run(tmp_path, name, extra):
        doc = json.loads(data_path("lattice_l2_pi.json").read_text())
        doc.update(extra)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["dynamics", "--lattice", str(path), "--init", "A,2", "--outdir", str(out)]) == 0
        return out

    def test_file_without_dephasing_matches_closed_run(self, tmp_path):
        out = self._run(tmp_path, "closed", {})
        assert main(["dynamics", "--l", "2", "--flux", "pi", "--init", "A,2", "--outdir", str(tmp_path / "l2")]) == 0
        assert (out / "dynamics.csv").read_bytes() == (tmp_path / "l2" / "dynamics.csv").read_bytes()

    def test_declared_dephasing_is_applied(self, tmp_path):
        closed = self._run(tmp_path, "closed", {})
        out = self._run(tmp_path, "dephased", {"dephasing_us": {"A,1": 1, "A,2": 1}})
        assert (out / "dynamics.csv").read_bytes() != (closed / "dynamics.csv").read_bytes()
        lattice = build_lattice(2, [PI, PI])
        gamma = 1.0 / (2 * PI * 4.2)
        expected = lindblad_evolve(
            with_vacuum(hamiltonian_single_excitation(lattice)),
            DephasingRates.from_map(lattice, {"A,1": gamma, "A,2": gamma}),
            DensityMatrix.single_excitation(lattice, "A,2"),
            np.linspace(0.0, 4 * PI, 401),
        )
        header, data = read_csv_columns(out / "dynamics.csv")
        assert header == ["Jt", *(f"n_{s.replace(',', '')}" for s in site_labels(2))]
        assert np.abs(data[:, 1:] - expected.trace.populations).max() < 1e-11
        doc = json.loads((out / "dynamics.json").read_text())
        assert doc["metadata"]["lattice"]["dephasing_over_J"] == {"A,1": gamma, "A,2": gamma}

    def test_verify_rejects_dephased_trace(self, tmp_path):
        out = self._run(tmp_path, "dephased", {"dephasing_us": {"A,1": 1, "A,2": 1}})
        code = main(
            [
                "verify",
                "--trace", str(out / "dynamics.json"),
                "--oracle", "effective_model",
                "--outdir", str(tmp_path / "v"),
            ]
        )
        assert code == 3

class TestDetuningSweep:
    def test_writes_panel_files(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "detuning-sweep",
                "--l", "2",
                "--delta", "0,sqrt2,10",
                "--points", "101",
                "--outdir", str(out),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in out.glob("sweep_*.csv"))
        assert names == [
            "sweep_phi0_delta0.csv",
            "sweep_phi0_delta10.csv",
            "sweep_phi0_deltasqrt2.csv",
            "sweep_phipi_delta0.csv",
            "sweep_phipi_delta10.csv",
            "sweep_phipi_deltasqrt2.csv",
        ]


class TestSpectroscopyCommand:
    def test_peaks_in_json(self, tmp_path):
        out = tmp_path / "spec"
        code = main(["spectroscopy", "--l", "1", "--flux", "pi", "--outdir", str(out)])
        assert code == 0
        doc = json.loads((out / "spectroscopy.json").read_text())
        peaks = doc["peaks_over_J"]
        assert len(peaks) == 2
        assert abs(peaks[1] - math.sqrt(2)) < 0.05


class TestZakCommand:
    def test_snapped_sequence(self, tmp_path):
        out = tmp_path / "zak"
        code = main(["zak", "--delta-range", "0.2:2.0:7", "--nk", "256", "--outdir", str(out)])
        assert code == 0
        doc = json.loads((out / "zak.json").read_text())
        snapped = [p["zak_snapped"] for p in doc["points"]]
        assert snapped == [0.0, 0.0, 0.0, math.pi, math.pi, math.pi, math.pi]

    def test_gap_closure_exits_3(self, tmp_path):
        code = main(["zak", "--delta-range", "1:1:1", "--nk", "128", "--outdir", str(tmp_path / "z")])
        assert code == 3


class TestBandsCommand:
    def test_flat_band_report(self, tmp_path):
        out = tmp_path / "bands"
        assert main(["bands", "--model", "rhombic", "--flux", "pi", "--outdir", str(out)]) == 0
        doc = json.loads((out / "bands.json").read_text())
        assert max(doc["bandwidths_over_J"]) < 1e-10


def _number_text(valid):
    """Argument text: three times in four a number from ``valid``, else an invalid or edge value."""
    text = valid.map(repr)
    return st.one_of(text, text, text, st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0.0"]))


class TestAdiabaticCommand:
    def test_closed_run_report(self, tmp_path):
        out = tmp_path / "adiabatic"
        code = main(
            [
                "adiabatic",
                "--l", "1",
                "--flux", "pi",
                "--init", "A,1",
                "--duration", "30",
                "--outdir", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "adiabatic.json").read_text())
        assert doc["closed"]["final_gs_overlap"] > 0.99
        header, data = read_csv_columns(out / "ramp_fidelity.csv")
        assert header == ["Jt", "closed"]
        assert data[-1, 1] > 0.99

    def test_explicit_schedule_file(self, tmp_path):
        schedule = [
            {"duration": 10.0, "j_start": 0.0, "j_end": 1.0,
             "detuning_start": {"A,1": -4.0}, "detuning_end": {"A,1": -4.0}},
            {"duration": 10.0, "j_start": 1.0, "j_end": 1.0,
             "detuning_start": {"A,1": -4.0}, "detuning_end": {"A,1": 0.0}},
        ]
        sched_file = tmp_path / "ramp.json"
        sched_file.write_text(json.dumps(schedule))
        out = tmp_path / "run"
        code = main(
            [
                "adiabatic",
                "--l", "1",
                "--flux", "0",
                "--init", "A,1",
                "--schedule", str(sched_file),
                "--outdir", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "adiabatic.json").read_text())
        assert doc["duration_over_J"] == 20.0
        assert len(doc["schedule"]) == 2

    def test_dephasing_needs_time_unit(self, tmp_path):
        code = main(
            [
                "adiabatic",
                "--l", "1",
                "--flux", "pi",
                "--duration", "12",
                "--dephasing-us", "1",
                "--outdir", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("times", ["abc", "1,0"])
    def test_bad_dephasing_times_exit_2(self, tmp_path, times):
        argv = ["adiabatic", "--duration", "1", "--j-mhz", "4.2", "--dephasing-us", times]
        assert main([*argv, "--outdir", str(tmp_path / "x")]) == 2

    @given(
        duration=_number_text(st.floats(0.0, 0.5)),
        j_mhz=_number_text(st.floats(0.5, 50.0)),
        initial_detuning=_number_text(st.floats(-50.0, -3.5)),
        tphis=st.lists(_number_text(st.floats(0.5, 50.0)), max_size=3),
        repeat=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_number_arguments_exit_cleanly(self, duration, j_mhz, initial_detuning, tphis, repeat):
        # Short ramps and rates below 1 J keep each example to a few thousand
        # substeps; "--flag=value" stops argparse reading "-inf" as an option.
        argv = [
            "adiabatic", "--l=1", f"--duration={duration}", f"--j-mhz={j_mhz}",
            f"--initial-detuning={initial_detuning}",
        ]
        if tphis:
            argv.append(f"--dephasing-us={','.join(tphis + tphis[:1] if repeat else tphis)}")
        with tempfile.TemporaryDirectory() as out:
            assert main([*argv, f"--outdir={out}"]) in {0, 2, 3}


class TestCouplerCommand:
    def test_sweep_and_off_point(self, tmp_path):
        out = tmp_path / "coupler"
        code = main(["coupler-calibrate", "--outdir", str(out)])
        assert code == 0
        doc = json.loads((out / "coupler.json").read_text())
        assert doc["sign_change"] is True
        assert 4.9 < doc["off_frequency_GHz"] < 7.6
        header, data = read_csv_columns(out / "coupler_sweep.csv")
        assert header[0] == "omega_c_GHz"
        # Qualitative tunable range: reaches about -20 MHz and crosses zero.
        assert -25.0 < data[:, 1].min() < -15.0
        assert data[:, 1].max() > 0.0
        assert doc["max_relative_disagreement"] < 0.1


class TestCrosstalkCommand:
    def test_synthetic_fit_accuracy(self, tmp_path):
        out = tmp_path / "xt"
        code = main(["crosstalk-fit", "--seed", "1234", "--outdir", str(out)])
        assert code == 0
        doc = json.loads((out / "crosstalk_fit.json").read_text())
        assert doc["max_element_error"] < 5e-5
        assert doc["roundtrip_error"] < 1e-10

    def test_reads_response_file(self, tmp_path):
        lines = ["source,target,source_zpa,target_zpa"]
        for s in np.linspace(-1, 1, 9):
            lines.append(f"Z1,Z2,{s},{-6e-4 * s}")
            lines.append(f"Z2,Z1,{s},{-4e-4 * s}")
        responses = tmp_path / "responses.csv"
        responses.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit"
        assert main(["crosstalk-fit", "--responses", str(responses), "--outdir", str(out)]) == 0
        header, matrix = read_csv_columns(out / "crosstalk_matrix.csv")
        assert header == ["Z1", "Z2"]
        assert matrix[1, 0] == pytest.approx(6e-4, abs=1e-12)
        assert matrix[0, 1] == pytest.approx(4e-4, abs=1e-12)


class TestVerifyCommand:
    def test_analytic_oracle_passes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["dynamics", "--l", "1", "--flux", "0", "--init", "A,1", "--outdir", str(out)]) == 0
        code = main(
            [
                "verify",
                "--trace", str(out / "dynamics.json"),
                "--oracle", "analytic_l1",
                "--outdir", str(tmp_path / "v"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert report["passed"] and report["max_deviation"] < 1e-8

    def test_effective_model_oracle_passes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["dynamics", "--l", "2", "--flux", "pi", "--init", "A,2", "--outdir", str(out)]) == 0
        code = main(
            [
                "verify",
                "--trace", str(out / "dynamics.json"),
                "--oracle", "effective_model",
                "--outdir", str(tmp_path / "v"),
            ]
        )
        assert code == 0

    def test_tampered_trace_fails_with_exit_3(self, tmp_path):
        out = tmp_path / "run"
        assert main(["dynamics", "--l", "1", "--flux", "0", "--init", "A,1", "--outdir", str(out)]) == 0
        doc = json.loads((out / "dynamics.json").read_text())
        # Reversing a row keeps the trace valid but breaks the physics.
        doc["populations"][5] = doc["populations"][5][::-1]
        (out / "dynamics.json").write_text(json.dumps(doc))
        code = main(
            [
                "verify",
                "--trace", str(out / "dynamics.json"),
                "--oracle", "analytic_l1",
                "--outdir", str(tmp_path / "v"),
            ]
        )
        assert code == 3
        # A failed comparison is a finished run: its report is written.
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert report["passed"] is False and report["max_deviation"] > report["tolerance"]

    def test_shape_mismatch_rejected(self):
        trace = PopulationTrace(np.array([0.0]), np.array([[1.0, 0.0, 0.0, 0.0]]))
        metadata = {"lattice": {"schema": 1, "l": 2, "fluxes": ["pi", "pi"]}, "init": "A,1"}
        with pytest.raises(Exception, match="sites"):
            compare_against_reference(trace, metadata, "effective_model")



SAMPLE_DEVICE = json.loads(data_path("sample_device.json").read_text())


def _sample_device_with(**fields):
    """The shipped sample device file with ``fields`` replaced."""
    return json.dumps({**SAMPLE_DEVICE, **fields})


#: A two-stage ramp schedule for l = 1 whose first duration is a numeric string.
_STRING_DURATION_SCHEDULE = json.dumps([
    {"duration": "15", "j_start": 0, "j_end": 1, "detuning_start": {"A,1": -4}, "detuning_end": {"A,1": -4}},
    {"duration": 15, "j_start": 1, "j_end": 1, "detuning_start": {"A,1": -4}, "detuning_end": {"A,1": 0}},
])
#: An integer with 401 digits: too large for a float.
_HUGE = "1" + "0" * 400

@pytest.mark.parametrize(
    "argv, content",
    [
        (["verify", "--oracle", "analytic_l1", "--trace"], None),
        (["adiabatic", "--config"], "{not json"),
        (["adiabatic", "--schedule"], "[{"),
        (["crosstalk-fit", "--responses"], "source,target,source_zpa\nZ1,Z2,0.5\n"),
        (["crosstalk-fit", "--responses"], "source,target,source_zpa,target_zpa\nZ1,Z2,0,0\nZ1,Z2,1,inf\n"),
        # No response row: nothing to fit (an empty matrix).
        (["crosstalk-fit", "--responses"], "source,target,source_zpa,target_zpa\n"),
        (["crosstalk-fit", "--responses"], ""),
        (["adiabatic", "--config"], '{"l": "x"}'),
        (["adiabatic", "--config"], '{"duration_over_J": "abc"}'),
        (["adiabatic", "--config"], '{"duration_over_J": 3, "J_MHz": -4.2}'),
        # Config fields are read like the command line and lattice files: a
        # count takes no fraction or bool, a number no bool or string.
        (["adiabatic", "--config"], '{"l": 2.7}'),
        (["adiabatic", "--config"], '{"l": true}'),
        (["adiabatic", "--config"], '{"duration_over_J": true}'),
        (["adiabatic", "--config"], '{"duration_over_J": "3"}'),
        (["adiabatic", "--duration", "1", "--j-mhz", "4.2", "--config"], '{"dephasing_us": [1, 1.0]}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "J_MHz": "abc"}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "detunings": {"A,1": "x"}}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "detunings": ["A,1"]}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "dephasing_over_J": {"A,1": "x"}}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "dephasing_over_J": {"A,1": NaN}}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "dephasing_over_J": {"A,1": Infinity}}'),
        (
            ["dynamics", "--lattice"],
            '{"l": 2, "fluxes": ["pi", "pi"], "J_MHz": 4.2, "dephasing_us": {"A,1": -1, "A,2": 1}}',
        ),
        (["dynamics", "--lattice"], '{"l": 2, "fluxes": ["pi", "pi"], "J_MHz": 4.2, "dephasing_us": -5}'),
        (["dynamics", "--lattice"], '{"l": 2, "fluxes": ["pi", "pi"], "J_MHz": 4.2, "dephasing_us": NaN}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "J_MHz": 4.2, "dephasing_us": "1"}'),
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "J_MHz": %s, "dephasing_us": 1}' % _HUGE),
        # Both positive, but their product underflows to 0: an infinite rate.
        (["dynamics", "--lattice"], '{"l": 1, "fluxes": ["pi"], "J_MHz": 1e-200, "dephasing_us": 1e-200}'),
        # Above --l's ceiling, which a lattice file's l shares.
        (["dynamics", "--lattice"], json.dumps({"l": MAX_PLAQUETTES + 1, "fluxes": ["pi"] * (MAX_PLAQUETTES + 1)})),
        (["adiabatic", "--config"], '{"duration_over_J": %s}' % _HUGE),
        (["adiabatic", "--schedule"], _STRING_DURATION_SCHEDULE),
        (["adiabatic", "--schedule"], '[{"duration": "x", "j_start": 0, "j_end": 1}]'),
        (["adiabatic", "--schedule"], '{"duration": 30, "j_start": 0, "j_end": 1}'),
        (["verify", "--oracle", "analytic_l1", "--trace"], '{"kind": "population_trace"}'),
        (["coupler-calibrate", "--device"], "[]"),
        (
            ["coupler-calibrate", "--device"],
            '{"coupler": {"omega_a_GHz": "4.1", "omega_b_GHz": 4.2, "omega_c_GHz": 5.5,'
            ' "g_ac_GHz": 0.1, "g_bc_GHz": 0.1, "g_ab_GHz": 0.005}}',
        ),
        (["coupler-calibrate", "--device"], _sample_device_with(couplers=[5])),
        (["coupler-calibrate", "--device"], _sample_device_with(qubits=[1])),
        (["coupler-calibrate", "--device"], _sample_device_with(sweep_GHz=["a", "b", "c"])),
        (["coupler-calibrate", "--device"], _sample_device_with(coupler={**SAMPLE_DEVICE["coupler"], "g_ac_GHz": math.nan})),
        (["coupler-calibrate", "--device"], _sample_device_with(coupler={**SAMPLE_DEVICE["coupler"], "omega_c_GHz": math.nan})),
        # A bond label in a list: not a label, and not a dictionary key either.
        (["coupler-calibrate", "--device"], _sample_device_with(couplers=[{"bond": [["A,1"], "up,1"]}])),
        (
            ["verify", "--oracle", "effective_model", "--trace"],
            json.dumps(
                {
                    "kind": "population_trace",
                    "times": [0.0],
                    "populations": [[1.0, 0.0, 0.0, 0.0]],
                    "site_labels": ["A,1", "up,1", "dn,1", "A,2"],
                    "metadata": {
                        "lattice": {"l": 1, "fluxes": ["pi"]},
                        "init": "A,1",
                        "delta_antisym_over_J": "x",
                    },
                }
            ),
        ),
    ],
    ids=[
        "missing-trace",
        "bad-config-json",
        "bad-schedule-json",
        "three-column-responses",
        "responses-infinite",
        "responses-header-only",
        "responses-empty",
        "config-l-not-int",
        "config-duration-not-number",
        "config-j-mhz-negative",
        "config-l-fraction",
        "config-l-bool",
        "config-duration-bool",
        "config-duration-string",
        "config-dephasing-repeated",
        "lattice-j-mhz-string",
        "lattice-detuning-string",
        "lattice-detunings-list",
        "lattice-dephasing-string",
        "lattice-dephasing-nan",
        "lattice-dephasing-inf",
        "lattice-dephasing-us-negative-site",
        "lattice-dephasing-us-negative",
        "lattice-dephasing-us-nan",
        "lattice-dephasing-us-string",
        "lattice-j-mhz-overflows",
        "lattice-dephasing-rate-infinite",
        "lattice-l-too-many",
        "config-duration-overflows",
        "schedule-duration-numeric-string",
        "schedule-duration-string",
        "schedule-not-a-list",
        "trace-without-times",
        "device-list",
        "device-omega-string",
        "device-coupler-number",
        "device-qubits-list",
        "device-sweep-strings",
        "device-coupling-nan",
        "device-coupler-frequency-nan",
        "device-bond-label-list",
        "trace-delta-string",
    ],
)
def test_bad_input_file_exits_2(tmp_path, argv, content):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    assert main([*argv, str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


#: Stands in an argv for the trace ``passing_trace`` writes.
PASSING_TRACE = "<passing trace>"


@pytest.fixture(scope="module")
def passing_trace(tmp_path_factory):
    """An l = 2, pi-flux dynamics trace that the effective-model oracle passes."""
    out = tmp_path_factory.mktemp("trace")
    assert main(["dynamics", "--l", "2", "--flux", "pi", "--init", "A,2", "--outdir", str(out)]) == 0
    return out / "dynamics.json"


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "--l", "1", "--tmax", "abc"],
        ["detuning-sweep", "--delta", "abc"],
        ["spectroscopy", "--delta-range", "1:2:x"],
        ["spectroscopy", "--omega", "nan"],
        ["spectroscopy", "--duration", "inf"],
        ["adiabatic", "--j-mhz", "nan", "--dephasing-us", "1"],
        ["adiabatic", "--duration", "nan"],
        ["adiabatic", "--duration", "inf"],
        ["adiabatic", "--initial-detuning", "nan"],
        ["zak", "--delta-range", "nan:1:3"],
        ["coupler-calibrate", "--sweep", "0:inf:3"],
        # Finite ends whose span overflows.
        ["coupler-calibrate", "--sweep=-1e308:1e308:5"],
        ["dynamics", "--l", "1", "--points", "-1"],
        ["detuning-sweep", "--points", "-1"],
        ["crosstalk-fit", "--lines", "-1"],
        ["crosstalk-fit", "--lines", "0"],
        ["crosstalk-fit", "--lines", "1"],
        ["crosstalk-fit", "--points", "-1"],
        ["crosstalk-fit", "--noise", "-1"],
        ["crosstalk-fit", "--noise", "inf"],
        ["crosstalk-fit", "--noise", "nan"],
        ["adiabatic", "--l", "1", "--duration", "3", "--j-mhz", "-4.2"],
        ["adiabatic", "--l", "1", "--duration", "3", "--j-mhz", "inf"],
        ["dynamics", "--l", "1", "--j-mhz", "-4.2"],
        ["detuning-sweep", "--j-mhz", "0"],
        ["spectroscopy", "--j-mhz", "nan"],
        ["adiabatic", "--l", "1", "--duration", "3", "--j-mhz", "4.2", "--dephasing-us", "1,1.0"],
        ["adiabatic", "--l", "1", "--duration", "3", "--j-mhz", "4.2", "--dephasing-us", "10,3,1e1"],
        ["bands", "--model", "trimer", "--delta-over-sqrt2j", "nan"],
        ["crosstalk-fit", "--seed", "-1"],
        ["detuning-sweep", "--delta", ","],
        # Two tokens that name one file (sweep_phi*_delta0).
        ["detuning-sweep", "--l", "1", "--delta", "0,0,-2sqrt2", "--points", "7"],
        # 1e10 lines^2 * points: refused before any array is built.
        ["crosstalk-fit", "--lines", "100000"],
        ["crosstalk-fit", "--points", "1000000000"],
        # Counts above the MAX_POINTS ceiling: refused before any grid is built.
        ["dynamics", "--l", "1", "--points", "1000000000"],
        ["detuning-sweep", "--points", "1000000000"],
        ["spectroscopy", "--delta-range", "0:1:1000000000"],
        ["zak", "--delta-range", "0:1:1000000000"],
        # 1.1e8 substeps: refused by the budget before any array is built.
        ["adiabatic", "--l", "1", "--duration", "30", "--j-mhz", "4.2", "--dephasing-us", "1e-7"],
        # Both positive, but their product underflows to 0: an infinite rate.
        ["adiabatic", "--l", "1", "--duration", "1", "--j-mhz", "1e-200", "--dephasing-us", "1e-200"],
        # A trace that passes at the default tolerance.
        ["verify", "--trace", PASSING_TRACE, "--oracle", "effective_model", "--tolerance", "-1"],
        ["verify", "--trace", PASSING_TRACE, "--oracle", "effective_model", "--tolerance", "nan"],
        # Above the --nk (MAX_POINTS) and --l (MAX_PLAQUETTES) ceilings:
        # refused before any array is built.
        ["bands", "--nk", "1000000000000"],
        ["dynamics", "--l", "100000", "--points", "2"],
        # Refused on the command line, by argparse or by the option's kind;
        # main returns 2 and does not raise SystemExit.
        ["dynamics", "--l", "1", "--points", "abc"],
        ["dynamics", "--l", "1", "--no-such-option", "1"],
        ["verify", "--oracle", "analytic_l1"],
        ["bands", "--model", "cubic"],
        # Finite, but the Hamiltonian's symmetrization overflows.
        ["dynamics", "--l", "2", "--delta-antisym", "1.7e308"],
    ],
    ids=[
        "tmax",
        "delta",
        "delta-range-count",
        "omega-nan",
        "duration-inf",
        "adiabatic-j-mhz-nan",
        "adiabatic-duration-nan",
        "adiabatic-duration-inf",
        "adiabatic-initial-detuning-nan",
        "zak-range-nan",
        "coupler-sweep-inf",
        "coupler-sweep-span-overflows",
        "dynamics-points-negative",
        "sweep-points-negative",
        "crosstalk-lines-negative",
        "crosstalk-lines-0",
        "crosstalk-lines-1",
        "crosstalk-points-negative",
        "crosstalk-noise-negative",
        "crosstalk-noise-inf",
        "crosstalk-noise-nan",
        "adiabatic-j-mhz-negative",
        "adiabatic-j-mhz-inf",
        "dynamics-j-mhz-negative",
        "sweep-j-mhz-zero",
        "spectroscopy-j-mhz-nan",
        "adiabatic-dephasing-repeated",
        "adiabatic-dephasing-repeated-exponent",
        "bands-trimer-delta-nan",
        "crosstalk-seed-negative",
        "sweep-delta-empty",
        "sweep-delta-repeated",
        "crosstalk-lines-too-many",
        "crosstalk-points-too-many",
        "dynamics-points-too-many",
        "sweep-points-too-many",
        "spectroscopy-range-too-many",
        "zak-range-too-many",
        "adiabatic-substep-budget",
        "adiabatic-dephasing-rate-infinite",
        "verify-tolerance-negative",
        "verify-tolerance-nan",
        "bands-nk-too-many",
        "dynamics-l-too-many",
        "points-not-a-number",
        "unknown-option",
        "verify-trace-missing",
        "bands-model-unknown",
        "dynamics-delta-antisym-overflows",
    ],
)
def test_bad_argument_exits_2(tmp_path, request, argv):
    if PASSING_TRACE in argv:
        trace = str(request.getfixturevalue("passing_trace"))
        argv = [trace if arg == PASSING_TRACE else arg for arg in argv]
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # Finite and nonnegative, but the synthetic responses overflow.
        ["crosstalk-fit", "--noise", "1e308"],
        # Finite, but time times energy overflows and the amplitudes are NaN.
        ["dynamics", "--l", "2", "--tmax", "1.7e308"],
        ["spectroscopy", "--l", "1", "--omega", "1.7e308"],
    ],
    ids=["crosstalk-noise-overflow", "dynamics-tmax-overflows", "spectroscopy-omega-overflows"],
)
def test_infeasible_argument_exits_3(tmp_path, argv):
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tphi, count", [("1e-7", "5.68e+08"), ("1e-300", "5.68e+301")])
def test_substep_budget_names_the_count(tmp_path, capsys, tphi, count):
    argv = ["adiabatic", "--l", "1", "--duration", "30", "--j-mhz", "4.2", "--dephasing-us", tphi]
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 2
    assert f"the walk needs {count} substeps of at most" in capsys.readouterr().err


def test_overflowing_substep_count_is_refused_without_a_warning(tmp_path, capsys):
    # 100 gaps of 1e306, each of a finite count of steps, whose total
    # overflows: refused with the budget's message, and no numpy warning.
    argv = ["adiabatic", "--l", "1", "--flux", "pi", "--duration", "1e308", "--j-mhz", "4.2", "--dephasing-us", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--outdir", str(tmp_path / "out")]) == 2
    assert "the walk needs inf substeps of at most" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fallback_ground_populations_warn_and_keep_the_files(tmp_path):
    # At l = 2, flux pi an excitation on A,1 is caged away from the target
    # ground state (overlap 3.9e-18), so the ground populations fall back to
    # the lowest eigenvector.  The run says so, and writes the files it wrote
    # before it did (digests recorded then).
    argv = ["adiabatic", "--l", "2", "--flux", "pi", "--duration", "30", "--j-mhz", "4.2", "--dephasing-us", "1"]
    with pytest.warns(UserWarning, match="overlap 3.903e-18 .* fall back to the lowest eigenvector"):
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("ramp_fidelity.csv", "adiabatic.json")}
    assert digests == {
        "ramp_fidelity.csv": "f4cb56d6506d5aec6c365b3a584c58047dc44c68cc59b198ff97f55ea129d45a",
        "adiabatic.json": "3537ff26d1da6a4a94e8dac37317db1d7c75aca77bf003dc1bd73c3b1198f8ef",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "--l", "1", "--flux", "tau"],
        ["detuning-sweep", "--delta", ","],
        ["verify", "--trace", "missing.json", "--oracle", "analytic_l1"],
        # The sweep is computed, but no sign change lies in its window.
        ["coupler-calibrate", "--sweep", "8.5:9:5"],
    ],
    ids=["dynamics-flux", "sweep-delta-empty", "verify-missing-trace", "coupler-no-sign-change"],
)
def test_refused_run_leaves_no_directory(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--outdir", str(out)]) == 2
    assert not out.exists()


def test_refusal_names_the_option(tmp_path, capsys):
    assert main(["dynamics", "--l", "-1", "--outdir", str(tmp_path / "out")]) == 2
    assert f"--l must be an integer from 1 to {MAX_PLAQUETTES}, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--version"], ["dynamics", "--help"]], ids=["version", "help"])
def test_argparse_exit_code_is_returned(argv):
    assert main(argv) == 0


def test_failure_after_a_write_leaves_no_directory(tmp_path, monkeypatch):
    # crosstalk-fit has formed crosstalk_matrix.csv when the probe is corrected.
    def fail(*args):
        raise cli.NumericalError("injected")

    monkeypatch.setattr(cli, "crosstalk_correct", fail)
    out = tmp_path / "out"
    assert main(["crosstalk-fit", "--outdir", str(out)]) == 3
    assert not out.exists()


def test_config_fields_read_like_arguments(tmp_path):
    sample = data_path("adiabatic_sample.json")
    argv = [
        "--l", "1", "--flux", "pi", "--j-mhz", "4.2", "--init", "A,1", "--duration", "120",
        "--initial-detuning", "-4", "--dephasing-us", "1",
    ]
    assert main(["adiabatic", "--config", str(sample), "--outdir", str(tmp_path / "config")]) == 0
    assert main(["adiabatic", *argv, "--outdir", str(tmp_path / "argv")]) == 0
    for name in ("adiabatic.json", "ramp_fidelity.csv"):
        assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "argv" / name).read_bytes()


#: Values the generated command lines give one option: malformed, non-finite,
#: negative, near the float maximum, past each count ceiling, and bad site
#: labels, fluxes, ranges, lists, seeds and paths, with a few valid ones.
ODD_VALUES = [
    "nan", "inf", "-inf", "-1", "0", "-0.0", "1", "2.5", "abc", "",
    "1.7976931348623157e308", "-1.7976931348623157e308", "1e-300",
    str(MAX_POINTS + 1), str(MAX_PLAQUETTES + 1), "1000000000000", "99999999999999999999999",
    "Q,1", "A,0", "A,x", "up,999", "A,1", "tau", "pi/2", "2pi", "both",
    "0:1:0", "nan:1:3", "0:inf:3", "1:2:x", "0:1", f"0:1:{MAX_POINTS + 1}", "-1e308:1e308:5", "0.2:2:3",
    "1,1.0", "1,,10", ",", "missing.json", ".",
]


@pytest.fixture(scope="module")
def readme_argv(passing_trace):
    """Each subcommand's README argv, without ``--outdir``; verify reads ``passing_trace``."""
    argv = {}
    for command in quick_start_commands():
        i = command.index("--outdir")
        command = [str(passing_trace) if a == "out/dynamics.json" else a for a in command[:i] + command[i + 2:]]
        argv[command[0]] = command
    return argv


def _assert_clean_exit(argv, command):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main([*argv, f"--outdir={out}"])
        assert code in {0, 2, 3}
        if command == "verify" and code == 3:
            # A failed comparison is a finished run whose verdict is failure.
            assert json.loads((out / "verify_report.json").read_text())["passed"] is False
        elif code:
            assert not out.exists()
        else:
            # A run that succeeds writes only finite numbers.
            for path in out.glob("*.csv"):
                cells = {cell.strip().lower() for cell in path.read_text().replace("\n", ",").split(",")}
                assert not cells & {"nan", "inf", "-inf"}, path.name


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_generated_arguments_exit_cleanly(readme_argv, data):
    command = data.draw(st.sampled_from(sorted(readme_argv)))
    flags = sorted({o.flag for o in OPTIONS if command in o.defaults and o.flag != "--outdir"})
    flag = data.draw(st.sampled_from(flags))
    # "--flag=value" stops argparse reading "-1" as an option; the last value given wins.
    _assert_clean_exit([*readme_argv[command], f"{flag}={data.draw(st.sampled_from(ODD_VALUES))}"], command)


SAMPLE_CONFIG = json.loads(data_path("adiabatic_sample.json").read_text())

LEAVES = st.one_of(
    st.text(max_size=4),
    st.lists(st.sampled_from([1.0, 10.0, -1.0, 0.0, math.nan, math.inf, "x", None]), max_size=3),
    st.none(),
    st.dictionaries(st.sampled_from(["l", "A,1", "x"]), st.sampled_from([1, "x", None]), max_size=2),
    st.just(math.nan),
)


#: Each shipped input sample, with the argv that reads it from the path that follows.
INPUT_SAMPLES = {
    **{
        name: (json.loads(data_path(name).read_text()), ["dynamics", "--lattice"])
        for name in ("lattice_l1_0.json", "lattice_l1_pi.json", "lattice_l2_0.json", "lattice_l2_pi.json")
    },
    "sample_device.json": (SAMPLE_DEVICE, ["coupler-calibrate", "--device"]),
    "adiabatic_sample.json": (SAMPLE_CONFIG, ["adiabatic", "--config"]),
    # The schedule the README adiabatic command ramps through.
    "schedule": (
        schedule_to_json(two_stage_ramp(build_lattice(1, [PI]), "A,1", 30.0)),
        ["adiabatic", "--l=1", "--flux=pi", "--schedule"],
    ),
}

#: Perturbations that are not a plain value: one above the field's cap (l's
#: MAX_PLAQUETTES, else MAX_POINTS), the wrong container, and deletion.
ABOVE_CAP, WRONG_CONTAINER, DELETED = "<above cap>", "<wrong container>", "<deleted>"
#: Values that a number field refuses, or that stay cheap to run: no count
#: just under a cap.
PERTURBATIONS = [
    math.nan, math.inf, -math.inf, 1e308, ABOVE_CAP, True, False, 0.5, "1", WRONG_CONTAINER, DELETED,
]


def _paths(node, path=()):
    """The path of every value inside the JSON document ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _perturbed(doc, path, leaf):
    """A copy of ``doc`` with the value at ``path`` replaced by ``leaf``, or deleted."""
    doc = json.loads(json.dumps(doc))
    *head, key = path
    parent = functools.reduce(operator.getitem, head, doc)
    if leaf == DELETED:
        del parent[key]
    elif leaf == WRONG_CONTAINER:
        parent[key] = {} if isinstance(parent[key], list) else [parent[key]]
    else:
        parent[key] = (MAX_PLAQUETTES if key == "l" else MAX_POINTS) + 1 if leaf == ABOVE_CAP else leaf
    return doc


CASES = st.sampled_from(sorted(INPUT_SAMPLES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(list(_paths(INPUT_SAMPLES[name][0]))))
)


@given(case=CASES, leaf=st.sampled_from(PERTURBATIONS) | LEAVES)
@example(case=("sample_device.json", ("coupler", "g_ac_GHz")), leaf=math.nan)
@example(case=("sample_device.json", ("coupler", "omega_a_GHz")), leaf=1e308)
@settings(max_examples=100, deadline=None)
def test_generated_config_exits_cleanly(case, leaf):
    # Any shipped input file with one value, at any depth, changed or deleted.
    name, path = case
    doc, argv = INPUT_SAMPLES[name]
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(json.dumps(_perturbed(doc, path, leaf)))
        _assert_clean_exit([*argv, str(file)], argv[0])


def test_coupler_block_is_the_same_at_every_truncation(tmp_path):
    # The single-excitation block is formed directly, so a truncation whose
    # dense three-mode Hamiltonian would not fit in memory runs as well.
    files = {}
    for levels in ("2", "3", "100000"):
        out = tmp_path / levels
        assert main(["coupler-calibrate", "--levels", levels, "--outdir", str(out)]) == 0
        files[levels] = [(out / name).read_bytes() for name in ("coupler_sweep.csv", "coupler.json")]
    assert files["2"] == files["3"] == files["100000"]


def test_parser_lists_all_subcommands():
    parser = build_parser()
    subactions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    commands = set(subactions[0].choices)
    assert commands == {
        "dynamics",
        "detuning-sweep",
        "spectroscopy",
        "adiabatic",
        "bands",
        "zak",
        "coupler-calibrate",
        "crosstalk-fit",
        "verify",
    }
