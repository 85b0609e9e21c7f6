import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (
    PI,
    ConfigError,
    DephasingRates,
    NumericalError,
    RampSchedule,
    RampSegment,
    SpectroscopyConfig,
    adiabatic_prepare,
    analytic_plaquette_populations,
    HermitianOperator,
    build_lattice,
    caging_benchmark,
    evolve_amplitudes,
    hamiltonian_single_excitation,
    spectroscopy,
    two_stage_ramp,
    with_vacuum,
)
import fluxlattice
from fluxlattice import open_system, protocols
from fluxlattice.protocols import adiabatic_ramps

SQRT2 = math.sqrt(2.0)
TIMES = np.linspace(0.0, 4 * PI, 201)
GRID = np.linspace(-3.0, 3.0, 201)


class TestCagingBenchmark:
    @pytest.mark.parametrize("flux", [0.0, PI])
    @pytest.mark.parametrize("init", ["A,1", "up,1", "dn,1", "A,2"])
    def test_single_plaquette_matches_closed_form(self, flux, init):
        result = caging_benchmark(1, flux, init, TIMES)
        assert result.analytic_deviation < 1e-8

    def test_full_transfer_at_quarter_period(self):
        result = caging_benchmark(1, 0.0, "A,1", [PI / 2])
        assert result.trace.column("A,2")[0] == pytest.approx(1.0, abs=1e-10)

    def test_pi_flux_edge_sites_stay_dark(self):
        result = caging_benchmark(2, PI, "A,2", TIMES)
        assert result.trace.column("A,1").max() < 1e-9
        assert result.trace.column("A,3").max() < 1e-9
        assert result.analytic_deviation is None

    def test_time_zero_population(self):
        result = caging_benchmark(1, PI, "dn,1", [0.0])
        assert result.trace.column("dn,1")[0] == pytest.approx(1.0, abs=1e-12)

    def test_analytic_rejects_off_plaquette_site(self):
        with pytest.raises(ConfigError):
            analytic_plaquette_populations(PI, "up,2", [0.0])


class TestSpectroscopy:
    def test_pi_flux_two_peaks(self):
        result = spectroscopy(build_lattice(1, [PI]), SpectroscopyConfig("A,1", 0.05, GRID, 20.0))
        assert len(result.detected_peaks) == 2
        assert abs(result.detected_peaks[0] + SQRT2) < 0.05
        assert abs(result.detected_peaks[1] - SQRT2) < 0.05

    def test_zero_flux_three_peaks(self):
        result = spectroscopy(build_lattice(1, [0]), SpectroscopyConfig("A,1", 0.05, GRID, 20.0))
        assert len(result.detected_peaks) == 3
        for peak, expected in zip(result.detected_peaks, (-2.0, 0.0, 2.0)):
            assert abs(peak - expected) < 0.05

    def test_zero_amplitude_no_response(self):
        result = spectroscopy(build_lattice(1, [PI]), SpectroscopyConfig("A,1", 0.0, GRID, 20.0))
        assert result.detected_peaks == ()
        assert result.excited_population.max() == 0.0

    def test_dark_states_produce_no_peak(self):
        # The bulk zero modes and the +-2J block states have no weight on the
        # edge spine site, so driving it shows only the edge doublet.
        result = spectroscopy(build_lattice(2, [PI, PI]), SpectroscopyConfig("A,1", 0.05, GRID, 20.0))
        assert len(result.detected_peaks) == 2
        assert abs(abs(result.detected_peaks[0]) - SQRT2) < 0.05

    def test_peak_present_only_with_overlap(self):
        # Driving the central spine site of the pi-flux pair: only the bulk
        # +-2J doublet responds.
        result = spectroscopy(build_lattice(2, [PI, PI]), SpectroscopyConfig("A,2", 0.05, GRID, 20.0))
        assert len(result.detected_peaks) == 2
        assert abs(abs(result.detected_peaks[0]) - 2.0) < 0.05

    def test_bias_shrinks_with_drive_amplitude(self):
        def bias(omega):
            res = spectroscopy(build_lattice(1, [PI]), SpectroscopyConfig("A,1", omega, GRID, 20.0))
            return max(abs(abs(p) - SQRT2) for p in res.detected_peaks)

        b1, b2 = bias(0.1), bias(0.05)
        assert b2 <= 0.5 * b1 + 1e-6

    def test_requires_resonant_lattice(self):
        lat = build_lattice(1, [PI], {"A,1": 0.4})
        with pytest.raises(ConfigError):
            spectroscopy(lat, SpectroscopyConfig("A,1", 0.05, GRID, 20.0))

    def test_large_amplitude_warns(self):
        with pytest.warns(UserWarning, match="peaks may merge"):
            spectroscopy(build_lattice(1, [PI]), SpectroscopyConfig("A,1", 1.0, GRID, 5.0))

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            SpectroscopyConfig("A,1", 0.05, np.array([]), 20.0)
        with pytest.raises(ConfigError):
            SpectroscopyConfig("A,1", 0.05, np.array([1.0, 0.5]), 20.0)

    def test_csv_output(self, tmp_path):
        result = spectroscopy(build_lattice(1, [PI]), SpectroscopyConfig("A,1", 0.05, GRID, 20.0))
        result.write_csv(tmp_path / "s.csv")
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == "delta_over_J,excited_population"

    @pytest.mark.parametrize("omega", [0.0, 0.05])
    @pytest.mark.parametrize("drive", ["A,1", "up,1"])
    @pytest.mark.parametrize("flux", [0.0, PI])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_per_detuning_propagation(self, l, flux, drive, omega):
        # Reference: one validated operator and one exact propagation per detuning.
        lat = build_lattice(l, [flux] * l)
        config = SpectroscopyConfig(drive, omega, GRID, 20.0)
        base = with_vacuum(hamiltonian_single_excitation(lat)).matrix.copy()
        index = 1 + lat.site_index(drive)
        base[0, index] = base[index, 0] = omega
        number = np.ones(lat.num_sites + 1)
        number[0] = 0.0
        vac = np.zeros(lat.num_sites + 1, dtype=complex)
        vac[0] = 1.0
        t = np.linspace(0.75 * config.duration, config.duration, config.n_average)
        reference = [
            np.mean(1.0 - np.abs(evolve_amplitudes(HermitianOperator(base - np.diag(d * number)), vac, t)[:, 0]) ** 2)
            for d in GRID
        ]
        assert np.array_equal(spectroscopy(lat, config).excited_population, reference)

    @pytest.mark.parametrize(
        "amplitude, grid, duration",
        [(math.nan, GRID, 20.0), (math.inf, GRID, 20.0), (0.05, GRID, math.inf), (0.05, [0.0, math.inf], 20.0)],
        ids=["nan-amplitude", "inf-amplitude", "inf-duration", "inf-detuning"],
    )
    def test_non_finite_config_rejected(self, amplitude, grid, duration):
        with pytest.raises(ConfigError):
            SpectroscopyConfig("A,1", amplitude, grid, duration)


class TestRampSchedule:
    def test_two_stage_shape(self):
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        assert sched.total_duration == 30.0
        j_mid, det_mid = sched.at(7.5)
        assert j_mid == pytest.approx(0.5)
        assert det_mid[next(iter(det_mid))] == pytest.approx(-4.0)
        j_end, det_end = sched.at(30.0)
        assert j_end == pytest.approx(1.0)
        assert all(abs(v) < 1e-12 for v in det_end.values())

    def test_discontinuous_rejected(self):
        seg1 = RampSegment(1.0, 0.0, 0.5)
        seg2 = RampSegment(1.0, 0.6, 1.0)
        with pytest.raises(ConfigError):
            RampSchedule((seg1, seg2))

    def test_detuning_discontinuity_rejected(self):
        seg1 = RampSegment(1.0, 0.0, 1.0, {"A,1": -4.0}, {"A,1": -4.0})
        seg2 = RampSegment(1.0, 1.0, 1.0, {"A,1": -3.0}, {"A,1": 0.0})
        with pytest.raises(ConfigError):
            RampSchedule((seg1, seg2))

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, 0.0, 1.0),
            (math.inf, 0.0, 1.0),
            (1.0, 0.0, math.nan),
            (1.0, math.inf, 1.0),
            (1.0, 0.0, 1.0, {"A,1": math.nan}),
            (1.0, 0.0, 1.0, {}, {"A,1": -math.inf}),
        ],
        ids=["duration-nan", "duration-inf", "j-nan", "j-inf", "detuning-nan", "detuning-inf"],
    )
    def test_non_finite_segment_rejected(self, args):
        with pytest.raises(ConfigError, match="finite"):
            RampSegment(*args)

    def test_positive_initial_detuning_rejected(self):
        lat = build_lattice(1, [PI])
        with pytest.raises(ConfigError):
            two_stage_ramp(lat, "A,1", 10.0, initial_detuning=2.0)

    def test_json_roundtrip(self):
        from fluxlattice import schedule_from_json, schedule_to_json

        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        restored = schedule_from_json(schedule_to_json(sched))
        assert restored.total_duration == sched.total_duration
        for t in (0.0, 10.0, 22.5, 30.0):
            j_a, det_a = sched.at(t)
            j_b, det_b = restored.at(t)
            assert j_a == pytest.approx(j_b)
            assert det_a == det_b

    def test_vector_evaluation_matches_at_and_scalar_reference(self):
        """The per-segment vectors, ``at`` and the scalar segment walk agree exactly."""

        def reference(schedule, t):
            # The segment walk and interpolation of a single time, one float at a time.
            if t <= 0:
                first = schedule.segments[0]
                return first.j_start, dict(first.detuning_start)
            remaining = t
            for seg in schedule.segments:
                if remaining <= seg.duration or seg is schedule.segments[-1]:
                    frac = 1.0 if seg.duration == 0 else min(remaining / seg.duration, 1.0)
                    det = {
                        s: seg.detuning_start.get(s, 0.0)
                        + frac * (seg.detuning_end.get(s, 0.0) - seg.detuning_start.get(s, 0.0))
                        for s in set(seg.detuning_start) | set(seg.detuning_end)
                    }
                    return seg.j_start + frac * (seg.j_end - seg.j_start), det
                remaining -= seg.duration

        lat = build_lattice(2, [PI, 0.0])
        sched = RampSchedule(
            (
                RampSegment(3.7, 0.0, 0.6, {"A,1": -4.0, "up,2": 0.3}, {"A,1": -4.0, "up,2": 0.1}),
                # Zero duration: the detuning of dn,1 jumps here.
                RampSegment(0.0, 0.6, 0.6, {"A,1": -4.0, "up,2": 0.1}, {"A,1": -4.0, "up,2": 0.1, "dn,1": 0.7}),
                RampSegment(5.3, 0.6, 1.0, {"A,1": -4.0, "up,2": 0.1, "dn,1": 0.7}, {"A,3": 0.2}),
            )
        )
        times = [-1.0, 0.0, 1e-9, 1.3, 3.7, 3.7 + 1e-12, 6.1, 9.0, 9.0 + 1e-12, 12.5]
        j, det = sched.evaluator(lat.sites)(np.array(times))
        for i, t in enumerate(times):
            j_ref, det_ref = reference(sched, t)
            j_at, det_at = sched.at(t)
            assert j[i] == j_at == j_ref
            for site in lat.sites:
                column = lat.site_index(site)
                assert det[i, column] == det_at.get(site, 0.0) == det_ref.get(site, 0.0)

        only_jump = RampSchedule((RampSegment(0.0, 0.0, 1.0, {"A,1": -4.0}, {"A,1": -1.0}),))
        for t in (0.0, 2.0):
            assert only_jump.at(t) == reference(only_jump, t)

    def test_json_missing_field(self):
        from fluxlattice import schedule_from_json

        with pytest.raises(ConfigError):
            schedule_from_json([{"duration": 1.0, "j_start": 0.0}])


class TestAdiabaticPreparation:
    @pytest.mark.parametrize("flux", [0.0, PI])
    def test_reaches_ground_state(self, flux):
        lat = build_lattice(1, [flux])
        result = adiabatic_prepare(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1")
        assert result.final_gs_overlap > 0.99
        assert result.population_fidelity > 0.99

    def test_population_patterns(self):
        lat0 = build_lattice(1, [0.0])
        r0 = adiabatic_prepare(lat0, two_stage_ramp(lat0, "A,1", 30.0), "A,1")
        assert np.allclose(r0.final_populations, 0.25, atol=0.02)
        latp = build_lattice(1, [PI])
        rp = adiabatic_prepare(latp, two_stage_ramp(latp, "A,1", 30.0), "A,1")
        assert np.allclose(rp.final_populations, [0.5, 0.25, 0.25, 0.0], atol=0.02)

    def test_longer_ramps_do_not_degrade(self):
        lat = build_lattice(1, [0.0])
        overlaps = [
            adiabatic_prepare(lat, two_stage_ramp(lat, "A,1", dur), "A,1").final_gs_overlap
            for dur in (10.0, 20.0, 40.0, 80.0)
        ]
        for shorter, longer in zip(overlaps, overlaps[1:]):
            assert longer >= shorter - 1e-3

    def test_zero_duration_returns_initial_overlap(self):
        lat = build_lattice(1, [PI])
        sched = RampSchedule((RampSegment(0.0, 0.0, 0.0, {"A,1": -4.0}, {"A,1": -4.0}),))
        result = adiabatic_prepare(lat, sched, "A,1")
        assert result.final_gs_overlap == pytest.approx(0.5, abs=1e-12)
        lat0 = build_lattice(1, [0.0])
        result0 = adiabatic_prepare(lat0, sched, "A,1")
        assert result0.final_gs_overlap == pytest.approx(0.25, abs=1e-12)

    def test_schedule_must_start_decoupled(self):
        lat = build_lattice(1, [PI])
        bad = RampSchedule((RampSegment(10.0, 0.5, 1.0, {"A,1": -4.0}, {}),))
        with pytest.raises(ConfigError, match="decoupled"):
            adiabatic_prepare(lat, bad, "A,1")

    def test_initial_detuning_must_separate(self):
        lat = build_lattice(1, [PI])
        bad = RampSchedule(
            (
                RampSegment(10.0, 0.0, 1.0, {"A,1": -2.0}, {"A,1": -2.0}),
                RampSegment(10.0, 1.0, 1.0, {"A,1": -2.0}, {"A,1": 0.0}),
            )
        )
        with pytest.raises(ConfigError, match="3 J below"):
            adiabatic_prepare(lat, bad, "A,1")

    def test_needs_a_checkpoint(self):
        lat = build_lattice(1, [PI])
        with pytest.raises(ConfigError, match="checkpoint"):
            adiabatic_prepare(lat, two_stage_ramp(lat, "A,1", 12.0), "A,1", n_checkpoints=0)

    def test_schedule_must_end_on_target(self):
        lat = build_lattice(1, [PI])
        bad = RampSchedule((RampSegment(10.0, 0.0, 0.7, {"A,1": -4.0}, {"A,1": 0.0}),))
        with pytest.raises(ConfigError, match="target coupling"):
            adiabatic_prepare(lat, bad, "A,1")

    def test_near_crossing_warns(self):
        lat = build_lattice(1, [PI], {"A,2": 1e-7})
        sched = two_stage_ramp(lat, "A,1", 6.0)
        # The end configuration splits the two lowest levels by ~5e-8 J.
        sched = RampSchedule(
            (
                sched.segments[0],
                RampSegment(3.0, 1.0, 1.0, {"A,1": -4.0}, {"A,1": 0.0, "A,2": 1e-7}),
            )
        )
        with pytest.warns(UserWarning, match="level crossing"):
            adiabatic_prepare(lat, sched, "A,1", n_checkpoints=11)

    def test_low_gaps_warn_once_at_the_first(self):
        # The near crossing of test_near_crossing_warns, held for a third
        # segment: the last five of 13 checkpoints are below 1e-6 J.
        lat = build_lattice(1, [PI], {"A,2": 1e-7})
        sched = RampSchedule((
            two_stage_ramp(lat, "A,1", 6.0).segments[0],
            RampSegment(3.0, 1.0, 1.0, {"A,1": -4.0}, {"A,1": 0.0, "A,2": 1e-7}),
            RampSegment(3.0, 1.0, 1.0, {"A,2": 1e-7}, {"A,2": 1e-7}),
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            closed, _ = adiabatic_ramps(lat, sched, "A,1", n_checkpoints=13)
        assert np.flatnonzero(closed.gaps < 1e-6).tolist() == [8, 9, 10, 11, 12]
        assert [str(w.message) for w in caught] == [
            "instantaneous gap 5.000e-08 below 1e-6 J at Jt=6: possible level crossing"
        ]
        assert caught[0].filename == __file__

    def test_fallback_ground_populations_warn_once(self):
        # At l = 2, flux pi the final closed state has no weight in the
        # target ground space (an excitation on A,1 is caged away from it),
        # so its ground populations fall back to the lowest eigenvector, and
        # the ramp says so once, naming the overlap.
        lat = build_lattice(2, [PI] * 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            closed, _ = adiabatic_ramps(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1")
        assert abs(closed.final_gs_overlap) < 1e-12
        assert [(w.category, str(w.message)) for w in caught] == [(
            UserWarning,
            f"final closed state has overlap {closed.final_gs_overlap:.3e} with the target ground space: "
            "ground_populations fall back to the lowest eigenvector of the target Hamiltonian",
        )]
        assert caught[0].filename == __file__

    def test_readme_ramp_warns_nothing(self):
        lat = build_lattice(1, [PI])
        rates = [DephasingRates.uniform(4, 1.0 / (tphi * 2 * PI * 4.2)) for tphi in (1.0, 10.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adiabatic_ramps(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1", rates)

    def test_step_rule_sees_the_norm_at_every_boundary(self, monkeypatch):
        # A detuning spike to -40 J at Jt = 10.8, a segment boundary between
        # the 17 evenly spaced samples a norm bound once took (29.3 there).
        lat = build_lattice(1, [PI])
        sched = RampSchedule((
            RampSegment(10.3, 0.0, 1.0, {"A,1": -4.0}, {"A,1": -4.0}),
            RampSegment(0.5, 1.0, 1.0, {"A,1": -4.0}, {"A,1": -40.0}),
            RampSegment(0.5, 1.0, 1.0, {"A,1": -40.0}, {"A,1": -4.0}),
            RampSegment(10.0, 1.0, 1.0, {"A,1": -4.0}, {"A,1": 0.0}),
        ))
        norms = []
        original = open_system.rk4_max_step

        def rule(h_norm, max_rate):
            norms.append(h_norm)
            return original(h_norm, max_rate)

        monkeypatch.setattr(open_system, "rk4_max_step", rule)
        adiabatic_ramps(lat, sched, "A,1", n_checkpoints=11)
        offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        times = np.concatenate([np.linspace(0.0, sched.total_duration, 4001), offsets])
        peak = np.abs(np.linalg.eigvalsh(protocols._ramp_hamiltonians(lat, sched)(times))).max()
        assert peak > 40.0
        assert norms == [pytest.approx(peak, rel=1e-12)]

    def test_dephasing_lowers_fidelity_ordering(self):
        j_mhz = 4.2
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        fids = {}
        for tphi in (1.0, 10.0):
            gamma = 1.0 / (tphi * 2 * PI * j_mhz)
            run = adiabatic_prepare(lat, sched, "A,1", DephasingRates.uniform(4, gamma), n_checkpoints=31)
            fids[tphi] = run.population_fidelity
        assert fids[1.0] < fids[10.0]
        assert fids[10.0] <= 1.0

    @pytest.mark.parametrize("flux", [0.0, PI])
    def test_zero_rate_dephased_ramp_matches_closed(self, flux):
        lat = build_lattice(1, [flux])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        closed = adiabatic_prepare(lat, sched, "A,1", n_checkpoints=31)
        open_run = adiabatic_prepare(lat, sched, "A,1", DephasingRates.uniform(4, 0.0), n_checkpoints=31)
        # Without decay the split walk is the closed walk: one integrator.
        assert np.abs(open_run.gs_fidelity - closed.gs_fidelity).max() < 1e-12
        assert np.abs(open_run.final_populations - closed.final_populations).max() < 1e-12
        assert abs(open_run.final_gs_overlap - closed.final_gs_overlap) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0379, 9.0])
    @pytest.mark.parametrize("flux", [0.0, PI])
    @pytest.mark.parametrize("l", [1, 2])
    def test_dephased_ground_populations_are_the_closed_ones(self, l, flux, gamma):
        # gamma = 9 exceeds the Hamiltonian norm bound, so the dephased step is
        # shorter than the closed one; the reference must not depend on it.
        lat = build_lattice(l, [flux] * l)
        sched = two_stage_ramp(lat, "A,1", 12.0)
        closed = adiabatic_prepare(lat, sched, "A,1", n_checkpoints=11)
        rates = DephasingRates.uniform(lat.num_sites, gamma)
        open_run = adiabatic_prepare(lat, sched, "A,1", rates, n_checkpoints=11)
        assert np.array_equal(open_run.ground_populations, closed.ground_populations)
        assert np.array_equal(open_run.gaps, closed.gaps)

    def test_dephased_ramp_runs_once(self, monkeypatch):
        calls = []
        original = protocols.adiabatic_prepare

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(protocols, "adiabatic_prepare", counting)
        lat = build_lattice(1, [PI])
        rates = DephasingRates.uniform(4, 0.0379)
        protocols.adiabatic_prepare(lat, two_stage_ramp(lat, "A,1", 12.0), "A,1", rates, n_checkpoints=11)
        assert len(calls) == 1

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "loop"])
    @pytest.mark.parametrize("gammas", [(0.0379,), (0.0379, 0.0038)], ids=["one-set", "two-sets"])
    def test_loose_rule_keeps_the_trace(self, monkeypatch, gammas, batched):
        # With 11 checkpoints the step rule, not the checkpoint spacing, sets the
        # step; at a 1000x looser rule (one step per gap) the split walk, which
        # has no stability limit, still keeps every trace to round-off (3e-15
        # batched, 1.6e-14 looping), though its states are far from the
        # dynamics and not positive, so the walk is stopped at its end.
        class Walked(Exception):
            pass

        monkeypatch.setattr(open_system, "STEP_SAFETY", 10.0)
        monkeypatch.setattr(open_system, "_batch_pays", lambda *a, **k: batched)
        drifts = []
        substeps = open_system._substeps

        def spy(state, *args):
            for i, time, walked in substeps(state, *args):
                if walked.ndim == 3:
                    drifts.append(np.abs(walked.trace(axis1=1, axis2=2) - 1.0).max())
                yield i, time, walked
            if state.ndim == 3:
                raise Walked

        monkeypatch.setattr(open_system, "_substeps", spy)
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0, -4.0)
        rate_sets = [DephasingRates.uniform(4, gamma) for gamma in gammas]
        with pytest.raises(Walked):
            adiabatic_ramps(lat, sched, "A,1", rate_sets, n_checkpoints=11)
        assert len(drifts) == 11
        assert max(drifts) < 1e-13

    @pytest.mark.parametrize("corrupt", [math.nan, 1.0 + 1e-5], ids=["non-finite", "drifted"])
    @pytest.mark.parametrize("gammas", [(0.0379,), (0.0379, 0.0038)], ids=["one-set", "two-sets"])
    def test_bad_trace_raises(self, monkeypatch, gammas, corrupt):
        # ``_substeps`` checks every density-matrix trace at each checkpoint;
        # a walk that lost its trace, or every bit of it, is refused.
        substeps = open_system._substeps

        def corrupting(state, grid, step, advance):
            def bad(rho, *args):
                out = advance(rho, *args)
                return out * corrupt if out.ndim == 3 else out

            return substeps(state, grid, step, bad)

        monkeypatch.setattr(open_system, "_substeps", corrupting)
        lat = build_lattice(1, [PI])
        rate_sets = [DephasingRates.uniform(4, gamma) for gamma in gammas]
        with pytest.raises(NumericalError, match="trace drifted"):
            adiabatic_ramps(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1", rate_sets, n_checkpoints=11)

    @staticmethod
    def _assert_same_result(a, b):
        for name in ("times", "gs_fidelity", "gaps", "final_populations", "ground_populations"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        for name in ("final_gs_overlap", "population_fidelity", "population_fidelity_raw"):
            assert getattr(a, name) == getattr(b, name), name

    @pytest.mark.parametrize("flux", [0.0, PI])
    @pytest.mark.parametrize("l", [1, 2])
    def test_stacked_ramps_match_separate_runs(self, l, flux):
        # Every rate is below the Hamiltonian norm bound, so each set's own
        # step is the shared one and the stack changes no bit.
        lat = build_lattice(l, [flux] * l)
        sched = two_stage_ramp(lat, "A,1", 6.0)
        rate_sets = [
            DephasingRates.uniform(lat.num_sites, 0.0379),
            DephasingRates.uniform(lat.num_sites, 0.0038),
            DephasingRates(np.linspace(0.0, 0.1, lat.num_sites)),
        ]
        closed, dephased = adiabatic_ramps(lat, sched, "A,1", rate_sets, n_checkpoints=11)
        self._assert_same_result(closed, adiabatic_prepare(lat, sched, "A,1", n_checkpoints=11))
        assert adiabatic_ramps(lat, sched, "A,1", n_checkpoints=11)[1] == ()
        assert len(dephased) == len(rate_sets)
        for rates, run in zip(rate_sets, dephased):
            self._assert_same_result(run, adiabatic_prepare(lat, sched, "A,1", rates, n_checkpoints=11))

    def test_large_rate_sets_the_shared_step(self):
        # gamma = 9 exceeds the norm bound: its own step is the shared one, and
        # the other set, stepped finer than alone, moves by far less than 1e-7.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 12.0)
        slow, fast = (DephasingRates.uniform(4, gamma) for gamma in (0.0379, 9.0))
        _, (slow_run, fast_run) = adiabatic_ramps(lat, sched, "A,1", [slow, fast], n_checkpoints=11)
        self._assert_same_result(fast_run, adiabatic_prepare(lat, sched, "A,1", fast, n_checkpoints=11))
        alone = adiabatic_prepare(lat, sched, "A,1", slow, n_checkpoints=11)
        assert not np.array_equal(slow_run.gs_fidelity, alone.gs_fidelity)
        assert np.abs(slow_run.gs_fidelity - alone.gs_fidelity).max() < 1e-7
        assert np.abs(slow_run.final_populations - alone.final_populations).max() < 1e-7
        assert abs(slow_run.population_fidelity - alone.population_fidelity) < 1e-7


def _three_segment_ramp(lat, duration=30.0):
    """Couplings up, then the initial-site detuning back to zero in two legs of unequal slope."""
    site, j, scale = lat.sites[0], lat.J, duration / 30.0
    return RampSchedule((
        RampSegment(10.3 * scale, 0.0, j, {site: -4.0 * j}, {site: -4.0 * j}),
        RampSegment(9.4 * scale, j, j, {site: -4.0 * j}, {site: -1.5 * j}),
        RampSegment(10.3 * scale, j, j, {site: -1.5 * j}, {site: 0.0}),
    ))


def _node_unitaries(hamiltonians, start, stop, dt):
    """The Chebyshev points of ``[start, stop]`` and the closed split steps of length ``dt`` starting there."""
    nodes = open_system._chebyshev_nodes(start, stop)
    return nodes, open_system._split_step_unitaries(open_system._split_unitaries(hamiltonians, nodes, dt))


def _node_maps(hamiltonians, decay, start, stop, dt):
    """The Chebyshev points of ``[start, stop]`` and the maps of the split steps of length ``dt`` starting there."""
    nodes = open_system._chebyshev_nodes(start, stop)
    return nodes, open_system._split_step_maps(open_system._split_unitaries(hamiltonians, nodes, dt), decay, dt)


def _ramp(lat, sched, grid):
    """The ``open_system._Ramp`` of a closed ramp walked on ``grid``, and the walk's initial state."""
    hamiltonians = protocols._ramp_hamiltonians(lat, sched)
    offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
    norm_bound = float(np.abs(np.linalg.eigvalsh(hamiltonians(offsets))).max())
    psi0 = np.zeros(lat.num_sites, dtype=complex)
    psi0[lat.site_index(lat.sites[0])] = 1.0
    return open_system._Ramp(hamiltonians, offsets, grid, norm_bound), psi0


def _reference_closed_walk(ramp, psi):
    """``open_system._closed_walk`` step by step on its plan: Yoshida's three midpoint sub-steps, each exact."""
    hamiltonians, states = ramp.hamiltonians, []
    for start, count, dt in zip(*open_system._plan(ramp.grid, ramp.offsets, ramp.closed_step)[:3]):
        midpoints, lengths = [], []
        for k in range(count):
            t = start + k * dt
            for c in open_system._TRIPLE_JUMP:
                midpoints.append(t + 0.5 * c * dt)
                lengths.append(c * dt)
                t += c * dt
        # One eigh per sub-step, stacked over the gap.
        energies, vectors = np.linalg.eigh(hamiltonians(np.array(midpoints)))
        for phase, v in zip(np.exp(-1j * energies * np.array(lengths)[:, None]), vectors):
            psi = v @ (phase * (v.conj().T @ psi))
        states.append(psi)
    return np.array(states)


def _reference_split_walk(ramp, decay, stack):
    """``open_system._split_walk``'s batched branch step by step: each interpolated step map applied on its own."""
    sets, n = decay.shape[:2]
    vec, node_sets, states, offsets = stack.reshape(sets, n * n, 1), {}, [], ramp.offsets
    for start, count, dt, segment in zip(*open_system._plan(ramp.grid, offsets, ramp.split_step)[:4]):
        if (segment, dt) not in node_sets:
            node_sets[segment, dt] = _node_maps(
                partial(ramp.hamiltonians, segment=segment), decay, *offsets[segment:segment + 2], dt
            )
        nodes, maps = node_sets[segment, dt]
        for weights in open_system._lagrange_weights(nodes, start + np.arange(count) * dt):
            vec = (weights @ maps.reshape(sets, nodes.size, -1)).reshape(sets, n * n, n * n) @ vec
        states.append(vec.reshape(stack.shape))
    return np.array(states)


class TestSplitStepRamp:
    """The dephased ramp is a Yoshida split-step walk: fourth order, with schedule kinks on step edges."""

    @staticmethod
    def _kinked():
        # Both segment boundaries (Jt = 10.3 and 19.7) fall inside gaps of the 8 checkpoints.
        lat = build_lattice(1, [PI])
        return lat, _three_segment_ramp(lat)

    @staticmethod
    def _outputs(run):
        return np.concatenate([run.final_populations, run.gs_fidelity, [run.final_gs_overlap]])

    def test_fourth_order_across_kinks(self, monkeypatch):
        lat, sched = self._kinked()
        rates = DephasingRates.uniform(4, 0.0379)

        def outputs(safety):
            monkeypatch.setattr(open_system, "STEP_SAFETY", safety)
            return self._outputs(adiabatic_prepare(lat, sched, "A,1", rates, n_checkpoints=8))

        reference = outputs(0.04 / 16)
        errors = [np.abs(outputs(0.04 / 2**k) - reference).max() for k in range(3)]
        # Split safeties 0.4, 0.2 and 0.1 (the default) against 0.025; finer
        # steps reach the round-off floor of about 1e-11.  With a kink inside
        # a step the error falls at second order, and unevenly.
        assert errors[0] / errors[1] >= 2**3.5
        assert errors[1] / errors[2] >= 2**3.5

    def test_boundaries_add_no_rows(self):
        lat, sched = self._kinked()
        closed, (run,) = adiabatic_ramps(lat, sched, "A,1", [DephasingRates.uniform(4, 0.0379)], n_checkpoints=8)
        expected = np.linspace(0.0, sched.total_duration, 8)
        for result in (closed, run):
            assert np.array_equal(result.times, expected)
            assert result.gs_fidelity.shape == result.gaps.shape == (8,)

    @pytest.mark.parametrize("flux, midpoint_error", [(0.0, 1.31e-7), (PI, 1.55e-7)])
    def test_more_accurate_than_midpoint_walk(self, monkeypatch, flux, midpoint_error):
        # midpoint_error: the largest deviation of the walk that froze H at
        # substep midpoints, at the default rule, from the same reference
        # (the split walk's is 8.0e-9 at flux 0 and 7.2e-9 at flux pi).
        lat = build_lattice(1, [flux])
        sched = two_stage_ramp(lat, "A,1", 6.0)
        rates = DephasingRates.uniform(4, 0.0379)
        run = self._outputs(adiabatic_prepare(lat, sched, "A,1", rates, n_checkpoints=11))
        monkeypatch.setattr(open_system, "STEP_SAFETY", 0.001)
        reference = self._outputs(adiabatic_prepare(lat, sched, "A,1", rates, n_checkpoints=11))
        assert np.abs(run - reference).max() < midpoint_error / 10

    def test_rate_limited_step_keeps_its_accuracy(self, monkeypatch):
        # A rate of 37.9 J (T_phi = 0.001 us at J = 4.2 MHz), above the norm of
        # H, sets the step.  Weighing the rate SPLIT_RATE_WEIGHT = 5 times
        # keeps the walk 3.7e-10 from a run at a 10x shorter step; with the
        # rate weighed once, as H is, it would be 2.5e-7 off.
        lat = build_lattice(1, [0.0])
        sched = two_stage_ramp(lat, "A,1", 3.0)
        rates = DephasingRates.uniform(4, 1.0 / (0.001 * 2 * PI * 4.2))
        run = self._outputs(adiabatic_prepare(lat, sched, "A,1", rates, n_checkpoints=11))
        monkeypatch.setattr(open_system, "STEP_SAFETY", 0.001)
        reference = self._outputs(adiabatic_prepare(lat, sched, "A,1", rates, n_checkpoints=11))
        assert np.abs(run - reference).max() < 1e-9


class TestSplitStepUnitaries:
    @given(
        st.integers(1, 4),
        st.sampled_from([0.0, PI]),
        st.booleans(),
        st.integers(0, 5),
        st.floats(0.0, 1.0),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_interpolant_is_the_triple_jump(self, l, flux, three, segment, where, fraction):
        # Inside a segment the closed split step, Yoshida's triple jump of
        # midpoint unitaries, is an entire function of its start t; the
        # degree-6 interpolant through its Chebyshev nodes matches it
        # anywhere, at any step the rule allows.
        lat = build_lattice(l, [flux] * l)
        sched = _three_segment_ramp(lat) if three else two_stage_ramp(lat, "A,1", 30.0)
        segment %= len(sched.segments)
        hamiltonians = protocols._ramp_hamiltonians(lat, sched)
        offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        # H is affine on each segment, so its norm peaks at a boundary.
        norm = max(open_system.spectral_norm(h) for h in hamiltonians(offsets))
        dt = fraction * open_system.SPLIT_STEP_FACTOR * open_system.rk4_max_step(norm, 0.0)
        nodes, maps = _node_unitaries(partial(hamiltonians, segment=segment), offsets[segment], offsets[segment + 1], dt)
        start = offsets[segment] + where * (offsets[segment + 1] - offsets[segment] - dt)
        weights = open_system._lagrange_weights(nodes, np.array([start]))
        u = (weights @ maps.reshape(nodes.size, -1)).reshape(maps.shape[1:])
        exact, t = np.eye(lat.num_sites), start
        for c in open_system._TRIPLE_JUMP:
            energies, vectors = np.linalg.eigh(hamiltonians(np.array([t + 0.5 * c * dt]), segment)[0])
            exact = (vectors * np.exp(-1j * energies * c * dt)) @ vectors.conj().T @ exact
            t += c * dt
        assert np.abs(u - exact).max() < 1e-13
        assert np.abs(u.conj().T @ u - np.eye(lat.num_sites)).max() < 1e-13


class TestClosedWalk:
    @given(
        st.integers(1, 3),
        st.sampled_from([0.0, PI]),
        st.booleans(),
        st.floats(0.1, 6.0),
        st.integers(2, 101),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_reference_walk(self, l, flux, three, duration, n_checkpoints):
        # Interpolated unitaries multiplied chunk by chunk against exact ones
        # taken one at a time, on the ramp's grid: the checkpoints plus the
        # segment boundaries, which mostly fall inside checkpoint gaps.
        lat = build_lattice(l, [flux] * l)
        sched = _three_segment_ramp(lat, duration) if three else two_stage_ramp(lat, "A,1", duration)
        offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        grid = np.unique(np.concatenate([np.linspace(0.0, offsets[-1], n_checkpoints), offsets[1:-1]]))
        ramp, psi0 = _ramp(lat, sched, grid)
        walked = open_system._closed_walk(ramp, psi0)
        assert walked.shape == (grid.size, lat.num_sites)
        reference = _reference_closed_walk(ramp, psi0)
        assert np.abs(walked - reference).max() < 1e-12

    @pytest.mark.parametrize("flux", [0.0, PI])
    def test_fourth_order_accuracy(self, monkeypatch, flux):
        # The README ramp against a run at a tenth of the step: 5.7e-10 at
        # flux 0 and 1.0e-9 at pi.  A second-order walk of midpoint
        # unitaries, at ten times as many substeps, is 1.2e-8 and 2.6e-8 off.
        lat = build_lattice(1, [flux])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        run = TestSplitStepRamp._outputs(adiabatic_prepare(lat, sched, "A,1"))
        monkeypatch.setattr(open_system, "STEP_SAFETY", 0.001)
        reference = TestSplitStepRamp._outputs(adiabatic_prepare(lat, sched, "A,1"))
        assert np.abs(run - reference).max() < 2e-9


def _exact_split_step(h, decay, t, dt, rho):
    """One split step in Hilbert space, sub-step by sub-step: ``D(s/2) U D(s/2)`` for each of Yoshida's three."""
    for c in open_system._TRIPLE_JUMP:
        sub = c * dt
        half = np.exp(-0.5 * sub * decay)
        energies, vectors = np.linalg.eigh(h(t + 0.5 * sub))
        u = (vectors * np.exp(-1j * energies * sub)) @ vectors.conj().T
        rho = half * (u @ (half * rho) @ u.conj().T)
        t += sub
    return rho


def _affine_split_step_case(rng, dim, sets):
    """H affine in time on [start, stop], a stack of dephasing decay matrices, and a unit-norm Hermitian rho."""
    a, b, rho = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    a, b = a + a.conj().T, b + b.conj().T
    decay = np.array([
        open_system._collapse_terms(open_system.dephasing_operators(rng.uniform(0, 1, dim), dim + 1))[0][1:, 1:]
        for _ in range(sets)
    ])
    start = rng.uniform(0, 30)
    stop = start + rng.uniform(1, 10)

    def hamiltonians(times):
        return a + ((np.asarray(times)[:, None, None] - start) / (stop - start)) * b

    rho = rho + rho.conj().T
    return hamiltonians, decay, rho / np.linalg.norm(rho), start, stop


class TestSplitStepMaps:
    @given(
        st.integers(2, 5),
        st.integers(1, 3),
        st.floats(1e-3, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_node_maps_are_the_split_step(self, dim, sets, dt, seed):
        # Each node map is the merged product of the three Strang sub-steps,
        # each with its own midpoint H, applied to the flattened rho.
        rng = np.random.default_rng(seed)
        hamiltonians, decay, rho, start, stop = _affine_split_step_case(rng, dim, sets)
        nodes, maps = _node_maps(hamiltonians, decay, start, stop, dt)
        assert maps.shape == (sets, open_system.SPLIT_NODES, dim * dim, dim * dim)
        for r in range(sets):
            for node, step_map in zip(nodes, maps[r]):
                expected = _exact_split_step(lambda t: hamiltonians([t])[0], decay[r], node, dt, rho)
                assert np.abs((step_map @ rho.reshape(-1)).reshape(dim, dim) - expected).max() < 1e-13

    @given(st.integers(2, 5), st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_maps_keep_the_trace_at_any_step(self, dim, dt, seed):
        # The unitaries keep the trace and the decay leaves the diagonal
        # alone, so no step length breaks it: no stability limit.
        rng = np.random.default_rng(seed)
        hamiltonians, decay, _, start, stop = _affine_split_step_case(rng, dim, 2)
        _, maps = _node_maps(hamiltonians, decay, start, stop, dt)
        trace = np.eye(dim).reshape(-1)
        assert np.abs(trace @ maps - trace).max() < 1e-12

    def test_triple_jump_weights(self):
        # Yoshida's conditions for fourth order from a symmetric second-order
        # step: the sub-steps span the step, and their cubes cancel.
        c1, c0, c2 = open_system._TRIPLE_JUMP
        assert c2 == c1
        assert 2 * c1 + c0 == pytest.approx(1.0, abs=1e-15)
        assert 2 * c1**3 + c0**3 == pytest.approx(0.0, abs=1e-14)

    @given(
        st.integers(1, 3),
        st.sampled_from([0.0, PI]),
        st.booleans(),
        st.integers(0, 5),
        st.floats(0.0, 1.0),
        st.floats(1e-3, 1.0),
        st.sampled_from([0.0, 0.0379, 9.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_interpolant_is_the_split_step(self, l, flux, three, segment, where, fraction, gamma, seed):
        # Inside a segment the split step's map is an entire function of its
        # start; the degree-6 interpolant through its Chebyshev nodes matches
        # the three exact sub-steps anywhere, at any step the rule allows:
        # within 1.4e-14 in operator norm over a grid of these ramps, segments,
        # rates, steps up to the rule's and 81 starts per segment (degree 4
        # would be 3.4e-10 off).
        lat = build_lattice(l, [flux] * l)
        n = lat.num_sites
        sched = _three_segment_ramp(lat) if three else two_stage_ramp(lat, "A,1", 30.0)
        segment %= len(sched.segments)
        hamiltonians = protocols._ramp_hamiltonians(lat, sched)
        offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        norm = max(open_system.spectral_norm(h) for h in hamiltonians(offsets))
        dt = fraction * open_system.SPLIT_STEP_FACTOR * open_system.rk4_max_step(
            norm, open_system.SPLIT_RATE_WEIGHT * gamma
        )
        rates = DephasingRates(np.linspace(0.0, gamma, n))
        decay = open_system._collapse_terms(open_system.dephasing_operators(rates, n + 1))[0]
        decay = np.zeros((n, n)) if decay is None else decay[1:, 1:]
        nodes, maps = _node_maps(
            partial(hamiltonians, segment=segment), decay[None], offsets[segment], offsets[segment + 1], dt
        )
        start = offsets[segment] + where * (offsets[segment + 1] - offsets[segment] - dt)
        weights = open_system._lagrange_weights(nodes, np.array([start]))
        step_map = (weights @ maps[0].reshape(nodes.size, -1)).reshape(n * n, n * n)
        rng = np.random.default_rng(seed)
        rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = rho + rho.conj().T
        rho /= np.linalg.norm(rho)
        exact = _exact_split_step(lambda t: hamiltonians(np.array([t]), segment)[0], decay, start, dt, rho)
        assert np.abs((step_map @ rho.reshape(-1)).reshape(n, n) - exact).max() < 1e-13


class TestChunkPropagators:
    """Each chunk of a ramp walk is one propagator, interpolated in the chunk's start
    where that pays and converges; otherwise its steps, or their ordered product."""

    @staticmethod
    def _tries(monkeypatch):
        """Record (matrix dimension, steps a chunk, converged) for every group that tries the interpolant."""
        tries, interpolant = [], open_system._chunk_interpolant

        def spy(weights, values, room):
            made = interpolant(weights, values, room)
            tries.append((values.shape[-1], weights.shape[1], made is not None))
            return made

        monkeypatch.setattr(open_system, "_chunk_interpolant", spy)
        return tries

    @pytest.mark.parametrize("duration", [6.0, 30.0, 100.0, 300.0])
    @pytest.mark.parametrize("flux", [0.0, PI])
    @pytest.mark.parametrize("l", [1, 2])
    def test_batched_walk_matches_the_step_by_step_walk(self, monkeypatch, l, flux, duration):
        # The batched dephased walk, made to try every chunk interpolant,
        # against its own interpolated step maps applied one at a time: at
        # most 4.3e-14 apart here.  Both groups converge up to duration 30;
        # at 300 (134 steps a chunk) neither does, and every chunk is stepped
        # (the interpolant would be 3.7e-6 off per chunk).
        lat = build_lattice(l, [flux] * l)
        sched = two_stage_ramp(lat, "A,1", duration)
        rates = [DephasingRates.uniform(lat.num_sites, 1.0 / (2 * PI * 4.2))]
        monkeypatch.setattr(open_system, "_batch_pays", lambda *a, **k: True)
        monkeypatch.setattr(open_system, "_interpolant_pays", lambda *a, **k: True)
        tries = self._tries(monkeypatch)
        run = TestRampCostRule._outputs(adiabatic_ramps(lat, sched, "A,1", rates)[1][0])
        dephased = [converged for dim, _, converged in tries if dim == lat.num_sites**2]
        assert len(dephased) == 2
        if duration <= 30.0:
            assert all(dephased)
        if duration == 300.0:
            assert not any(dephased)
        monkeypatch.setattr(protocols, "_split_walk", _reference_split_walk)
        reference = TestRampCostRule._outputs(adiabatic_ramps(lat, sched, "A,1", rates)[1][0])
        assert np.abs(run - reference).max() < 1e-12

    def test_finished_groups_are_freed(self, monkeypatch):
        # A group's node propagators go with its last chunk: on the README
        # ramp (two groups of 50 chunks a walk, all four interpolants
        # converge), each earlier group's stack is gone when the next group
        # forms its interpolant.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        stacks, interpolant = [], open_system._chunk_interpolant

        def spy(*args):
            assert [stack() for stack in stacks] == [None] * len(stacks)
            made = interpolant(*args)
            stacks.append(weakref.ref(made))
            return made

        monkeypatch.setattr(open_system, "_chunk_interpolant", spy)
        adiabatic_ramps(lat, sched, "A,1", [DephasingRates.uniform(4, 1.0 / (2 * PI * 4.2))])
        assert len(stacks) == 4

    def test_refused_interpolants_stop_early(self, monkeypatch):
        # At duration 300 each group's node propagators are multiplied
        # CHUNK_NODES steps at a time and refused at the first prefix whose
        # tail exceeds CHUNK_TAIL: 30 to 75 of the 134 steps here.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 300.0)
        tails, tail = [], open_system._chebyshev_tail

        def spy(values):
            tails.append(tail(values).max())
            return tails[-1]

        monkeypatch.setattr(open_system, "_chebyshev_tail", spy)
        tries = self._tries(monkeypatch)
        rates = [DephasingRates.uniform(4, 1.0 / (2 * PI * 4.2))]
        adiabatic_ramps(lat, sched, "A,1", rates)
        assert [(dim, count) for dim, count, _ in tries] == [(4, 134), (4, 134), (16, 134), (16, 134)]
        assert not any(converged for _, _, converged in tries)
        refusals = [k for k, t in enumerate(tails) if t > open_system.CHUNK_TAIL]
        assert len(refusals) == 4
        checks = np.diff([-1] + refusals)  # prefixes checked per group, the refused one last
        assert 2 <= checks.min() and checks.max() * open_system.CHUNK_NODES < 134

    def test_an_unconverged_entry_refuses_the_interpolant(self):
        # Two stack entries: steps that do not depend on their start, whose
        # chunk interpolant converges at any length, and the README ramp's
        # closed steps on its detuning segment at duration 300, whose chunks
        # of 134 steps do not.  Stacked, the group is refused for both.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 300.0)
        hamiltonians = protocols._ramp_hamiltonians(lat, sched)
        offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        count, dt = 134, 1.5 / 67
        nodes, u = _node_unitaries(partial(hamiltonians, segment=1), *offsets[1:], dt)
        values = np.stack([np.broadcast_to(np.eye(4), u.shape), u])
        starts = np.linspace(offsets[1], offsets[2] - count * dt, 50)
        # The steps of the chunks starting at the Chebyshev points of the chunk starts.
        chunk_nodes = open_system._chebyshev_nodes(starts[0], starts[-1], open_system.CHUNK_NODES)
        times = chunk_nodes[:, None] + np.arange(count) * dt
        weights = open_system._lagrange_weights(nodes, times.ravel()).reshape(-1, count, nodes.size)
        assert open_system._chunk_interpolant(weights, values[:1], 1024) is not None
        assert open_system._chunk_interpolant(weights, values[1:], 1024) is None
        assert open_system._chunk_interpolant(weights, values, 1024) is None

    def test_one_chunk_groups_take_their_steps(self, monkeypatch):
        # With two checkpoints each gap of 700 steps is cut into chunks of
        # 256, 256 and 188, so the last chunk of each gap is a group of its
        # own, whose chunk starts span zero length.  No group has more chunks
        # than CHUNK_NODES, so none tries the interpolant (whose Chebyshev
        # points would coincide, and whose Lagrange weights would be 0 / 0).
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        rates = [DephasingRates.uniform(4, 0.0379)]
        spreads, weights = [], open_system._lagrange_weights

        def spy(nodes, times):
            spreads.append(np.ptp(nodes))
            return weights(nodes, times)

        monkeypatch.setattr(open_system, "_lagrange_weights", spy)
        tries = self._tries(monkeypatch)
        groups, batcher = [], open_system._batcher
        monkeypatch.setattr(
            open_system, "_batcher", lambda ramp, plan, *args: groups.append(plan.groups) or batcher(ramp, plan, *args)
        )
        monkeypatch.setattr(open_system, "_batch_pays", lambda *a, **k: True)
        monkeypatch.setattr(open_system, "_interpolant_pays", lambda *a, **k: True)
        closed, (run,) = adiabatic_ramps(lat, sched, "A,1", rates, n_checkpoints=2)
        assert [sorted(len(members) for members in walk.values()) for walk in groups] == [[1, 1, 2, 2]] * 2
        assert tries == [] and min(spreads) > 0
        outputs = np.concatenate([TestRampCostRule._outputs(closed), TestRampCostRule._outputs(run)])
        assert np.all(np.isfinite(outputs))
        monkeypatch.setattr(protocols, "_closed_walk", _reference_closed_walk)
        monkeypatch.setattr(protocols, "_split_walk", _reference_split_walk)
        closed, (run,) = adiabatic_ramps(lat, sched, "A,1", rates, n_checkpoints=2)
        reference = np.concatenate([TestRampCostRule._outputs(closed), TestRampCostRule._outputs(run)])
        assert np.abs(outputs - reference).max() < 1e-12

    def test_closed_ramp_memory_is_bounded_by_batch_bytes(self):
        # l = 30 (91 sites, 132 kB a unitary), checkpoints at the segment
        # boundary and the end of a ramp of duration 12: each gap of 267
        # steps starts with a chunk of 256, whose unitaries alone are
        # 33.9 MB, and whose product the walk forms one step at a time, since
        # one unitary fills half of BATCH_BYTES.  The walk peaks (14.2 MiB
        # here) while it forms the second segment's node set
        # (_split_unitaries on 21 midpoint Hamiltonians and their products,
        # 13.3 MiB alone) and holds the first's SPLIT_NODES unitaries; pieces
        # of at most BATCH_BYTES and their products stay below that.  A
        # closed ramp keeps no node unitaries for a second walk.  Forming a
        # whole chunk at once would peak at 49.4 MiB.
        lat = build_lattice(30, [PI] * 30)
        sched = two_stage_ramp(lat, "A,1", 12.0)
        offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        ramp, psi0 = _ramp(lat, sched, offsets[1:])
        peaks = []
        for work in (
            lambda: _node_unitaries(partial(ramp.hamiltonians, segment=1), *offsets[1:], 6.0 / 267),
            lambda: open_system._closed_walk(ramp, psi0),
        ):
            tracemalloc.start()
            try:
                work()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        node_set = 16 * lat.num_sites**2 * open_system.SPLIT_NODES
        assert peaks[1] <= peaks[0] + node_set + 2 * open_system.BATCH_BYTES


class TestGroundProjectors:
    """The checkpoint diagnostics are one stacked eigh; each matrix reads as it would alone."""

    @pytest.mark.parametrize("l", [1, 2])
    def test_stack_matches_per_matrix_reference(self, l):
        lat = build_lattice(l, [PI] * l)
        h = hamiltonian_single_excitation(lat).matrix
        ramp = protocols._ramp_hamiltonians(lat, two_stage_ramp(lat, "A,1", 30.0))(np.linspace(0.0, 30.0, 11))
        # Degenerate ground levels: the final H at l = 1 (two) and -H^2 (four
        # at l = 1, two at l = 2).  Adding 1e-12 H keeps each cluster whole,
        # adding 1e-7 H splits it (by the degeneracy of H's lowest level).
        squared = -h @ h
        stack = np.concatenate([
            ramp, [h, squared, squared + 1e-12 * h, squared + 1e-7 * h, np.zeros_like(h)],
        ])
        projectors, gaps = protocols._ground_projectors(stack)
        rng = np.random.default_rng(7)
        psis = rng.normal(size=(len(stack), lat.num_sites)) + 1j * rng.normal(size=(len(stack), lat.num_sites))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        rhos = rng.normal(size=(len(stack), lat.num_sites + 1, lat.num_sites + 1)) + 0j
        rhos /= np.linalg.norm(rhos, axis=(1, 2), keepdims=True)
        psi_weights = protocols._ground_weights(projectors, psis)
        rho_weights = protocols._ground_weights(projectors, rhos)
        sizes = []
        for k, matrix in enumerate(stack):
            energies, vectors = np.linalg.eigh(matrix)
            scale = max(abs(energies[0]), abs(energies[-1]), 1e-12)
            members = energies <= energies[0] + 1e-9 * scale
            projector = vectors[:, members] @ vectors[:, members].conj().T
            outside = energies[~members]
            sizes.append(int(members.sum()))
            assert np.abs(projectors[k] - projector).max() < 1e-14
            assert gaps[k] == (outside[0] - energies[0] if outside.size else math.inf)
            assert abs(psi_weights[k] - np.real(psis[k].conj() @ projector @ psis[k])) < 1e-14
            assert abs(rho_weights[k] - np.real(np.trace(projector @ rhos[k][1:, 1:]))) < 1e-14
        assert sizes[-5:] == ([2, 4, 4, 2, 4] if l == 1 else [1, 2, 2, 1, 7])

    def test_gap_is_infinite_when_every_level_is_ground(self):
        stack = np.array([np.zeros((4, 4)), 3.0 * np.eye(4), np.diag([1.0, 1.0 + 1e-12, 1.0, 1.0])])
        projectors, gaps = protocols._ground_projectors(stack)
        assert np.all(gaps == math.inf)
        assert np.abs(projectors - np.eye(4)).max() < 1e-14


class TestRampCostRule:
    """The closed walk agrees with exact split steps taken one at a time; both sides
    of the dephased walk's cost rule take the same steps and agree to round-off."""

    @staticmethod
    def _force(monkeypatch, name, pick):
        """Record the picks of ``open_system.<name>``; return ``pick`` instead unless it is None."""
        picks = []
        rule = getattr(open_system, name)

        def spy(*args, **kwargs):
            picks.append(rule(*args, **kwargs))
            return picks[-1] if pick is None else pick

        monkeypatch.setattr(open_system, name, spy)
        return picks

    @staticmethod
    def _outputs(run):
        return np.concatenate([
            run.gs_fidelity, run.final_populations, run.ground_populations,
            [run.final_gs_overlap, run.population_fidelity, run.population_fidelity_raw],
        ])

    @pytest.mark.parametrize("l", [1, 4, 5])
    def test_closed_walks_agree(self, monkeypatch, l):
        # The closed walk interpolates its unitaries at every lattice size and
        # asks no cost rule (test_closed_walk_ignores_the_step_map_cap).
        lat = build_lattice(l, [PI] * l)
        sched = two_stage_ramp(lat, "A,1", 6.0)
        picks = self._force(monkeypatch, "_batch_pays", None)
        walked = self._outputs(adiabatic_ramps(lat, sched, "A,1", n_checkpoints=11)[0])
        assert picks == []
        monkeypatch.setattr(protocols, "_closed_walk", _reference_closed_walk)
        reference = self._outputs(adiabatic_ramps(lat, sched, "A,1", n_checkpoints=11)[0])
        assert np.abs(walked - reference).max() < 1e-12

    @pytest.mark.parametrize("l", [1, 4, 5])
    def test_closed_walks_agree_with_a_boundary_inside_a_gap(self, monkeypatch, l):
        # At 100 checkpoints the segment boundary (Jt = 3) falls inside a gap;
        # the closed walk and the reference walk step on it, and it adds no
        # result row.
        lat = build_lattice(l, [PI] * l)
        sched = two_stage_ramp(lat, "A,1", 6.0)
        grids = []
        substeps = open_system._substeps

        def spy(state, grid, *args):
            grids.append(grid)
            return substeps(state, grid, *args)

        def reference(ramp, psi):
            grids.append(ramp.grid)
            return _reference_closed_walk(ramp, psi)

        monkeypatch.setattr(open_system, "_substeps", spy)
        checkpoints = np.linspace(0.0, 6.0, 100)
        assert 3.0 not in checkpoints
        runs = []
        for walk in (open_system._closed_walk, reference):
            monkeypatch.setattr(protocols, "_closed_walk", walk)
            closed = adiabatic_ramps(lat, sched, "A,1", n_checkpoints=100)[0]
            assert np.array_equal(closed.times, checkpoints)
            runs.append(self._outputs(closed))
        assert len(grids) == 2
        for grid in grids:
            assert np.array_equal(grid, np.sort(np.append(checkpoints, 3.0)))
        assert np.abs(runs[0] - runs[1]).max() < 1e-11

    @pytest.mark.parametrize("n_checkpoints", [101, 100])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_one_piece_per_batch_matches_the_default(self, monkeypatch, l, n_checkpoints):
        # The closed walk multiplies its steps in pieces of at most
        # BATCH_BYTES of unitaries (16 n^2 each), and at least one step.  At
        # duration 300 (about 134 steps per gap) each group's chunk
        # interpolant is refused after 30 to 75 steps of its node
        # propagators, and every chunk is an ordered product of its steps: up
        # to 1,024 steps a piece at l = 1 and 96 at l = 4, and one at a cap of
        # one byte.
        lat = build_lattice(l, [PI] * l)
        sched = two_stage_ramp(lat, "A,1", 300.0)
        pieces = []
        products = open_system._ordered_product

        def spy(u):
            pieces[-1].append(u.shape[1] * u.shape[2])
            return products(u)

        monkeypatch.setattr(open_system, "_ordered_product", spy)
        runs, room = [], open_system.BATCH_BYTES // (16 * lat.num_sites**2)
        for cap in (open_system.BATCH_BYTES, 1):
            monkeypatch.setattr(open_system, "BATCH_BYTES", cap)
            pieces.append([])
            runs.append(self._outputs(adiabatic_ramps(lat, sched, "A,1", n_checkpoints=n_checkpoints)[0]))
        assert 1 < max(pieces[0]) <= room
        assert set(pieces[1]) == {1}
        assert np.abs(runs[0] - runs[1]).max() < 1e-12

    def test_gaps_longer_than_a_chunk(self, monkeypatch):
        # At duration 1000 each gap takes 445 steps, two chunks (256 and
        # 189), which fall in two groups of one node set; every piece holds
        # steps of one group.  Each group first multiplies its node
        # propagators CHUNK_NODES steps at a time, in pieces of CHUNK_NODES
        # rows, until the interpolant is refused at that length.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 1000.0)
        products = open_system._ordered_product
        batches = []

        def spy(u):
            batches.append(u.shape[1:3])
            return products(u)

        monkeypatch.setattr(open_system, "_ordered_product", spy)
        walks = {"walk": open_system._closed_walk, "reference": _reference_closed_walk}
        runs, rows = {}, {}
        for name, chunk in (("walk", open_system.SUBSTEP_CHUNK), ("walk", 1024), ("reference", 1024)):
            monkeypatch.setattr(protocols, "_closed_walk", walks[name])
            monkeypatch.setattr(open_system, "SUBSTEP_CHUNK", chunk)
            batches.clear()
            runs[name, chunk] = self._outputs(adiabatic_ramps(lat, sched, "A,1")[0])
            rows[name, chunk] = {}
            for size, count in batches:
                rows[name, chunk][count] = rows[name, chunk].get(count, 0) + size
        for (name, _), found in rows.items():
            tried = found.pop(open_system.CHUNK_NODES, 0)
            assert tried % open_system.CHUNK_NODES == 0 and (tried > 0) == (name == "walk")
        assert rows == {("walk", 256): {256: 100, 189: 100}, ("walk", 1024): {445: 100}, ("reference", 1024): {}}
        assert np.abs(runs["walk", 256] - runs["walk", 1024]).max() < 1e-12
        # 44,500 interpolated steps, each within about 1e-15 of the exact one.
        assert np.abs(runs["walk", 256] - runs["reference", 1024]).max() < 1e-10

    def test_closed_walk_steps_on_boundaries_inside_gaps(self, monkeypatch):
        # Both boundaries of the three-segment ramp (Jt = 10.3 and 19.7) fall
        # inside gaps of 101 checkpoints.  A kink inside a step would cost
        # the closed walk its order: on edges it deviates by 6.6e-10 from a
        # run at a tenth of the step (a second-order midpoint walk at ten
        # times as many substeps, by 3.1e-8 across the kinks and 8.9e-9 on
        # edges).
        lat = build_lattice(1, [PI])
        sched = _three_segment_ramp(lat)
        run = self._outputs(adiabatic_ramps(lat, sched, "A,1")[0])
        monkeypatch.setattr(open_system, "STEP_SAFETY", 0.001)
        reference = self._outputs(adiabatic_ramps(lat, sched, "A,1")[0])
        assert np.abs(run - reference).max() < 1.5e-8

    def test_dephased_ramp_memory(self):
        # Peak traced memory of one README dephased ramp: 0.55 MB, most of it
        # a piece of 64 interpolated step maps (BATCH_BYTES) and its product;
        # 0.15 MB for the closed walk alone.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        rates = DephasingRates.uniform(4, 1.0 / (2 * PI * 4.2))
        adiabatic_prepare(lat, sched, "A,1", rates)
        tracemalloc.start()
        try:
            adiabatic_prepare(lat, sched, "A,1", rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_dephased_batches_per_group(self, monkeypatch):
        # The README dephased ramp takes 1,400 steps in 100 gaps, two groups
        # of 50 chunks of 14 steps.  Each group forms its 15 node propagators
        # from 210 interpolated step maps (4 KiB each), whole rows at a time
        # within BATCH_BYTES, then its 50 chunk propagators, one batch per
        # BATCH_BYTES of them; each piece of steps and each batch of chunks
        # is one _combine call.  At the default cap that is 4 + 1 calls per
        # group, at a cap of one row (14 maps) 15 + 4, and at one byte, where
        # every step is a piece of its own, 210 + 50.  The Lagrange weights of
        # a group's steps and of its chunks are two tables, which the closed
        # walk forms and every batch of both walks slices: 4 _lagrange_weights
        # calls per ramp at any cap, with or without rate sets.  A cap that
        # only changes how many rows or chunks a batch holds changes no bit;
        # one that splits a row's steps multiplies them in another order.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        rates = [DephasingRates.uniform(4, 1.0 / (2 * PI * 4.2))]
        calls, walks = {"_combine": 0, "_lagrange_weights": 0}, []
        batcher = open_system._batcher

        def counting(name, function):
            def count(*args):
                calls[name] += 1
                return function(*args)

            return count

        def spy(ramp, plan, *args):
            walks.append(plan.groups)
            return batcher(ramp, plan, *args)

        for name in calls:
            monkeypatch.setattr(open_system, name, counting(name, getattr(open_system, name)))
        monkeypatch.setattr(open_system, "_batcher", spy)
        dephased_calls, tables, runs = [], [], []
        for cap in (open_system.BATCH_BYTES, 16 * 16**2 * 14, 1):
            monkeypatch.setattr(open_system, "BATCH_BYTES", cap)
            counts = []
            for rate_sets in ((), rates):
                calls.update(dict.fromkeys(calls, 0))
                closed, dephased = adiabatic_ramps(lat, sched, "A,1", rate_sets)
                counts.append(dict(calls))
            dephased_calls.append(counts[1]["_combine"] - counts[0]["_combine"])
            tables.append([count["_lagrange_weights"] for count in counts])
            runs.append(self._outputs(dephased[0]))
        groups = walks[-1]  # the dephased walk's batcher is the run's last
        assert [(key[0], key[2], len(members)) for key, members in groups.items()] == [(0, 14, 50), (1, 14, 50)]
        assert dephased_calls == [2 * (4 + 1), 2 * (15 + 4), 2 * (210 + 50)]
        assert tables == [[4, 4]] * 3
        assert np.array_equal(runs[0], runs[1])
        assert np.abs(runs[0] - runs[2]).max() < 1e-12

    def test_one_node_set_per_segment(self, monkeypatch):
        # The README dephased ramp's 100 gaps have spans equal but for their
        # last bits, so a walk shares one step length per segment.  Both
        # rates (T_phi 1 and 10 us) are below the norm of H, so both walks
        # step alike: one plan, one set of node unitaries for each of the two
        # segments, from which the closed walk forms its steps and the
        # dephased walk its maps, and one table of each kind of Lagrange
        # weights per group of chunks.
        lat = build_lattice(1, [PI])
        rates = [DephasingRates.uniform(4, 1.0 / (tphi * 2 * PI * 4.2)) for tphi in (1.0, 10.0)]
        calls = {"_plan": [], "_split_unitaries": [], "_lagrange_weights": [], "_split_step_maps": []}

        def recording(name, function):
            def record(*args):
                calls[name].append(args[0].keywords["segment"] if name == "_split_unitaries" else None)
                return function(*args)

            return record

        for name in calls:
            monkeypatch.setattr(open_system, name, recording(name, getattr(open_system, name)))
        picks = self._force(monkeypatch, "_batch_pays", None)
        adiabatic_ramps(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1", rates)
        assert picks == [True]
        assert {name: len(made) for name, made in calls.items()} == {
            "_plan": 1, "_split_unitaries": 2, "_lagrange_weights": 4, "_split_step_maps": 2
        }
        assert calls["_split_unitaries"] == [0, 1]

    @pytest.mark.parametrize("tphis", [(1.0, 10.0), (0.001,)], ids=["h-limited", "rate-limited"])
    def test_walks_share_only_equal_steps(self, monkeypatch, tphis):
        # While every rate is below the norm of H over SPLIT_RATE_WEIGHT the
        # dephased walk steps as the closed one and takes its plan and node
        # unitaries.  T_phi = 0.001 us (gamma = 37.9 J) sets a shorter
        # dephased step: two plans and two node sets per walk.  Either way
        # the closed result is bit for bit the closed ramp's alone.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        rates = [DephasingRates.uniform(4, 1.0 / (tphi * 2 * PI * 4.2)) for tphi in tphis]
        calls = {"_plan": 0, "_split_unitaries": 0}

        def counting(name, function):
            def count(*args):
                calls[name] += 1
                return function(*args)

            return count

        for name in calls:
            monkeypatch.setattr(open_system, name, counting(name, getattr(open_system, name)))
        closed, _ = adiabatic_ramps(lat, sched, "A,1", rates)
        shared = tphis != (0.001,)
        assert calls == ({"_plan": 1, "_split_unitaries": 2} if shared else {"_plan": 2, "_split_unitaries": 4})
        alone, none = adiabatic_ramps(lat, sched, "A,1", ())
        assert none == ()
        TestAdiabaticPreparation._assert_same_result(closed, alone)

    def test_both_dephased_branches_step_one_plan(self, monkeypatch):
        # Both walks step one plan, planned once: on the README ramp the
        # dephased loop steps each segment at the one length of the batched
        # branch's node set there, which is the closed walk's.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 30.0)
        offsets = np.cumsum([0.0] + [seg.duration for seg in sched.segments])
        rates = [DephasingRates.uniform(4, 1.0 / (tphi * 2 * PI * 4.2)) for tphi in (1.0, 10.0)]
        grids, node_sets, stepped = [], set(), set()
        substep_grid, unitaries, substeps = open_system._substep_grid, open_system._split_unitaries, open_system._substeps

        def planning(*args):
            grids.append(args)
            return substep_grid(*args)

        def node_set(hamiltonians, starts, dt):
            if isinstance(hamiltonians, partial):  # a segment's node unitaries, not the loop's
                node_sets.add((hamiltonians.keywords["segment"], dt))
            return unitaries(hamiltonians, starts, dt)

        def walk(state, checkpoints, grid, advance):
            def recording(rho, start, index, dt):
                if rho.ndim == 3:
                    stepped.add((int(np.searchsorted(offsets[1:-1], start, side="right")), dt))
                return advance(rho, start, index, dt)

            return substeps(state, checkpoints, grid, recording)

        monkeypatch.setattr(open_system, "_substep_grid", planning)
        monkeypatch.setattr(open_system, "_split_unitaries", node_set)
        monkeypatch.setattr(open_system, "_substeps", walk)
        for batched in (True, False):
            monkeypatch.setattr(open_system, "_batch_pays", lambda *a, **k: batched)
            grids.clear()
            adiabatic_ramps(lat, sched, "A,1", rates)
            assert len(grids) == 1
        assert len(node_sets) == 2 and stepped == node_sets
        grids.clear()
        open_system.lindblad_evolve(
            with_vacuum(hamiltonian_single_excitation(lat)), DephasingRates.uniform(4, 0.05),
            open_system.DensityMatrix.single_excitation(lat, "A,1"), np.linspace(0.0, 2.0, 5),
        )
        assert len(grids) == 1

    def test_closed_walk_ignores_the_step_map_cap(self, monkeypatch):
        # The closed walk has one path, whose memory BATCH_BYTES and one chunk
        # bound, so a STEP_MAP_MAX_BYTES of one byte adds no eigh per chunk
        # (one chunk of 135 steps per gap at duration 300): one per node set,
        # plus the two of the checkpoint diagnostics.
        lat = build_lattice(2, [0.0] * 2)
        sched = two_stage_ramp(lat, "A,1", 300.0)
        eigh, node_unitaries = np.linalg.eigh, open_system._split_step_unitaries
        calls = {}

        def counting(name, function):
            def count(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return count

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        monkeypatch.setattr(open_system, "_split_step_unitaries", counting("nodes", node_unitaries))
        counts = []
        for cap in (open_system.STEP_MAP_MAX_BYTES, 1):
            monkeypatch.setattr(open_system, "STEP_MAP_MAX_BYTES", cap)
            calls.update(eigh=0, nodes=0)
            adiabatic_ramps(lat, sched, "A,1")
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert 0 < counts[0]["eigh"] == counts[0]["nodes"] + 2 < 100

    @pytest.mark.parametrize(
        "l, tphis, batched",
        [(2, (1.0, 10.0), True), (3, (1.0,), True), (3, (1.0, 10.0), False), (4, (1.0,), False)],
        ids=["l2-two-sets", "l3-one-set", "l3-two-sets", "l4-one-set"],
    )
    def test_dephased_rule_crossover(self, monkeypatch, l, tphis, batched):
        # On the README ramp the node maps pay up to l = 2 with the README's
        # two rate sets.  At l = 3 (n^6 = 1e6 per node map) the batched walk,
        # whose maps and steps are per set, takes 22 ms against the loop's 33
        # with one set, but 41 against 35 with two; at l = 4 the loop pays
        # for one set too (46 against 69 ms).
        class Picked(Exception):
            pass

        substeps = open_system._substeps

        def walk(state, *args):
            if state.ndim == 3:
                raise Picked
            return substeps(state, *args)

        picks = self._force(monkeypatch, "_batch_pays", None)
        monkeypatch.setattr(open_system, "_substeps", walk)
        lat = build_lattice(l, [PI] * l)
        rates = [DephasingRates.uniform(lat.num_sites, 1.0 / (tphi * 2 * PI * 4.2)) for tphi in tphis]
        with pytest.raises(Picked):
            adiabatic_ramps(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1", rates)
        assert picks == [batched]

    @pytest.mark.parametrize(
        "l, n_checkpoints, tphis, interpolated",
        [(1, 101, (1.0,), True), (2, 101, (1.0,), False), (2, 201, (1.0,), True), (2, 301, (1.0, 10.0), True),
         (3, 401, (1.0,), False)],
        ids=["l1-readme", "l2-readme", "l2-200-gaps", "l2-300-gaps-two-sets", "l3-400-gaps"],
    )
    def test_chunk_interpolant_rule_crossover(self, monkeypatch, l, n_checkpoints, tphis, interpolated):
        # Both ways of taking a group of the batched dephased walk's chunks,
        # timed on the whole ramp (CPU ms, interpolated against stepped): on
        # the README ramp the chunk propagators pay at l = 1 (2.9 against
        # 3.9) but not at l = 2 (10.7 against 8.4, 50 chunks a group); at
        # l = 2 they pay from 100 chunks (9.7 against 10.7, and 15.6 against
        # 19.7 with two sets at 150), and at l = 3 not at 200 (41.8 against
        # 37.6).
        picks = self._force(monkeypatch, "_interpolant_pays", None)
        lat = build_lattice(l, [PI] * l)
        rates = [DephasingRates.uniform(lat.num_sites, 1.0 / (tphi * 2 * PI * 4.2)) for tphi in tphis]
        adiabatic_ramps(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1", rates, n_checkpoints=n_checkpoints)
        assert picks == [interpolated] * 2

    @pytest.mark.parametrize("l, maps", [(1, True), (2, True), (3, False)])
    def test_dephased_walks_agree(self, monkeypatch, l, maps):
        lat = build_lattice(l, [0.0] * l)
        sched = two_stage_ramp(lat, "A,1", 6.0)
        rate_sets = [
            DephasingRates.uniform(lat.num_sites, 0.0379),
            DephasingRates(np.linspace(0.0, 0.1, lat.num_sites)),
        ]
        runs = {}
        for pick in (None, True, False):
            picks = self._force(monkeypatch, "_batch_pays", pick)
            _, dephased = adiabatic_ramps(lat, sched, "A,1", rate_sets, n_checkpoints=11)
            runs[pick] = np.concatenate([self._outputs(run) for run in dephased])
            assert picks == [maps]
            monkeypatch.undo()
        assert np.array_equal(runs[None], runs[maps])
        # The loop takes the exact split steps, the batched walk their
        # interpolants (TestSplitStepMaps): 7.0e-14, 1.3e-13 and 8.6e-14 apart.
        assert np.abs(runs[True] - runs[False]).max() < 1e-12

    def test_dephased_walks_agree_across_kinks(self, monkeypatch):
        lat, sched = TestSplitStepRamp._kinked()
        rates = [DephasingRates.uniform(4, 0.0379)]
        runs = []
        for pick in (True, False):
            self._force(monkeypatch, "_batch_pays", pick)
            _, (run,) = adiabatic_ramps(lat, sched, "A,1", rates, n_checkpoints=8)
            runs.append(self._outputs(run))
            monkeypatch.undo()
        # 4.6e-13 apart: exact steps against their interpolants.
        assert np.abs(runs[0] - runs[1]).max() < 1e-12

    @pytest.mark.parametrize("batched", [False, True])
    def test_chunks_match_whole_gaps(self, monkeypatch, batched):
        # Chunks see the step times of the whole gap: each gap takes 27 steps
        # of both walks, one chunk at SUBSTEP_CHUNK and six at 5.  The
        # dephased loop changes no bit, the batched walks only regroup their
        # products, and the closed walk stays with exact split steps taken one
        # at a time.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 6.0)
        rates = [DephasingRates.uniform(4, 0.0379)]
        monkeypatch.setattr(open_system, "_batch_pays", lambda *a, **k: batched)
        closed_runs, dephased_runs, own_runs = [], [], []
        for chunk in (open_system.SUBSTEP_CHUNK, 5):
            monkeypatch.setattr(open_system, "SUBSTEP_CHUNK", chunk)
            closed, (run,) = adiabatic_ramps(lat, sched, "A,1", rates, n_checkpoints=11)
            closed_runs.append(self._outputs(closed))
            dephased_runs.append(self._outputs(run))
            # What the dephased walk's states alone give; its ground
            # populations, and the fidelities against them, are the closed walk's.
            own_runs.append(TestSplitStepRamp._outputs(run))
        monkeypatch.setattr(protocols, "_closed_walk", _reference_closed_walk)
        reference = self._outputs(adiabatic_ramps(lat, sched, "A,1", n_checkpoints=11)[0])
        assert np.abs(closed_runs[0] - closed_runs[1]).max() < 1e-12
        assert max(np.abs(run - reference).max() for run in closed_runs) < 1e-12
        assert np.abs(dephased_runs[0] - dephased_runs[1]).max() < 1e-12
        if not batched:
            assert np.array_equal(own_runs[0], own_runs[1])

    def test_tiny_ramp_stays_finite(self, monkeypatch):
        # The Lagrange weights of a 1e-200 ramp multiply differences of about
        # 1e-201, whose products underflowed to 0 / 0.
        lat = build_lattice(1, [PI])
        sched = two_stage_ramp(lat, "A,1", 1e-200)
        rates = [DephasingRates.uniform(4, 0.0379)]
        runs = {}
        for batched in (True, False):
            # Unbatched: the dephased loop, and exact closed split steps one at a time.
            monkeypatch.setattr(open_system, "_batch_pays", lambda *a, **k: batched)
            if not batched:
                monkeypatch.setattr(protocols, "_closed_walk", _reference_closed_walk)
            closed, (run,) = adiabatic_ramps(lat, sched, "A,1", rates, n_checkpoints=11)
            runs[batched] = np.concatenate([self._outputs(closed), self._outputs(run)])
        assert np.all(np.isfinite(runs[True]))
        assert np.abs(runs[True] - runs[False]).max() < 1e-12

    def test_substep_budget(self, monkeypatch):
        monkeypatch.setattr(open_system, "SUBSTEP_BUDGET", 1000)
        lat = build_lattice(1, [PI])
        with pytest.raises(ConfigError, match="substeps"):
            adiabatic_ramps(lat, two_stage_ramp(lat, "A,1", 30.0), "A,1", n_checkpoints=11)

    def test_ramps_leave_numpy_ma_unimported(self):
        # ``numpy.ma`` adds about 6.5 MB of peak RSS, and ``np.unique`` or
        # ``np.union1d`` import it on their first call.
        code = (
            "import sys\n"
            "from fluxlattice import PI, DephasingRates, build_lattice, two_stage_ramp\n"
            "from fluxlattice.protocols import adiabatic_ramps\n"
            "lat = build_lattice(1, [PI])\n"
            "adiabatic_ramps(lat, two_stage_ramp(lat, 'A,1', 30.0), 'A,1', [DephasingRates.uniform(4, 0.0379)])\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(fluxlattice.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
