"""Command-line front end: experiment orchestration and data-file emission.

Output is data first (CSV plus JSON mirrors with metadata); plotting is left
to external tools.  Every run writes a manifest listing each output file with
its content hash, and identical configuration reproduces CSV files byte for
byte; ``crosstalk-fit --seed``, the one seeded option, fixes its synthetic
noise.  A run writes all of its files or none: they are kept in memory until
the command has finished, so a run refused or failed at any point leaves no
``--outdir`` behind (a failed ``verify`` comparison is a finished run, which
writes its report and exits 3).  Frequencies named
``*_MHz``/``*_GHz`` are cyclic (value over 2 pi); everything else is
expressed in units of the coupling J.

Each option is declared once, in ``OPTIONS``: the parser is built from that
table, and a value given on the command line and the same value in an
``adiabatic --config`` file are read through the same ``Kind``.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
import warnings
from dataclasses import replace
from functools import cache, partial
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError
from .lattice import (
    FINITE,
    FLUX,
    MAX_PLAQUETTES,
    MAX_POINTS,
    NONNEGATIVE,
    OBJECT,
    PI,
    POSITIVE,
    SITE,
    Kind,
    LatticeConfig,
    _count,
    _number,
    build_lattice,
    config_field,
    csv_text,
    dephasing_rate,
    hamiltonian_single_excitation,
    json_text,
    lattice_from_dict,
    lattice_to_dict,
    load_lattice,
    parse_flux,
    plaquette_flux,
    read_config_file,
    site_labels,
)
from .dynamics import (
    SQRT2,
    PopulationTrace,
    StateVector,
    antisymmetric_detunings,
    effective_model_amplitudes,
    evolve_lattice,
    pm_transform_matrix,
)
from .open_system import DensityMatrix, DephasingRates, lindblad_evolve, with_vacuum
from .protocols import (
    SpectroscopyConfig,
    adiabatic_ramps,
    analytic_plaquette_populations,
    schedule_from_json,
    schedule_to_json,
    spectroscopy,
    two_stage_ramp,
)
from .bands import band_structure, rhombic_bloch_model, trimer_bloch_model, zak_phase
from .device import (
    CrosstalkMatrix,
    coupler_off_frequency,
    crosstalk_correct,
    crosstalk_fit,
    g_eff,
    load_device,
    synthetic_crosstalk,
    three_mode_vacuum_rabi,
)


def data_path(name: str) -> Path:
    """Path of a sample configuration file shipped with the package."""
    return Path(str(resources.files("fluxlattice.data").joinpath(name)))


# ---------------------------------------------------------------------------
# Small parsing and output helpers
# ---------------------------------------------------------------------------


def _scaled_number(text: str, unit: str, value: float) -> float:
    """A plain float, or a multiple of ``value`` written with a ``unit`` suffix."""
    token = text.strip().lower().replace(" ", "")
    try:
        if not token.endswith(unit):
            return float(token)
        head = token[: -len(unit)]
        return (float(head) if head else 1.0) * value
    except ValueError:
        raise ConfigError(f"expected a number or a multiple of {unit}, got {text!r}") from None


def parse_pi_multiple(text: str) -> float:
    """Parse values such as ``4pi``, ``pi`` or plain floats."""
    return _scaled_number(text, "pi", PI)


def parse_delta_token(token: str) -> float:
    """Detunings in units of J; ``sqrt2`` and multiples like ``2sqrt2`` allowed."""
    return _scaled_number(token, "sqrt2", SQRT2)


def parse_range(text: str) -> np.ndarray:
    """``start:stop:count`` as a grid: a finite span (so finite ends) and 1 to ``MAX_POINTS`` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"expected numbers in start:stop:count, got {text!r}") from None
    if not (math.isfinite(stop - start) and 1 <= count <= MAX_POINTS):
        raise ConfigError(f"expected a finite span and 1 to {MAX_POINTS} points, got {text!r}")
    return np.linspace(start, stop, count)


def _slug(token: str) -> str:
    return token.strip().replace(".", "p").replace("-", "m")


def _tphi_columns(tphis: Sequence[float]) -> list[str]:
    return [f"tphi_{tphi:g}us" for tphi in tphis]


def write_csv(ctx: RunContext, name: str, header: Sequence[str], rows: np.ndarray) -> None:
    ctx.write(name, csv_text(header, rows))


def write_json(ctx: RunContext, name: str, doc: Mapping) -> None:
    ctx.write(name, json_text(doc) + "\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RunContext:
    """A command's output files, written with the run manifest that lists them.

    ``write`` only keeps a file's bytes; ``finish`` makes the output directory
    and writes every file, then the manifest.  So a run that stops before
    ``finish`` leaves no directory behind.
    """

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.outdir = Path(args.outdir)
        # The option texts as given, or their default texts.
        self.args = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        self.outputs: list[tuple[str, bytes]] = []
        self.t0 = time.perf_counter()

    def write(self, name: str, text: str) -> None:
        """Keep one output file's bytes until ``finish``."""
        self.outputs.append((name, text.encode()))

    def finish(self) -> int:
        manifest = {
            "schema": 1,
            "tool": "fluxlattice",
            "version": __version__,
            "command": self.command,
            "args": self.args,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "wall_time_s": round(time.perf_counter() - self.t0, 6),
            "outputs": [
                {"path": name, "sha256": _sha256(data), "bytes": len(data)}
                for name, data in self.outputs
            ],
        }
        write_json(self, "run_manifest.json", manifest)
        self.outdir.mkdir(parents=True, exist_ok=True)
        for name, data in self.outputs:
            (self.outdir / name).write_bytes(data)
        return 0


def _resolve_lattice(opts) -> LatticeConfig:
    if opts.lattice:
        return load_lattice(opts.lattice)
    if opts.l is None:
        raise ConfigError("give either --lattice FILE or --l/--flux")
    return LatticeConfig(build_lattice(opts.l, [opts.flux] * opts.l), opts.j_mhz, None)


def _trace_metadata(config: LatticeConfig, init: str, delta: float) -> dict:
    lattice = lattice_to_dict(config)
    return {
        "lattice": lattice,
        "config_hash": config.config_hash(),
        "fluxes": lattice["fluxes"],
        "delta_antisym_over_J": delta,
        "init": init,
        "J_MHz": config.J_MHz,
    }


def _write_trace(ctx: RunContext, stem: str, trace: PopulationTrace, meta: dict) -> None:
    write_csv(ctx, f"{stem}.csv", *trace.csv_table())
    write_json(ctx, f"{stem}.json", trace.to_json_dict(meta))


# ---------------------------------------------------------------------------
# Subcommands: each takes the option values and the run's RunContext
# ---------------------------------------------------------------------------


def cmd_dynamics(opts, ctx: RunContext) -> int:
    config = _resolve_lattice(opts)
    lattice = config.lattice
    delta = opts.delta_antisym or 0.0
    if delta:
        lattice = lattice.with_detunings(antisymmetric_detunings(lattice.l, delta))
    times = np.linspace(0.0, opts.tmax, opts.points)
    if config.dephasing_over_J:
        trace = lindblad_evolve(
            with_vacuum(hamiltonian_single_excitation(lattice)),
            DephasingRates.from_map(lattice, config.dephasing_over_J),
            DensityMatrix.single_excitation(lattice, opts.init),
            times,
            site_labels=site_labels(lattice.l),
        ).trace
    else:
        trace = evolve_lattice(lattice, opts.init, times)
    _write_trace(ctx, "dynamics", trace, _trace_metadata(config, opts.init, delta))
    return ctx.finish()


def cmd_detuning_sweep(opts, ctx: RunContext) -> int:
    times = np.linspace(0.0, opts.tmax, opts.points)
    for flux in opts.flux:
        for token, value in opts.delta:
            tag = "pi" if flux == PI else "0"
            stem = f"sweep_phi{tag}_delta{_slug(token)}"
            lattice = build_lattice(opts.l, [flux] * opts.l, antisymmetric_detunings(opts.l, value))
            trace = evolve_lattice(lattice, opts.init, times)
            config = LatticeConfig(lattice, opts.j_mhz, None)
            _write_trace(ctx, stem, trace, _trace_metadata(config, opts.init, value))
    return ctx.finish()


def cmd_spectroscopy(opts, ctx: RunContext) -> int:
    config = _resolve_lattice(opts)
    spec_config = SpectroscopyConfig(opts.drive, opts.omega, opts.delta_range, opts.duration)
    result = spectroscopy(config.lattice, spec_config)
    write_csv(ctx, "spectroscopy.csv", *result.csv_table())
    write_json(
        ctx,
        "spectroscopy.json",
        {
            "schema": 1,
            "drive_site": opts.drive,
            "drive_amplitude_over_J": opts.omega,
            "duration_J": opts.duration,
            "peaks_over_J": list(result.detected_peaks),
            "lattice": lattice_to_dict(config),
        },
    )
    return ctx.finish()


def cmd_adiabatic(opts, ctx: RunContext) -> int:
    l, flux, init, tphis, j_mhz = opts.l, opts.flux, opts.init, opts.dephasing_us, opts.j_mhz
    if tphis and not j_mhz:
        raise ConfigError("dephasing in microseconds needs --j-mhz to fix the time unit")
    lattice = build_lattice(l, [flux] * l)
    if opts.schedule:
        schedule = schedule_from_json(read_config_file(opts.schedule, "schedule file"))
    else:
        schedule = two_stage_ramp(lattice, init, opts.duration, opts.initial_detuning)
    gammas = [dephasing_rate(tphi, j_mhz) for tphi in tphis]
    rate_sets = [DephasingRates.uniform(lattice.num_sites, gamma) for gamma in gammas]
    closed, dephased = adiabatic_ramps(lattice, schedule, init, rate_sets)
    labels = site_labels(l)

    def summary(run, **extra) -> dict:
        return {
            "final_gs_overlap": run.final_gs_overlap,
            "population_fidelity": run.population_fidelity,
            "final_populations": dict(zip(labels, run.final_populations.tolist())),
            **extra,
        }

    report = {
        "schema": 1,
        "l": l,
        "flux": "pi" if flux == PI else 0,
        "init": init,
        "duration_over_J": schedule.total_duration,
        "schedule": schedule_to_json(schedule),
        "J_MHz": j_mhz,
        "closed": summary(closed, ground_populations=dict(zip(labels, closed.ground_populations.tolist()))),
        "dephasing": [
            summary(run, T_phi_us=tphi, gamma_over_J=gamma, population_fidelity_raw=run.population_fidelity_raw)
            for tphi, gamma, run in zip(tphis, gammas, dephased)
        ],
    }
    fid_columns = {"closed": closed.gs_fidelity}
    fid_columns.update((column, run.gs_fidelity) for column, run in zip(_tphi_columns(tphis), dephased))
    write_json(ctx, "adiabatic.json", report)
    rows = np.column_stack([closed.times, *fid_columns.values()])
    write_csv(ctx, "ramp_fidelity.csv", ["Jt", *fid_columns.keys()], rows)
    return ctx.finish()


def cmd_bands(opts, ctx: RunContext) -> int:
    if opts.model == "rhombic":
        model = rhombic_bloch_model(1.0, opts.flux)
        tag = "rhombic_phi" + ("pi" if opts.flux == PI else "0")
    else:
        model = trimer_bloch_model(1.0, opts.delta_over_sqrt2j * SQRT2)
        tag = f"trimer_delta{_slug(str(opts.delta_over_sqrt2j))}sqrt2"
    bs = band_structure(model, opts.nk)
    write_csv(
        ctx,
        f"bands_{tag}.csv",
        ["k", *(f"E{i + 1}" for i in range(bs.num_bands))],
        np.column_stack([bs.k_grid, bs.energies]),
    )
    write_json(
        ctx,
        "bands.json",
        {
            "schema": 1,
            "model": opts.model,
            "parameters": dict(model.parameters),
            "bandwidths_over_J": bs.bandwidths().tolist(),
        },
    )
    return ctx.finish()


def cmd_zak(opts, ctx: RunContext) -> int:
    points = []
    for factor in opts.delta_range:
        result = zak_phase(trimer_bloch_model(1.0, factor * SQRT2), opts.band, opts.nk)
        points.append(
            {
                "delta_over_sqrt2J": factor,
                "band": opts.band,
                "zak_raw": result.raw,
                "zak_snapped": result.snapped,
                "min_gap_over_J": result.min_gap,
            }
        )
    write_json(ctx, "zak.json", {"schema": 1, "n_k": opts.nk, "points": points})
    return ctx.finish()


def cmd_coupler_calibrate(opts, ctx: RunContext) -> int:
    device = load_device(opts.device or data_path("sample_device.json"))
    grid = opts.sweep if opts.sweep is not None else np.linspace(*device.sweep_window)
    rows = []
    for omega_c in grid:
        spec = replace(device.coupler, omega_c=float(omega_c))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            formula = g_eff(spec)
            extraction = three_mode_vacuum_rabi(spec, opts.levels)
        rows.append([omega_c, formula * 1e3, extraction.value * 1e3, extraction.sign])
    data = np.array(rows)
    if not np.all(np.isfinite(data)):
        raise NumericalError("the coupler sweep overflows in MHz")
    off = coupler_off_frequency(device.coupler, (grid[0], grid[-1]))
    write_csv(ctx, "coupler_sweep.csv", ["omega_c_GHz", "g_eff_formula_MHz", "g_extracted_MHz", "sign"], data)
    # Relative agreement is meaningless near the zero crossing; compare where
    # the coupling is an appreciable fraction of its maximum.
    strong = np.abs(data[:, 1]) > 0.25 * np.abs(data[:, 1]).max()
    agreement = float(
        np.max(np.abs(data[strong, 2] - data[strong, 1]) / np.abs(data[strong, 1]))
    )
    write_json(
        ctx,
        "coupler.json",
        {
            "schema": 1,
            "off_frequency_GHz": off,
            "max_relative_disagreement": agreement,
            "sign_change": bool(data[0, 2] * data[-1, 2] < 0),
        },
    )
    return ctx.finish()


def _parse_response_csv(text: str) -> dict[tuple[str, str], list[tuple[float, float]]]:
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    lines = text.strip().splitlines()
    for line in lines[1:]:
        source, target, s_zpa, t_zpa = line.split(",")
        groups.setdefault((source, target), []).append((float(s_zpa), float(t_zpa)))
    if not groups:
        raise ValueError("expected a header and at least one response row")
    return groups


def cmd_crosstalk_fit(opts, ctx: RunContext) -> int:
    rng = np.random.default_rng(opts.seed)
    truth = None
    if opts.responses:
        groups = read_config_file(opts.responses, "response file", _parse_response_csv)
        labels = sorted({k for pair in groups for k in pair})
    else:
        labels, truth, groups = synthetic_crosstalk(opts.lines, opts.points, opts.noise, rng)
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.eye(len(labels))
    for (source, target), points in groups.items():
        matrix[index[target], index[source]] = crosstalk_fit(points)
    cm = CrosstalkMatrix(matrix, tuple(labels))
    write_csv(ctx, "crosstalk_matrix.csv", list(labels), matrix)
    probe = rng.normal(size=len(labels))
    corrected = crosstalk_correct(cm, probe)
    roundtrip = float(np.abs(cm.matrix @ corrected - probe).max())
    report = {
        "schema": 1,
        "labels": labels,
        "condition_number": cm.condition_number(),
        "roundtrip_error": roundtrip,
    }
    if truth is not None:
        report["max_element_error"] = float(
            np.abs(matrix - truth)[~np.eye(len(labels), dtype=bool)].max()
        )
    write_json(ctx, "crosstalk_fit.json", report)
    return ctx.finish()


def compare_against_reference(trace: PopulationTrace, metadata: Mapping, oracle: str, tolerance: float = 1e-8) -> dict:
    """Deviation report of a stored trace against an independent prediction."""
    if not isinstance(metadata, Mapping):
        raise ConfigError("trace metadata must be a JSON object")
    field = partial(config_field, "trace metadata", metadata)
    lattice = lattice_from_dict(field("lattice", OBJECT)).lattice
    init = field("init", SITE)
    delta = field("delta_antisym_over_J", FINITE, 0.0)
    if delta:
        lattice = lattice.with_detunings(antisymmetric_detunings(lattice.l, delta))
    if trace.num_sites != lattice.num_sites:
        raise ConfigError(
            f"trace has {trace.num_sites} sites but the lattice has {lattice.num_sites}"
        )
    if oracle == "analytic_l1":
        if lattice.l != 1:
            raise ConfigError("the closed-form oracle applies to the single plaquette only")
        expected = analytic_plaquette_populations(plaquette_flux(lattice, 1), init, trace.times)
    elif oracle == "effective_model":
        psi0 = StateVector.from_site(lattice, init)
        states_pm = effective_model_amplitudes(lattice, delta, psi0, trace.times)
        expected = np.abs(states_pm @ pm_transform_matrix(lattice.num_sites)) ** 2
    else:
        raise ConfigError(f"unknown oracle {oracle!r}")
    deviation = np.abs(trace.populations - expected)
    return {
        "schema": 1,
        "oracle": oracle,
        "max_deviation": float(deviation.max()),
        "mean_deviation": float(deviation.mean()),
        "tolerance": tolerance,
        "passed": bool(deviation.max() < tolerance),
    }


def cmd_verify(opts, ctx: RunContext) -> int:
    doc = read_config_file(opts.trace, "trace file")
    trace = PopulationTrace.from_json_dict(doc)
    report = compare_against_reference(trace, doc.get("metadata", {}), opts.oracle, opts.tolerance)
    write_json(ctx, "verify_report.json", report)
    # A failed comparison is a finished run: its report is written, then it exits 3.
    ctx.finish()
    if not report["passed"]:
        raise NumericalError(
            f"trace deviates from the {opts.oracle} oracle by {report['max_deviation']:.3e} "
            f"(tolerance {opts.tolerance:g})"
        )
    return 0


# ---------------------------------------------------------------------------
# Option kinds and the option table
# ---------------------------------------------------------------------------


PI_MULTIPLE = Kind("a finite number or multiple of pi, such as 4pi", parse_pi_multiple, math.isfinite)
DELTA = Kind("a finite detuning in J, such as 2sqrt2", parse_delta_token, math.isfinite)
RANGE = Kind(f"start:stop:count with a finite span and 1 to {MAX_POINTS} points", parse_range)
#: ``detuning-sweep --flux``: one flux, or both.
FLUXES = Kind("0, pi or both", lambda text: [0.0, PI] if text == "both" else [parse_flux(text)])
#: ``detuning-sweep --delta``: each token names its own output files.
DELTAS = Kind(
    "a comma list of detunings in J whose file names differ, such as 0,sqrt2,10",
    lambda text: [(token, parse_delta_token(token)) for token in text.split(",") if token],
    lambda pairs: 0 < len({_slug(token) for token, _ in pairs}) == len(pairs),
)
#: Dephasing times in microseconds; an infinite one does not dephase, and
#: each names its own ``ramp_fidelity.csv`` column.
TPHIS = Kind(
    "positive dephasing times in microseconds with distinct CSV columns, such as 1,10",
    lambda text: [float(t) for t in text.split(",") if t],
    lambda tphis: all(t > 0 for t in tphis) and len(set(_tphi_columns(tphis))) == len(tphis),
    lambda v: [_number(t) for t in (v if isinstance(v, list) else [v])],
)


class Option(NamedTuple):
    """One command-line option.

    ``defaults`` names the commands that take it, each with its default text
    (None: no default).  An option with a ``config`` field, given neither on
    the command line nor by default, falls back to that ``adiabatic --config``
    field, and then to the field's default value.  ``kind`` None keeps the
    text as given; ``settings`` go to ``add_argument`` as they are.
    """

    flag: str
    kind: Kind | None
    help: str | None
    defaults: Mapping[str, str | None]
    config: tuple[str, Any] | None = None
    settings: Mapping[str, Any] = {}


#: Each subcommand's function and help, in the order ``--help`` lists them.
COMMANDS = {
    "dynamics": (cmd_dynamics, "population dynamics, with dephasing if the lattice file declares it"),
    "detuning-sweep": (cmd_detuning_sweep, "traces over a list of anti-symmetric detunings"),
    "spectroscopy": (cmd_spectroscopy, "single-excitation eigenenergy scan"),
    "adiabatic": (cmd_adiabatic, "adiabatic ground-state preparation"),
    "bands": (cmd_bands, "Bloch band structure"),
    "zak": (cmd_zak, "Wilson-loop Zak phase of the trimer bands"),
    "coupler-calibrate": (cmd_coupler_calibrate, "tunable-coupler sweep and off point"),
    "crosstalk-fit": (cmd_crosstalk_fit, "fit flux-line crosstalk elements"),
    "verify": (cmd_verify, "compare a stored trace against an oracle"),
}

#: Commands that take ``--l`` and ``--j-mhz``, none of them with a default.
_LATTICE = dict.fromkeys(("dynamics", "detuning-sweep", "spectroscopy", "adiabatic"))

OPTIONS = (
    Option("--lattice", None, "lattice definition JSON file", dict.fromkeys(("dynamics", "spectroscopy"))),
    Option("--config", None, "JSON file with run parameters", {"adiabatic": None}),
    Option("--trace", None, "trace JSON produced by dynamics/detuning-sweep", {"verify": None}, settings={"required": True}),
    Option("--device", None, "device JSON (defaults to the shipped sample)", {"coupler-calibrate": None}),
    Option("--responses", None, "CSV of source,target,source_zpa,target_zpa", {"crosstalk-fit": None}),
    Option("--l", _count(1, MAX_PLAQUETTES), "number of plaquettes", {**_LATTICE, "detuning-sweep": "2", "spectroscopy": "1"}, ("l", 1)),
    Option("--flux", FLUX, "uniform plaquette flux: 0 or pi", dict.fromkeys(("dynamics", "spectroscopy", "bands"), "pi") | {"adiabatic": None}, ("flux", PI)),
    Option("--flux", FLUXES, "0, pi, or both", {"detuning-sweep": "both"}),
    Option("--j-mhz", POSITIVE, "coupling J/2pi in MHz", _LATTICE, ("J_MHz", None)),
    Option("--init", SITE, "initially excited site, e.g. A,2", {"dynamics": "A,2", "detuning-sweep": "A,1", "adiabatic": None}, ("init", "A,1")),
    Option("--tmax", PI_MULTIPLE, "final Jt (accepts e.g. 4pi)", dict.fromkeys(("dynamics", "detuning-sweep"), "4pi")),
    Option("--points", _count(1, MAX_POINTS), "number of time points", dict.fromkeys(("dynamics", "detuning-sweep"), "401")),
    Option("--delta-antisym", DELTA, "anti-symmetric detuning in J (e.g. sqrt2)", {"dynamics": None}),
    Option("--delta", DELTAS, "comma list in units of J", {"detuning-sweep": "0,sqrt2,10"}),
    Option("--drive", SITE, "driven site", {"spectroscopy": "A,1"}),
    Option("--omega", NONNEGATIVE, "drive amplitude in J", {"spectroscopy": "0.05"}),
    Option("--duration", PI_MULTIPLE, "pulse duration in 1/J", {"spectroscopy": "20"}),
    Option("--delta-range", RANGE, "grid start:stop:count", {"spectroscopy": "-3:3:201", "zak": "0.2:2.0:7"}),
    Option("--duration", NONNEGATIVE, "total ramp length in 1/J", {"adiabatic": None}, ("duration_over_J", 30.0)),
    Option("--schedule", None, "JSON array of ramp segments (overrides --duration)", {"adiabatic": None}),
    Option("--initial-detuning", FINITE, "starting detuning of the init site, in J (< -3)", {"adiabatic": None}, ("initial_detuning_over_J", -4.0)),
    Option("--dephasing-us", TPHIS, "comma list of dephasing times in microseconds", {"adiabatic": None}, ("dephasing_us", ())),
    Option("--model", None, None, {"bands": "rhombic"}, settings={"choices": ("rhombic", "trimer")}),
    Option("--delta-over-sqrt2j", NONNEGATIVE, "trimer inter-cell coupling in sqrt(2) J", {"bands": "0.5"}),
    Option("--nk", _count(1, MAX_POINTS), "number of momentum points", dict.fromkeys(("bands", "zak"), "512")),
    Option("--band", _count(0), "band index", {"zak": "0"}),
    Option("--sweep", RANGE, "coupler frequency grid start:stop:count in GHz", {"coupler-calibrate": None}),
    Option("--levels", _count(2), "bosonic truncation per mode", {"coupler-calibrate": "3"}),
    Option("--lines", _count(2, MAX_POINTS), "synthetic mode: number of lines", {"crosstalk-fit": "7"}),
    Option("--points", _count(2, MAX_POINTS), "synthetic mode: points per pair", {"crosstalk-fit": "25"}),
    Option("--noise", NONNEGATIVE, "synthetic mode: zpa noise sigma", {"crosstalk-fit": "1e-05"}),
    Option("--oracle", None, None, {"verify": None}, settings={"choices": ("analytic_l1", "effective_model"), "required": True}),
    Option("--tolerance", POSITIVE, None, {"verify": "1e-08"}),
    Option("--outdir", None, "output directory", dict.fromkeys(COMMANDS, "out")),
    Option("--seed", _count(0), "seed for synthetic-noise fits", {"crosstalk-fit": "0"}),
)


def _read(args: argparse.Namespace) -> argparse.Namespace:
    """The command's option values, each read through its option's kind."""
    path = getattr(args, "config", None)
    conf = read_config_file(path, "adiabatic config") if path else {}
    if not isinstance(conf, dict):
        raise ConfigError(f"adiabatic config {path} must hold a JSON object")
    values = argparse.Namespace()
    for option in OPTIONS:
        if args.command not in option.defaults:
            continue
        dest, kind = option.flag[2:].replace("-", "_"), option.kind
        text = getattr(args, dest)
        if text is None and option.config and "config" in args:
            key, default = option.config
            value = config_field("adiabatic config", conf, key, kind, default)
        elif text is None or kind is None:
            value = text
        else:
            # The command line is read like a file field, its text through ``kind.parse``.
            value = config_field(f"fluxlattice {args.command}", {option.flag: text}, option.flag, kind._replace(load=kind.parse))
        setattr(values, dest, value)
    return values


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="fluxlattice",
        description="Rhombic flux-lattice simulations: dynamics, spectroscopy, "
        "adiabatic preparation, band topology, and the coupler device layer.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, help) in COMMANDS.items():
        sub = subs.add_parser(command, help=help)
        for option in OPTIONS:
            if command in option.defaults:
                sub.add_argument(option.flag, default=option.defaults[command], help=option.help, **option.settings)
        sub.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code: 0, 2 (refused input) or 3 (numerical failure)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version, or a command line argparse refuses (2)
        return exc.code
    try:
        opts = _read(args)
        return args.func(opts, RunContext(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
