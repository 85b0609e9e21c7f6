"""Command-line front end: experiment orchestration and data-file emission.

Output is data first (CSV plus JSON mirrors with metadata); plotting is left
to external tools.  Every run writes a manifest listing each output file with
its content hash, and identical configuration plus seed reproduces CSV files
byte for byte.  Frequencies named ``*_MHz``/``*_GHz`` are cyclic (value over
2 pi); everything else is expressed in units of the coupling J.
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
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError
from .lattice import (
    PI,
    LatticeConfig,
    _real,
    build_lattice,
    check_j_mhz,
    config_field,
    csv_text,
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
    simulate_compensation_data,
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


#: Most points a ``--points`` option or a range's count may ask for, checked
#: before any grid is built.
MAX_POINTS = 10**6


def _check_count(name: str, count: int) -> None:
    if not 1 <= count <= MAX_POINTS:
        raise ConfigError(f"{name} must be between 1 and the limit of {MAX_POINTS}, got {count}")


def parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"expected numbers in start:stop:count, got {text!r}") from None
    _check_count("range count", count)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"range start and stop must be finite, got {text!r}")
    return np.linspace(start, stop, count)


def _slug(token: str) -> str:
    return token.strip().replace(".", "p").replace("-", "m")


def write_csv(ctx: RunContext, name: str, header: Sequence[str], rows: np.ndarray) -> None:
    ctx.write(name, csv_text(header, rows))


def write_json(ctx: RunContext, name: str, doc: Mapping) -> None:
    ctx.write(name, json_text(doc) + "\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RunContext:
    """Writes a command's output files, then the run manifest that lists them.

    The output directory is made at the first write, so a run refused before
    it writes anything leaves no directory behind.
    """

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.outdir = Path(args.outdir)
        self.seed = args.seed
        self.args = {
            k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
        }
        self.outputs: list[tuple[str, bytes]] = []
        self.t0 = time.perf_counter()

    def write(self, name: str, text: str) -> None:
        """Write one output file, keeping its bytes for the manifest."""
        data = text.encode()
        if not self.outputs:
            self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / name).write_bytes(data)
        self.outputs.append((name, data))

    def finish(self, extra: Mapping | None = None) -> int:
        manifest = {
            "schema": 1,
            "tool": "fluxlattice",
            "version": __version__,
            "command": self.command,
            "args": {k: str(v) for k, v in self.args.items()},
            "seed": self.seed,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "wall_time_s": round(time.perf_counter() - self.t0, 6),
            "outputs": [
                {"path": name, "sha256": _sha256(data), "bytes": len(data)}
                for name, data in self.outputs
            ],
        }
        if extra:
            manifest.update(extra)
        write_json(self, "run_manifest.json", manifest)
        return 0


def _resolve_lattice(args) -> LatticeConfig:
    if getattr(args, "lattice", None):
        return load_lattice(args.lattice)
    l = getattr(args, "l", None)
    if l is None:
        raise ConfigError("give either --lattice FILE or --l/--flux")
    flux = parse_flux(getattr(args, "flux", "pi"))
    return LatticeConfig(
        build_lattice(l, [flux] * l), getattr(args, "j_mhz", None), None
    )


def _time_grid(args) -> np.ndarray:
    _check_count("--points", args.points)
    return np.linspace(0.0, parse_pi_multiple(args.tmax), args.points)


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
# Subcommands
# ---------------------------------------------------------------------------


def cmd_dynamics(args) -> int:
    ctx = RunContext("dynamics", args)
    config = _resolve_lattice(args)
    lattice = config.lattice
    delta = parse_delta_token(args.delta_antisym) if args.delta_antisym else 0.0
    if delta:
        lattice = lattice.with_detunings(antisymmetric_detunings(lattice.l, delta))
    times = _time_grid(args)
    if config.dephasing_over_J:
        trace = lindblad_evolve(
            with_vacuum(hamiltonian_single_excitation(lattice)),
            DephasingRates.from_map(lattice, config.dephasing_over_J),
            DensityMatrix.single_excitation(lattice, args.init),
            times,
            site_labels=site_labels(lattice.l),
        ).trace
    else:
        trace = evolve_lattice(lattice, args.init, times)
    _write_trace(ctx, "dynamics", trace, _trace_metadata(config, args.init, delta))
    return ctx.finish()


def cmd_detuning_sweep(args) -> int:
    ctx = RunContext("detuning-sweep", args)
    fluxes = [0.0, PI] if args.flux == "both" else [parse_flux(args.flux)]
    tokens = [t for t in args.delta.split(",") if t]
    if not tokens:
        raise ConfigError(f"--delta needs at least one detuning, got {args.delta!r}")
    stems = [_slug(t) for t in tokens]
    if len(set(stems)) < len(stems):
        raise ConfigError(f"--delta tokens must be distinct in their file names, got {stems}")
    deltas = [(t, parse_delta_token(t)) for t in tokens]
    times = _time_grid(args)
    for flux in fluxes:
        for token, value in deltas:
            tag = "pi" if flux == PI else "0"
            stem = f"sweep_phi{tag}_delta{_slug(token)}"
            lattice = build_lattice(args.l, [flux] * args.l, antisymmetric_detunings(args.l, value))
            trace = evolve_lattice(lattice, args.init, times)
            config = LatticeConfig(lattice, args.j_mhz, None)
            _write_trace(ctx, stem, trace, _trace_metadata(config, args.init, value))
    return ctx.finish()


def cmd_spectroscopy(args) -> int:
    ctx = RunContext("spectroscopy", args)
    config = _resolve_lattice(args)
    duration = parse_pi_multiple(args.duration)
    spec_config = SpectroscopyConfig(args.drive, args.omega, parse_range(args.delta_range), duration)
    result = spectroscopy(config.lattice, spec_config)
    write_csv(ctx, "spectroscopy.csv", *result.csv_table())
    write_json(
        ctx,
        "spectroscopy.json",
        {
            "schema": 1,
            "drive_site": args.drive,
            "drive_amplitude_over_J": args.omega,
            "duration_J": duration,
            "peaks_over_J": list(result.detected_peaks),
            "lattice": lattice_to_dict(config),
        },
    )
    return ctx.finish()


def cmd_adiabatic(args) -> int:
    ctx = RunContext("adiabatic", args)
    conf: dict = {}
    if args.config:
        conf = read_config_file(args.config, "adiabatic config")
        if not isinstance(conf, dict):
            raise ConfigError(f"adiabatic config {args.config} must hold a JSON object")
    field = partial(config_field, "adiabatic config", conf)
    l = args.l if args.l is not None else field("l", int, 1)
    flux = parse_flux(args.flux) if args.flux else field("flux", parse_flux, PI)
    init = args.init or field("init", str, "A,1")
    duration = args.duration if args.duration is not None else field("duration_over_J", float, 30.0)
    d0 = args.initial_detuning if args.initial_detuning is not None else field(
        "initial_detuning_over_J", float, -4.0
    )
    j_mhz = args.j_mhz if args.j_mhz is not None else field("J_MHz", lambda v: check_j_mhz(float(v)), None)
    if args.dephasing_us:
        try:
            tphis = [float(t) for t in args.dephasing_us.split(",") if t]
        except ValueError:
            raise ConfigError(f"--dephasing-us takes comma-separated numbers, got {args.dephasing_us!r}") from None
    else:
        tphis = field(
            "dephasing_us", lambda v: [float(t) for t in v] if isinstance(v, list) else [float(v)], []
        )
    if any(not t > 0 for t in tphis):
        raise ConfigError(f"dephasing times must be positive, got {tphis}")
    columns = [f"tphi_{tphi:g}us" for tphi in tphis]
    if len(set(columns)) < len(columns):
        raise ConfigError(f"dephasing times must be distinct in their CSV column names, got {columns}")
    if tphis and not j_mhz:
        raise ConfigError("dephasing in microseconds needs --j-mhz to fix the time unit")

    lattice = build_lattice(l, [flux] * l)
    if args.schedule:
        schedule = schedule_from_json(read_config_file(args.schedule, "schedule file"))
    else:
        schedule = two_stage_ramp(lattice, init, duration, d0)
    gammas = [1.0 / (tphi * 2 * PI * j_mhz) for tphi in tphis]
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
    fid_columns.update((column, run.gs_fidelity) for column, run in zip(columns, dephased))
    write_json(ctx, "adiabatic.json", report)
    rows = np.column_stack([closed.times, *fid_columns.values()])
    write_csv(ctx, "ramp_fidelity.csv", ["Jt", *fid_columns.keys()], rows)
    return ctx.finish()


def cmd_bands(args) -> int:
    ctx = RunContext("bands", args)
    if args.model == "rhombic":
        flux = parse_flux(args.flux)
        model = rhombic_bloch_model(1.0, flux)
        tag = "rhombic_phi" + ("pi" if flux == PI else "0")
    else:
        delta = args.delta_over_sqrt2j * SQRT2
        model = trimer_bloch_model(1.0, delta)
        tag = f"trimer_delta{_slug(str(args.delta_over_sqrt2j))}sqrt2"
    bs = band_structure(model, args.nk)
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
            "model": args.model,
            "parameters": dict(model.parameters),
            "bandwidths_over_J": bs.bandwidths().tolist(),
        },
    )
    return ctx.finish()


def cmd_zak(args) -> int:
    ctx = RunContext("zak", args)
    points = []
    for factor in parse_range(args.delta_range):
        result = zak_phase(trimer_bloch_model(1.0, factor * SQRT2), args.band, args.nk)
        points.append(
            {
                "delta_over_sqrt2J": factor,
                "band": args.band,
                "zak_raw": result.raw,
                "zak_snapped": result.snapped,
                "min_gap_over_J": result.min_gap,
            }
        )
    write_json(ctx, "zak.json", {"schema": 1, "n_k": args.nk, "points": points})
    return ctx.finish()


def cmd_coupler_calibrate(args) -> int:
    ctx = RunContext("coupler-calibrate", args)
    device = load_device(args.device or data_path("sample_device.json"))
    grid = parse_range(args.sweep) if args.sweep else np.linspace(*device.sweep_window)
    rows = []
    for omega_c in grid:
        spec = replace(device.coupler, omega_c=float(omega_c))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            formula = g_eff(spec)
            extraction = three_mode_vacuum_rabi(spec, args.levels)
        rows.append([omega_c, formula * 1e3, extraction.value * 1e3, extraction.sign])
    data = np.array(rows)
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
    return groups


#: Most synthetic response points ``crosstalk-fit`` simulates, lines * (lines - 1)
#: * points; 100 lines at the default 25 points make 247,500.
SYNTHETIC_MAX_RESPONSES = 10**6


def cmd_crosstalk_fit(args) -> int:
    ctx = RunContext("crosstalk-fit", args)
    if ctx.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {ctx.seed}")
    rng = np.random.default_rng(ctx.seed)
    truth = None
    if args.responses:
        groups = read_config_file(args.responses, "response file", _parse_response_csv)
        labels = sorted({k for pair in groups for k in pair})
    else:
        if args.lines < 2 or args.points < 2:
            raise ConfigError("synthetic crosstalk needs at least 2 --lines and 2 --points")
        if not 0 <= args.noise < math.inf:
            raise ConfigError(f"--noise must be finite and nonnegative, got {args.noise}")
        n = args.lines
        size = n * (n - 1) * args.points
        if size > SYNTHETIC_MAX_RESPONSES:
            raise ConfigError(
                f"synthetic crosstalk on {n} lines with {args.points} points per pair needs {size} "
                f"response points, above the limit of {SYNTHETIC_MAX_RESPONSES}"
            )
        labels = [f"Z{i + 1}" for i in range(n)]
        truth = rng.normal(6e-4, 1e-4, size=(n, n))
        np.fill_diagonal(truth, 1.0)
        source_values = np.linspace(-1.0, 1.0, args.points)
        groups = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                data = simulate_compensation_data(truth[i, j], source_values, args.noise, rng)
                groups[(labels[j], labels[i])] = [tuple(row) for row in data]
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
    lattice_doc = metadata.get("lattice")
    init = metadata.get("init")
    if lattice_doc is None or init is None:
        raise ConfigError("trace metadata lacks the lattice definition or init site")
    if not isinstance(init, str):
        raise ConfigError(f"trace metadata init must be a site label, got {init!r}")
    config = lattice_from_dict(lattice_doc)
    lattice = config.lattice
    delta = config_field("trace metadata", metadata, "delta_antisym_over_J", lambda v: float(_real(v)), 0.0)
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


def cmd_verify(args) -> int:
    if not 0 < args.tolerance < math.inf:  # also rejects NaN
        raise ConfigError(f"--tolerance must be finite and positive, got {args.tolerance}")
    ctx = RunContext("verify", args)
    doc = read_config_file(args.trace, "trace file")
    trace = PopulationTrace.from_json_dict(doc)
    report = compare_against_reference(
        trace, doc.get("metadata", {}), args.oracle, args.tolerance
    )
    write_json(ctx, "verify_report.json", report)
    ctx.finish()
    if not report["passed"]:
        raise NumericalError(
            f"trace deviates from the {args.oracle} oracle by {report['max_deviation']:.3e} "
            f"(tolerance {args.tolerance:g})"
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--outdir", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="seed for synthetic-noise fits")


def _add_lattice_source(sub: argparse.ArgumentParser, default_l: int | None = None) -> None:
    sub.add_argument("--lattice", help="lattice definition JSON file")
    sub.add_argument("--l", type=int, default=default_l, help="number of plaquettes")
    sub.add_argument("--flux", default="pi", help="uniform plaquette flux: 0 or pi")
    sub.add_argument("--j-mhz", type=float, default=None, help="coupling J/2pi in MHz")


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

    p = subs.add_parser("dynamics", help="population dynamics, with dephasing if the lattice file declares it")
    _add_lattice_source(p)
    p.add_argument("--init", default="A,2", help="initially excited site, e.g. A,2")
    p.add_argument("--tmax", default="4pi", help="final Jt (accepts e.g. 4pi)")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--delta-antisym", default=None, help="anti-symmetric detuning in J (e.g. sqrt2)")
    _add_common(p)
    p.set_defaults(func=cmd_dynamics)

    p = subs.add_parser("detuning-sweep", help="traces over a list of anti-symmetric detunings")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--flux", default="both", help="0, pi, or both")
    p.add_argument("--delta", default="0,sqrt2,10", help="comma list in units of J")
    p.add_argument("--init", default="A,1")
    p.add_argument("--tmax", default="4pi")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--j-mhz", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_detuning_sweep)

    p = subs.add_parser("spectroscopy", help="single-excitation eigenenergy scan")
    _add_lattice_source(p, default_l=1)
    p.add_argument("--drive", default="A,1")
    p.add_argument("--omega", type=float, default=0.05, help="drive amplitude in J")
    p.add_argument("--duration", default="20", help="pulse duration in 1/J")
    p.add_argument("--delta-range", default="-3:3:201", help="drive detuning grid start:stop:count in J")
    _add_common(p)
    p.set_defaults(func=cmd_spectroscopy)

    p = subs.add_parser("adiabatic", help="adiabatic ground-state preparation")
    p.add_argument("--config", default=None, help="JSON file with run parameters")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--flux", default=None)
    p.add_argument("--init", default=None)
    p.add_argument("--duration", type=float, default=None, help="total ramp length in 1/J")
    p.add_argument("--schedule", default=None, help="JSON array of ramp segments (overrides --duration)")
    p.add_argument("--initial-detuning", type=float, default=None, help="starting detuning of the init site, in J (< -3)")
    p.add_argument("--j-mhz", type=float, default=None)
    p.add_argument("--dephasing-us", default=None, help="comma list of dephasing times in microseconds")
    _add_common(p)
    p.set_defaults(func=cmd_adiabatic)

    p = subs.add_parser("bands", help="Bloch band structure")
    p.add_argument("--model", choices=("rhombic", "trimer"), default="rhombic")
    p.add_argument("--flux", default="pi")
    p.add_argument("--delta-over-sqrt2j", type=float, default=0.5, help="trimer inter-cell coupling in sqrt(2) J")
    p.add_argument("--nk", type=int, default=512)
    _add_common(p)
    p.set_defaults(func=cmd_bands)

    p = subs.add_parser("zak", help="Wilson-loop Zak phase of the trimer bands")
    p.add_argument("--delta-range", default="0.2:2.0:7", help="inter-cell couplings in sqrt(2) J")
    p.add_argument("--band", type=int, default=0)
    p.add_argument("--nk", type=int, default=512)
    _add_common(p)
    p.set_defaults(func=cmd_zak)

    p = subs.add_parser("coupler-calibrate", help="tunable-coupler sweep and off point")
    p.add_argument("--device", default=None, help="device JSON (defaults to the shipped sample)")
    p.add_argument("--sweep", default=None, help="coupler frequency grid start:stop:count in GHz")
    p.add_argument("--levels", type=int, default=3, help="bosonic truncation per mode")
    _add_common(p)
    p.set_defaults(func=cmd_coupler_calibrate)

    p = subs.add_parser("crosstalk-fit", help="fit flux-line crosstalk elements")
    p.add_argument("--responses", default=None, help="CSV of source,target,source_zpa,target_zpa")
    p.add_argument("--lines", type=int, default=7, help="synthetic mode: number of lines")
    p.add_argument("--points", type=int, default=25, help="synthetic mode: points per pair")
    p.add_argument("--noise", type=float, default=1e-5, help="synthetic mode: zpa noise sigma")
    _add_common(p)
    p.set_defaults(func=cmd_crosstalk_fit)

    p = subs.add_parser("verify", help="compare a stored trace against an oracle")
    p.add_argument("--trace", required=True, help="trace JSON produced by dynamics/detuning-sweep")
    p.add_argument("--oracle", choices=("analytic_l1", "effective_model"), required=True)
    p.add_argument("--tolerance", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        check_j_mhz(getattr(args, "j_mhz", None))
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
