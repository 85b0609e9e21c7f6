"""The three benchmark workloads: generated inputs, the timed call, and oracles.

Each workload is a closed loop with one client: an op is sent only after the
previous one returned.  A workload builds every input before timing starts,
from its seed, and hands the program nothing else.  The seed fixes the order
of the configuration cycle; ops run that cycle repeatedly.

Oracles never abort a run: each returns a list of problems, and an op with any
problem counts as failed.  References were recorded from the seed code with
``record_references.py`` and live in ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from fluxlattice import (
    PI,
    DensityMatrix,
    DephasingRates,
    adiabatic_prepare,
    build_lattice,
    hamiltonian_single_excitation,
    lattice_from_dict,
    lindblad_evolve,
    site_labels,
    two_stage_ramp,
    with_vacuum,
)
from fluxlattice import cli

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Slack on probability bounds for floating-point round-off.
ROUNDOFF = 1e-9


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def direct_call(name, fn, *args, **kwargs):
    """Span recorder used with tracing off: just make the call."""
    return fn(*args, **kwargs)


def _close(name: str, got, want, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} differs from reference {want.shape}"]
    if got.size == 0:
        return []
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        return [f"{name}: deviates from reference by {err:.3e} (tolerance {tol:g})"]
    return []


class Workload:
    """Shared shape: a seeded cycle of configurations and per-op oracles."""

    name = ""
    #: Cycles run by the profiled pass of a traced run.  Fixed, so per-op
    #: counts do not depend on timing.
    traced_cycles = 1

    def __init__(self, seed: int, scratch: Path, references: dict):
        self.scratch = scratch
        self.references = references[self.name]
        self.cycle: list = []

    def run_op(self, config, call):
        """The timed call; ``call(name, fn, *args)`` wraps each layer call."""
        raise NotImplementedError

    def check_op(self, config, output) -> list[str]:
        raise NotImplementedError

    def check_cycle(self, results: list) -> dict[int, list[str]]:
        """Oracles across the ops of one cycle, keyed by position in it."""
        return {}

    def release(self, output) -> None:
        """Drop what an op left behind once it was checked."""

    def layer_counts(self, output) -> dict[str, float]:
        """Per-op counts that the harness measures directly, not the profiler."""
        return {}

    def warm_up(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ramp-dephased
# ---------------------------------------------------------------------------


class RampDephased(Workload):
    """One dephased ``adiabatic_prepare`` per op: the README adiabatic
    configuration, cycling over flux {0, pi} x T_phi {1, 10} us."""

    name = "ramp-dephased"

    J_MHZ = 4.2
    DURATION = 30.0
    INITIAL_DETUNING = -4.0
    INIT = "A,1"
    FLUXES = (0.0, PI)
    TPHI_US = (1.0, 10.0)

    def __init__(self, seed, scratch, references):
        super().__init__(seed, scratch, references)
        configs = [(flux, tphi) for flux in self.FLUXES for tphi in self.TPHI_US]
        random.Random(seed).shuffle(configs)
        self.cycle = [self._inputs(flux, tphi) for flux, tphi in configs]

    def _inputs(self, flux: float, tphi: float) -> dict:
        lattice = build_lattice(1, [flux])
        gamma_over_j = 1.0 / (tphi * 2 * PI * self.J_MHZ)
        return {
            "key": f"flux={'pi' if flux == PI else '0'},tphi_us={tphi:g}",
            "flux": flux,
            "tphi": tphi,
            "lattice": lattice,
            "schedule": two_stage_ramp(lattice, self.INIT, self.DURATION, self.INITIAL_DETUNING),
            "rates": DephasingRates.uniform(lattice.num_sites, gamma_over_j),
        }

    def run_op(self, config, call):
        return call(
            "protocols.adiabatic_prepare",
            adiabatic_prepare,
            config["lattice"],
            config["schedule"],
            self.INIT,
            config["rates"],
        )

    def warm_up(self) -> None:
        config = self.cycle[0]
        short = two_stage_ramp(config["lattice"], self.INIT, 0.3, self.INITIAL_DETUNING)
        adiabatic_prepare(config["lattice"], short, self.INIT, config["rates"], n_checkpoints=3)

    @staticmethod
    def summary(result) -> dict:
        return {
            "population_fidelity": result.population_fidelity,
            "population_fidelity_raw": result.population_fidelity_raw,
            "final_gs_overlap": result.final_gs_overlap,
            "final_populations": result.final_populations.tolist(),
            "ground_populations": result.ground_populations.tolist(),
            "gs_fidelity": result.gs_fidelity.tolist(),
            "gaps": result.gaps.tolist(),
        }

    def check_op(self, config, output) -> list[str]:
        problems = []
        fidelities = {
            "population_fidelity": output.population_fidelity,
            "population_fidelity_raw": output.population_fidelity_raw,
            "final_gs_overlap": output.final_gs_overlap,
        }
        for name, value in fidelities.items():
            if not 0.0 < value <= 1.0 + ROUNDOFF:
                problems.append(f"{name} = {value!r} outside (0, 1]")
        gs = np.asarray(output.gs_fidelity)
        if not (np.all(gs > 0.0) and np.all(gs <= 1.0 + ROUNDOFF)):
            problems.append("gs_fidelity leaves (0, 1]")
        ref = self.references[config["key"]]
        got = self.summary(output)
        for name, want in ref.items():
            problems += _close(name, got[name], want, 1e-6)
        return problems

    def check_cycle(self, results) -> dict[int, list[str]]:
        """At each flux the 1 us fidelity must be below the 10 us fidelity."""
        by_config = {
            (c["flux"], c["tphi"]): (i, out) for i, (c, out) in enumerate(results) if out is not None
        }
        problems: dict[int, list[str]] = {}
        short, long_ = min(self.TPHI_US), max(self.TPHI_US)
        for flux in self.FLUXES:
            if (flux, short) not in by_config or (flux, long_) not in by_config:
                continue
            i, fast = by_config[(flux, short)]
            j, slow = by_config[(flux, long_)]
            if not fast.population_fidelity < slow.population_fidelity:
                msg = (
                    f"flux {flux:g}: T_phi={short:g} us fidelity {fast.population_fidelity:.6f} "
                    f"not below T_phi={long_:g} us fidelity {slow.population_fidelity:.6f}"
                )
                problems.setdefault(i, []).append(msg)
                problems.setdefault(j, []).append(msg)
        return problems


# ---------------------------------------------------------------------------
# lindblad-device
# ---------------------------------------------------------------------------


class LindbladDevice(Workload):
    """One time-independent ``lindblad_evolve`` per op on the shipped l=2
    pi-flux lattice.  T1 relaxation enters as non-diagonal collapse operators,
    so a fast path that only handles diagonal (dephasing) operators cannot
    apply."""

    name = "lindblad-device"
    traced_cycles = 2

    INIT = "A,2"
    T_MAX = 4 * PI
    SAMPLES = 41

    def __init__(self, seed, scratch, references):
        super().__init__(seed, scratch, references)
        doc = json.loads(cli.data_path("lattice_l2_pi.json").read_text())
        qubits = json.loads(cli.data_path("sample_device.json").read_text())["qubits"]
        labels = site_labels(int(doc["l"]))
        doc["dephasing_us"] = {s: qubits[s]["T2_phi_us"] for s in labels}
        config = lattice_from_dict(doc)
        self.gamma1 = np.array(
            [1.0 / (qubits[s]["T1_idle_us"] * 2 * PI * config.J_MHz) for s in labels]
        )
        dim = config.lattice.num_sites + 1
        relaxation = []
        for j, rate in enumerate(self.gamma1):
            op = np.zeros((dim, dim), dtype=complex)
            op[0, j + 1] = math.sqrt(rate)
            relaxation.append(op)
        self.cycle = [
            {
                "key": f"init={self.INIT},Jt=4pi",
                "operator": with_vacuum(hamiltonian_single_excitation(config.lattice)),
                "rates": DephasingRates.from_map(config.lattice, config.dephasing_over_J),
                "rho0": DensityMatrix.single_excitation(config.lattice, self.INIT),
                "times": np.linspace(0.0, self.T_MAX, self.SAMPLES),
                "extra_collapse": relaxation,
                "labels": labels,
            }
        ]

    def run_op(self, config, call, times=None):
        return call(
            "open_system.lindblad_evolve",
            lindblad_evolve,
            config["operator"],
            config["rates"],
            config["rho0"],
            config["times"] if times is None else times,
            extra_collapse=config["extra_collapse"],
            keep_states=True,
            site_labels=config["labels"],
        )

    def warm_up(self) -> None:
        self.run_op(self.cycle[0], direct_call, times=np.linspace(0.0, 0.05, 3))

    @staticmethod
    def summary(result) -> dict:
        return {
            "populations": result.trace.populations.tolist(),
            "coherence_norms": result.coherence_norms.tolist(),
        }

    def check_op(self, config, output) -> list[str]:
        problems = []
        times = output.trace.times
        traces = np.array([s.matrix.trace().real for s in output.states])
        drift = float(np.max(np.abs(traces - 1.0)))
        if not drift <= 1e-6:
            problems.append(f"trace drift {drift:.3e} above 1e-6")
        excitation = output.trace.populations.sum(axis=1)
        lower = np.exp(-self.gamma1.max() * times) - ROUNDOFF
        upper = np.exp(-self.gamma1.min() * times) + ROUNDOFF
        bad = np.flatnonzero((excitation < lower) | (excitation > upper))
        if bad.size:
            k = int(bad[0])
            problems.append(
                f"total excitation {excitation[k]:.9f} at Jt={times[k]:g} outside "
                f"[{lower[k]:.9f}, {upper[k]:.9f}]"
            )
        got = self.summary(output)
        for name, want in self.references.items():
            problems += _close(name, got[name], want, 1e-6)
        return problems


# ---------------------------------------------------------------------------
# cli-suite
# ---------------------------------------------------------------------------

#: The README quick-start argv per subcommand, ``--outdir`` added per pass;
#: ``adiabatic`` runs at its default (no dephasing).
CLI_ARGV = {
    "dynamics": ["--l", "2", "--flux", "pi", "--init", "A,2", "--tmax", "4pi"],
    "detuning-sweep": ["--l", "2", "--delta", "0,sqrt2,10", "--init", "A,1"],
    "spectroscopy": ["--l", "1", "--flux", "pi", "--drive", "A,1", "--omega", "0.05"],
    "adiabatic": ["--l", "1", "--flux", "pi", "--duration", "30", "--j-mhz", "4.2"],
    "bands": ["--model", "rhombic", "--flux", "pi", "--nk", "512"],
    "zak": ["--delta-range", "0.2:2.0:7", "--nk", "512"],
    "coupler-calibrate": [],
    "crosstalk-fit": ["--seed", "1234"],
    "verify": ["--oracle", "effective_model"],
}

#: Looser reference tolerance for the integrated ramp fidelities.
CLI_TOLERANCE = {"ramp_fidelity.csv": 1e-6}
CLI_DEFAULT_TOLERANCE = 1e-9

#: Values kept per file for the elementwise reference comparison.
FINGERPRINT_SAMPLES = 48


def _numeric_leaves(doc, out: list[float]) -> None:
    if isinstance(doc, bool):
        out.append(float(doc))
    elif isinstance(doc, (int, float)):
        out.append(float(doc))
    elif isinstance(doc, dict):
        for key in sorted(doc):
            _numeric_leaves(doc[key], out)
    elif isinstance(doc, list):
        for item in doc:
            _numeric_leaves(item, out)


def file_values(path: Path) -> tuple[str, np.ndarray]:
    """Header (CSV) or ``"json"``, and every numeric value in file order."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.strip().splitlines()
        values = [float(cell) for line in lines[1:] for cell in line.split(",")]
        return lines[0], np.array(values)
    values: list[float] = []
    _numeric_leaves(json.loads(text), values)
    return "json", np.array(values)


def _weights(n: int) -> np.ndarray:
    return np.cos(0.7 * np.arange(n) + 0.3)


def fingerprint(path: Path) -> dict:
    """Compact reference of a file: sampled values plus two checksums."""
    header, values = file_values(path)
    stride = max(1, values.size // FINGERPRINT_SAMPLES)
    return {
        "header": header,
        "n": int(values.size),
        "stride": stride,
        "sample": values[::stride].tolist(),
        "sum": float(values.sum()),
        "wsum": float((_weights(values.size) * values).sum()),
        "scale": float(np.maximum(np.abs(values), 1.0).sum()),
    }


def compare_fingerprint(name: str, path: Path, ref: dict, tol: float) -> list[str]:
    header, values = file_values(path)
    if header != ref["header"]:
        return [f"{name}: header {header!r} differs from reference"]
    if values.size != ref["n"]:
        return [f"{name}: {values.size} values, reference has {ref['n']}"]
    want = np.asarray(ref["sample"])
    scale = max(1.0, float(np.abs(want).max(initial=0)))
    problems = _close(name, values[:: ref["stride"]], want, tol * scale)
    sums = (float(values.sum()), float((_weights(values.size) * values).sum()))
    for label, got, expected in zip(("sum", "weighted sum"), sums, (ref["sum"], ref["wsum"])):
        if not abs(got - expected) <= tol * ref["scale"]:
            problems.append(f"{name}: {label} {got!r} differs from reference {expected!r}")
    return problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliSuite(Workload):
    """One in-process pass of all nine subcommands per op, each into its own
    directory of a fresh pass directory that is removed once checked."""

    name = "cli-suite"
    traced_cycles = 3

    def __init__(self, seed, scratch, references):
        super().__init__(seed, scratch, references)
        order = list(CLI_ARGV)
        random.Random(seed).shuffle(order)
        # verify reads the dynamics trace of the same pass.
        i, j = order.index("dynamics"), order.index("verify")
        if i > j:
            order[i], order[j] = order[j], order[i]
        self.order = order
        self.cycle = [{"key": ",".join(order)}]
        self.passes = 0
        self.first_csv: dict[str, str] = {}

    def _argv(self, pass_dir: Path) -> list[tuple[str, list[str]]]:
        plan = []
        for command in self.order:
            argv = [command, *CLI_ARGV[command], "--outdir", str(pass_dir / command)]
            if command == "verify":
                argv += ["--trace", str(pass_dir / "dynamics" / "dynamics.json")]
            plan.append((command, argv))
        return plan

    def run_op(self, config, call):
        self.passes += 1
        pass_dir = self.scratch / f"pass{self.passes:05d}"
        plan = self._argv(pass_dir)
        codes = {}
        for command, argv in plan:
            try:
                codes[command] = call(f"cli.cmd.{command}", cli.main, argv)
            except SystemExit as exc:  # argparse exits instead of returning a code
                codes[command] = exc.code
        return {"dir": pass_dir, "codes": codes}

    def warm_up(self) -> None:
        out = self.scratch / "warmup"
        cli.main(["bands", "--nk", "8", "--outdir", str(out)])
        shutil.rmtree(out, ignore_errors=True)

    def release(self, output) -> None:
        if output is not None:
            shutil.rmtree(output["dir"], ignore_errors=True)

    def outputs(self, pass_dir: Path) -> dict[str, dict]:
        """Manifest output entries by ``command/file`` path."""
        entries = {}
        for command in CLI_ARGV:
            manifest = pass_dir / command / "run_manifest.json"
            if manifest.exists():
                for entry in json.loads(manifest.read_text())["outputs"]:
                    entries[f"{command}/{entry['path']}"] = entry
        return entries

    def layer_counts(self, output) -> dict[str, float]:
        if output is None:
            return {}
        total = sum(entry["bytes"] for entry in self.outputs(output["dir"]).values())
        return {"cli.bytes_written": float(total)}

    def check_op(self, config, output) -> list[str]:
        problems = []
        for command, code in output["codes"].items():
            if code != 0:
                problems.append(f"{command} exited with {code!r}")
        pass_dir = output["dir"]
        for command in CLI_ARGV:
            if not (pass_dir / command / "run_manifest.json").exists():
                problems.append(f"{command} wrote no run_manifest.json")
        entries = self.outputs(pass_dir)
        expected = set(self.references["files"])
        if set(entries) != expected:
            problems.append(
                f"output files differ from reference: missing {sorted(expected - set(entries))}, "
                f"extra {sorted(set(entries) - expected)}"
            )
        for rel, entry in sorted(entries.items()):
            path = pass_dir / rel
            digest = _sha256(path)
            if digest != entry["sha256"]:
                problems.append(f"{rel}: SHA-256 does not match its manifest")
            if path.stat().st_size != entry["bytes"]:
                problems.append(f"{rel}: size does not match its manifest")
            if path.suffix == ".csv":
                first = self.first_csv.setdefault(rel, digest)
                if digest != first:
                    problems.append(f"{rel}: CSV bytes differ from the first pass of this run")
            ref = self.references["files"].get(rel)
            if ref is not None:
                tol = CLI_TOLERANCE.get(path.name, CLI_DEFAULT_TOLERANCE)
                problems += compare_fingerprint(rel, path, ref, tol)
        return problems


WORKLOADS = {w.name: w for w in (RampDephased, LindbladDevice, CliSuite)}
