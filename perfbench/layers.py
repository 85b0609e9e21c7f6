"""Attribute a cProfile of fluxlattice calls to the package's layers.

The layers are the package modules plus ``linalg``: every function defined in
``numpy/linalg`` and everything it calls.  A function outside both (numpy
helpers, builtins, the stdlib) belongs to whoever called it, split over its
callers by the time it spent under each, so a layer's self time is the time in
its own functions plus the non-linalg library calls they make.
"""

from __future__ import annotations

import pstats
from pathlib import Path, PurePath

LAYERS = ("lattice", "dynamics", "open_system", "protocols", "bands", "device", "cli", "linalg")

#: Counted calls: metric -> (module, function names, calling function or
#: None for every caller).  Each count is the number of calls made.
COUNTED = {
    "lattice.hamiltonian_builds": ("lattice", ("hamiltonian_single_excitation",), None),
    "dynamics.propagations": ("dynamics", ("evolve_amplitudes",), None),
    "open_system.rk4_steps": ("open_system", ("_rk4_step",), None),
    "protocols.schedule_evals": ("protocols", ("at",), None),
    "protocols.ramp_runs": ("protocols", ("adiabatic_prepare",), None),
    "protocols.spectroscopy_points": (
        "dynamics", ("evolve_amplitudes",), ("protocols", "spectroscopy")
    ),
    "bands.k_points": ("bands", ("rhombic_bloch", "trimer_bloch"), None),
    "device.mode_solves": ("device", ("three_mode_vacuum_rabi",), None),
    "linalg.eigh_calls": ("linalg", ("eigh", "eigvalsh"), None),
}

#: Functions that format or hash output files, wherever they are defined.
EMITTERS = ("write_csv", "write_json", "_sha256", "to_json_dict")


HARNESS = Path(__file__).resolve().parent


def layer_of(filename: str) -> str | None:
    """Layer that owns a function defined in ``filename``; None to inherit."""
    path = PurePath(filename)
    parts = path.parts
    if len(parts) >= 2 and parts[-2] == "fluxlattice" and parts[-1].endswith(".py"):
        return parts[-1][:-3]
    if len(parts) >= 3 and parts[-3] == "numpy" and parts[-2] == "linalg":
        return "linalg"
    if Path(filename).resolve().parent == HARNESS:
        return "harness"
    return None


def attribute(stats: pstats.Stats) -> dict:
    """Self seconds per layer, call counts and emission time from ``stats``."""
    table = stats.stats  # func -> (cc, nc, tottime, cumtime, callers)
    owners: dict = {}

    def owner(func) -> dict[str, float]:
        if func in owners:
            return owners[func]
        own = layer_of(func[0])
        if own is not None:
            result = {own: 1.0}
        else:
            callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
            if not callers:
                result = {"harness": 1.0}
            else:
                owners[func] = {"harness": 1.0}  # breaks recursion cycles
                weights = {c: edge[2] for c, edge in callers.items()}
                if sum(weights.values()) <= 0.0:
                    weights = {c: float(edge[1]) for c, edge in callers.items()}
                total = sum(weights.values()) or 1.0
                result = {}
                for caller, weight in weights.items():
                    for layer, share in owner(caller).items():
                        result[layer] = result.get(layer, 0.0) + share * weight / total
        owners[func] = result
        return result

    self_s = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tottime, _, callers) in table.items():
        own = layer_of(func[0])
        if own is not None:
            shares = [(tottime, {own: 1.0})]
        elif callers:
            shares = [(edge[2], owner(caller)) for caller, edge in callers.items()]
        else:
            shares = [(tottime, {"harness": 1.0})]
        for seconds, split in shares:
            for layer, share in split.items():
                if layer in self_s:
                    self_s[layer] += seconds * share

    counts = {name: 0 for name in COUNTED}
    emit_s = 0.0
    for func, (_, nc, _, cumtime, callers) in table.items():
        layer = layer_of(func[0])
        for name, (module, functions, caller) in COUNTED.items():
            if layer != module or func[2] not in functions:
                continue
            if caller is None:
                counts[name] += nc
            else:
                counts[name] += sum(
                    edge[1] for c, edge in callers.items() if (layer_of(c[0]), c[2]) == caller
                )
        if layer in LAYERS and layer != "linalg" and func[2] in EMITTERS:
            emit_s += cumtime
    return {"self_s": self_s, "counts": counts, "emit_s": emit_s}
