"""Smoke test of the benchmark itself (about two minutes on two cores)::

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload end to end in smoke mode, checks that two traced runs
repeat their count metrics exactly, and shows that every oracle flags a
corrupted copy of a real output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that count work; they must repeat exactly.
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "bytes")]


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_end_to_end(workload):
    result = bench(workload, seed=3, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["lindblad-device", "cli-suite"])
def test_trace_counts_repeat(workload):
    first, second = bench(workload, seed=1, trace=1), bench(workload, seed=2, trace=1)
    assert first["correct"] and second["correct"]
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(first["metrics"]) == names
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.fixture(scope="module")
def workloads_module():
    run.pin_environment()
    run.import_package()
    import workloads

    return workloads


@pytest.fixture()
def scratch():
    path = run.STATE / "tmp" / "test-smoke"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_ramp_oracles_flag_corruption(workloads_module, scratch):
    w = workloads_module
    ramp = w.RampDephased(0, scratch, w.load_references())
    config = ramp.cycle[0]
    good = ramp.run_op(config, w.direct_call)
    assert ramp.check_op(config, good) == []
    for bad in (
        dataclasses.replace(good, population_fidelity=1.5),
        dataclasses.replace(good, population_fidelity_raw=0.0),
        dataclasses.replace(good, gs_fidelity=good.gs_fidelity * 1.01),
        dataclasses.replace(good, final_populations=good.final_populations + 1e-5),
    ):
        assert ramp.check_op(config, bad)
    # Decoherence ordering: a 1 us ramp that beats the 10 us ramp is flagged.
    pair = [c for c in ramp.cycle if c["flux"] == config["flux"]]
    short, long_ = sorted(pair, key=lambda c: c["tphi"])
    results = [(short, dataclasses.replace(good, population_fidelity=0.99)),
               (long_, dataclasses.replace(good, population_fidelity=0.98))]
    assert set(ramp.check_cycle(results)) == {0, 1}
    results[0] = (short, dataclasses.replace(good, population_fidelity=0.97))
    assert ramp.check_cycle(results) == {}


def test_lindblad_oracles_flag_corruption(workloads_module, scratch):
    w = workloads_module
    device = w.LindbladDevice(0, scratch, w.load_references())
    config = device.cycle[0]
    good = device.run_op(config, w.direct_call)
    assert device.check_op(config, good) == []
    drifted = tuple(SimpleNamespace(matrix=s.matrix * (1 + 1e-5)) for s in good.states)
    assert any("trace drift" in p for p in device.check_op(config, dataclasses.replace(good, states=drifted)))
    trace = good.trace
    leaked = dataclasses.replace(
        good, trace=type(trace)(trace.times, trace.populations * 0.98, trace.site_labels)
    )
    problems = device.check_op(config, leaked)
    assert any("total excitation" in p for p in problems)
    assert any("populations" in p for p in problems)
    shifted = dataclasses.replace(good, coherence_norms=good.coherence_norms + 1e-5)
    assert device.check_op(config, shifted)


def test_cli_oracles_flag_corruption(workloads_module, scratch):
    w = workloads_module
    suite = w.CliSuite(0, scratch, w.load_references())
    config = suite.cycle[0]
    good = suite.run_op(config, w.direct_call)
    assert suite.check_op(config, good) == []

    assert suite.check_op(config, {**good, "codes": {**good["codes"], "zak": 3}})

    copy = scratch / "corrupted"
    shutil.copytree(good["dir"], copy)
    csv = copy / "bands" / "bands_rhombic_phipi.csv"
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = f"{float(cells[1]) + 1e-3:.12e}"
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    wrong_value = f"bands/{csv.name}: sum"
    problems = suite.check_op(config, {**good, "dir": copy})
    assert any("SHA-256" in p for p in problems)
    assert any("differ from the first pass" in p for p in problems)
    assert any(p.startswith(wrong_value) for p in problems)

    # A consistent manifest does not hide a wrong value.
    manifest_path = copy / "bands" / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["outputs"]:
        if entry["path"] == csv.name:
            entry["sha256"] = w._sha256(csv)
    manifest_path.write_text(json.dumps(manifest))
    problems = suite.check_op(config, {**good, "dir": copy})
    assert not any("SHA-256" in p for p in problems)
    assert any(p.startswith(wrong_value) for p in problems)

    ramp_csv = copy / "adiabatic" / "ramp_fidelity.csv"
    ramp_csv.write_text(ramp_csv.read_text().replace("e-01", "e-02", 1))
    assert any("ramp_fidelity.csv" in p for p in suite.check_op(config, {**good, "dir": copy}))


def test_refuses_to_run_without_sources(scratch):
    """A directory with only BENCHMARK.json and perfbench/ gives no result."""
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
