"""fluxlattice benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from anywhere; the package is imported from ``src/`` of the checkout that
holds this file::

    python3 perfbench/run.py --workload ramp-dephased --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``ramp-dephased``, ``lindblad-device`` and
``cli-suite``.  Each is a closed loop with one client in this process.  Ops
run in whole cycles of the seeded configuration order, and the run stops at
the cycle boundary nearest to ``--seconds``.  ``--smoke`` runs one cycle with
one set-up probe.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it hold
the full report (environment, pinned variables, samples, problems).  With
``--trace 1`` one cycle set runs untraced and then again under cProfile, with
spans around each layer call; per-layer numbers come from the profiled pass
and the spans are written to ``.perfbench/spans/``.  Scratch output goes to
``.perfbench/tmp/`` in the checkout and is removed before exit.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ramp-dephased", "lindblad-device", "cli-suite")

#: Pinned before numpy is imported: one BLAS thread and no sweep worker pool,
#: so the numbers measure the program rather than the scheduler.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "FLUXLATTICE_JOBS": "1",
}

#: Fresh-process set-ups per run; their median is ``setup_s``.
SETUP_PROBES = 5

#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

def pin_environment() -> dict:
    pinned = {}
    for var, value in PINNED.items():
        pinned[var] = {"before": os.environ.get(var), "pinned": value}
        os.environ[var] = value
    return pinned


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one cycle, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import fluxlattice from this checkout's ``src``; bytecode goes to STATE."""
    src = ROOT / "src"
    if not (src / "fluxlattice" / "__init__.py").is_file():
        raise SystemExit(f"error: no fluxlattice sources under {src}")
    sys.pycache_prefix = str(STATE / "pycache")
    sys.path.insert(0, str(src))
    import fluxlattice

    if Path(fluxlattice.__file__).resolve().parent != (src / "fluxlattice").resolve():
        raise SystemExit(f"error: imported fluxlattice from {fluxlattice.__file__}, not {src}")
    return fluxlattice


def build_workload(name: str, seed: int, scratch: Path):
    import workloads

    workload = workloads.WORKLOADS[name](seed, scratch, workloads.load_references())
    workload.warm_up()
    return workload


def probe_setup(args) -> float:
    """Wall time from spawning a fresh process to its first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    git = {"commit": None, "dirty": None}
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, env=git_env, capture_output=True, text=True,
                                    timeout=30)
            git = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    threads = {
        k: v for k, v in sorted(os.environ.items())
        if "THREAD" in k or k.startswith("OMP_") or k == "FLUXLATTICE_JOBS"
    }
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": threads,
        "git": git,
    }


class Spans:
    """In-memory spans: one per op and one per layer call, sharing the op id."""

    def __init__(self):
        self.records: list[dict] = []
        self.op_id = 0
        self.op_start = 0.0

    def begin_op(self) -> None:
        self.op_id += 1
        self.op_start = time.perf_counter()

    def end_op(self) -> None:
        self.records.append(
            {"op": self.op_id, "name": "op", "start": self.op_start, "end": time.perf_counter()}
        )

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.records.append(
                {"op": self.op_id, "name": name, "start": start, "end": time.perf_counter()}
            )


def run_cycle(workload, call, before=None, after=None) -> list[dict]:
    """One pass over the workload's configuration cycle, each op timed."""
    ops = []
    for config in workload.cycle:
        if before:
            before()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        output, error = None, None
        try:
            output = workload.run_op(config, call)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if after:
            after()
        ops.append({"config": config, "output": output, "error": error, "wall": wall, "cpu": cpu})
    return ops


def check_cycle(workload, ops: list[dict]) -> None:
    """Run the oracles; each op gets a ``problems`` list.  Outputs are released."""
    for op in ops:
        if op["error"] is not None:
            op["problems"] = [op["error"]]
            continue
        try:
            op["problems"] = workload.check_op(op["config"], op["output"])
        except Exception as exc:  # a malformed output is a failed op
            op["problems"] = [f"oracle raised {type(exc).__name__}: {exc}"]
    cross = workload.check_cycle(
        [(op["config"], op["output"] if op["error"] is None else None) for op in ops]
    )
    for index, problems in cross.items():
        ops[index]["problems"] += problems
    for op in ops:
        op["counts"] = workload.layer_counts(op["output"]) if op["error"] is None else {}
        workload.release(op["output"])
        op["output"] = None


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  When that percentile would
    fall below the median there are too few samples for a tail, and the
    maximum is reported as percentile 100 with 0 beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1
    if index < (n - 1) // 2:
        return ordered[-1], 100.0, 0
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def timed_run(workload, seconds: float, smoke: bool) -> tuple[list[dict], float]:
    from workloads import direct_call

    ops = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle = run_cycle(workload, direct_call)
        check_cycle(workload, cycle)
        ops += cycle
        now = time.perf_counter()
        # Stop at the cycle boundary nearest to the time limit.
        if smoke or now - start + (now - cycle_start) / 2 >= seconds:
            return ops, now - start


def traced_run(workload, smoke: bool) -> tuple[list[dict], dict, list[dict]]:
    import cProfile
    import pstats

    import layers
    from workloads import CLI_ARGV, direct_call

    cycles = 1 if smoke else workload.traced_cycles
    untraced = []
    for _ in range(cycles):
        cycle = run_cycle(workload, direct_call)
        check_cycle(workload, cycle)
        untraced += cycle

    spans = Spans()
    profile = cProfile.Profile()
    traced = []

    def before():
        spans.begin_op()
        profile.enable()

    def after():
        profile.disable()
        spans.end_op()

    for _ in range(cycles):
        cycle = run_cycle(workload, spans.call, before, after)
        check_cycle(workload, cycle)
        traced += cycle

    n = len(traced)
    found = layers.attribute(pstats.Stats(profile))
    metrics = {f"{layer}.self_ms": 1e3 * s / n for layer, s in found["self_s"].items()}
    metrics.update({name: count / n for name, count in found["counts"].items()})
    steps = found["counts"]["open_system.rk4_steps"]
    metrics["open_system.us_per_rk4_step"] = (
        1e6 * found["self_s"]["open_system"] / steps if steps else 0.0
    )
    metrics["cli.emit_ms"] = 1e3 * found["emit_s"] / n
    metrics["cli.bytes_written"] = sum(op["counts"].get("cli.bytes_written", 0.0) for op in traced) / n
    for command in CLI_ARGV:
        durations = [s["end"] - s["start"] for s in spans.records if s["name"] == f"cli.cmd.{command}"]
        metrics[f"cli.cmd_ms.{command}"] = 1e3 * sum(durations) / n
    traced_ms = 1e3 * statistics.fmean(op["wall"] for op in traced)
    untraced_ms = 1e3 * statistics.fmean(op["wall"] for op in untraced)
    metrics["trace.op_ms"] = traced_ms
    metrics["trace.untraced_op_ms"] = untraced_ms
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    return untraced + traced, metrics, spans.records


def summarize(ops: list[dict]) -> dict:
    failed = [op for op in ops if op["problems"]]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "problems": sorted({p for op in failed for p in op["problems"]})[:20],
    }


def end_to_end(ops: list[dict], setup_s: float) -> tuple[dict, dict]:
    walls = [op["wall"] for op in ops]
    good = sum(1 for op in ops if not op["problems"])
    value, percentile, beyond = tail(walls)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": good / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_tail_ms": 1e3 * value,
        "op_cpu_p50_ms": 1e3 * statistics.median(op["cpu"] for op in ops),
        "correct_frac": good / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_info = {"percentile": percentile, "beyond": beyond, "samples": len(walls)}
    return metrics, tail_info


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = pin_environment()
    import_package()
    scratch = STATE / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = build_workload(args.workload, args.seed, scratch)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        own_setup_s = time.perf_counter() - PROCESS_START
        probes = [probe_setup(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
        report = {
            "workload": args.workload,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": environment(),
            "pinned_before_import": pinned,
            "setup": {"probes_s": probes, "own_s": own_setup_s},
            "cycle": [config["key"] for config in workload.cycle],
        }
        if args.trace:
            ops, metrics, spans = traced_run(workload, args.smoke)
            out = STATE / "spans" / f"{args.workload}-seed{args.seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(spans))
            report["spans_file"] = str(out.relative_to(ROOT))
        else:
            ops, window_s = timed_run(workload, args.seconds, args.smoke)
            metrics, report["tail"] = end_to_end(ops, statistics.median(probes))
            report["window_s"] = window_s
        report["samples_ms"] = [round(1e3 * op["wall"], 3) for op in ops]
        report["cpu_samples_ms"] = [round(1e3 * op["cpu"], 3) for op in ops]
        report.update(summarize(ops))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(json.dumps({"report": report}, indent=1))
    result = {
        "correct": report["failed"] == 0 and report["attempted"] >= 1,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
