"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli-cold,sweep-dense,curve-geometry} \
        --seed N --seconds S --trace {0,1}

Each run starts ``inputs.SLICES`` worker processes one after another; each
sets itself up, times its slice of the seeded deck for S / SLICES seconds
of operation latency and checks every result (see worker.py).  Latencies
are pooled across workers, which evens out per-process effects such as
memory layout.  The run and its children are pinned to one CPU, and every
timing is scaled to a reference CPU speed (see speed.py); the raw
wall-clock figures are printed beside them.  With ``--trace 0`` the run
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a separate traced pass.  Every metric is printed by name with its
unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Generated inputs, spans and the full result go under
``bench/.work/``.  The program under test is always ``src/biphase`` of the
checkout; without it the run exits with status 2 before measuring.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("cli-cold", "sweep-dense", "curve-geometry")
#: Thread pins so every workload runs one operation at a time on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Time a worker may take beyond its share: set-up, checks and one slow operation.
WORKER_SLACK_S = 120.0
#: Extra workers per run that only set up and exit, so ``setup_s`` is the
#: median of SETUP_ONLY + SLICES set-ups.
SETUP_ONLY = 4
#: Fresh interpreters per import-time measurement; medians are reported.
IMPORT_REPEATS = 5

#: Bounded end-to-end metrics.  Times are at the reference CPU speed of
#: speed.py; the raw wall-clock figures are printed beside them, unbounded.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "phase_err_max_rad": "rad",
}

#: Per-layer metrics: name -> (unit, traced span, field).  Counts and times
#: are means per traced operation.
LAYER_METRICS = {
    "cli.main.calls": ("count", "cli.main", "calls"),
    "cli.main.self_ms": ("ms", "cli.main", "self_ms"),
    "converters.q_stack.calls": ("count", "converters.q_stack", "calls"),
    "converters.q_stack.matrices": ("count", "converters.q_stack", "work"),
    "converters.q_stack.self_ms": ("ms", "converters.q_stack", "self_ms"),
    "converters.evolve.calls": ("count", "converters.evolve", "calls"),
    "converters.evolve.samples": ("count", "converters.evolve", "work"),
    "converters.evolve.self_ms": ("ms", "converters.evolve", "self_ms"),
    "converters.evolve.repeat_ratio": ("ratio", "converters.evolve", "repeat_ratio"),
    "converters.eigen.calls": ("count", "converters.eigen", "calls"),
    "converters.eigen.self_ms": ("ms", "converters.eigen", "self_ms"),
    "converters.compose.self_ms": ("ms", "converters.compose", "self_ms"),
    "state_space.Curve.constructs": ("count", "state_space.Curve", "calls"),
    "state_space.Curve.self_ms": ("ms", "state_space.Curve", "self_ms"),
    "state_space.curve_velocity.samples": ("count", "state_space.curve_velocity", "work"),
    "state_space.curve_velocity.self_ms": ("ms", "state_space.curve_velocity", "self_ms"),
    "state_space.gauge_transform.self_ms": ("ms", "state_space.gauge_transform", "self_ms"),
    "phases.dynamical_phase_numeric.calls": ("count", "phases.dynamical_phase_numeric", "calls"),
    "phases.dynamical_phase_numeric.self_ms": ("ms", "phases.dynamical_phase_numeric", "self_ms"),
    "phases.geometric_phase.self_ms": ("ms", "phases.geometric_phase", "self_ms"),
    "phases.bargmann_limit.self_ms": ("ms", "phases.bargmann_limit", "self_ms"),
    "phases.pancharatnam.calls": ("count", "phases.pancharatnam", "calls"),
    "geodesics.generalized_geodesic_check.calls": ("count", "geodesics.generalized_geodesic_check", "calls"),
    "geodesics.generalized_geodesic_check.self_ms": ("ms", "geodesics.generalized_geodesic_check", "self_ms"),
    "geodesics.generalized_geodesic_check.repeat_ratio":
        ("ratio", "geodesics.generalized_geodesic_check", "repeat_ratio"),
    "geodesics.geodesic_between.self_ms": ("ms", "geodesics.geodesic_between", "self_ms"),
    "geodesics.parallel_lift.self_ms": ("ms", "geodesics.parallel_lift", "self_ms"),
    "geodesics.curve_length.self_ms": ("ms", "geodesics.curve_length", "self_ms"),
    "geodesics.geodesic_residual.self_ms": ("ms", "geodesics.geodesic_residual", "self_ms"),
    "geodesics.horizontality_residual.self_ms": ("ms", "geodesics.horizontality_residual", "self_ms"),
}


def _environment(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_worker(args, root: str, workdir: str, env: dict, k: int, seconds: float) -> dict:
    """Run a worker on slice ``k`` for ``seconds`` of operations; with 0 it only sets up."""
    out = os.path.join(workdir, f"worker-{k}-{'timed' if seconds else 'setup'}.json")
    calibration = speed.sample()
    spawned_at = time.perf_counter()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--slice", str(k), "--seconds", repr(seconds),
            "--trace", str(args.trace), "--spawned-at", repr(spawned_at), "--calibration", repr(calibration),
            "--root", root, "--workdir", workdir, "--out", out]
    timeout = seconds + WORKER_SLACK_S
    with subprocess.Popen(argv, cwd=root, env=env) as proc:
        try:
            status = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker {k} ran past {timeout:.0f} s") from None
    if status != 0:
        raise RuntimeError(f"worker {k} exited with status {status}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def import_metrics(root: str, env: dict) -> dict[str, float]:
    """Interpreter start and import costs from fresh interpreters, in ms (medians).

    ``-X importtime`` lists every module with its self and cumulative time.
    ``import.biphase_ms`` is the cumulative time of ``import biphase.cli``,
    dependencies included; the numpy and scipy figures add up the self
    times of the modules of each package, so neither counts the other.
    """
    totals: dict[str, list[float]] = {"import.biphase_ms": [], "import.scipy_ms": [],
                                      "import.numpy_ms": [], "interp.start_ms": []}
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        totals["interp.start_ms"].append(1e3 * (time.perf_counter() - start))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import biphase.cli"],
                              cwd=root, env=env, check=True, capture_output=True, text=True)
        sums = {"biphase": 0, "scipy": 0, "numpy": 0}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)$", line)
            if match is None:
                continue
            self_us, cumulative_us, name = int(match.group(1)), int(match.group(2)), match.group(3)
            top = name.split(".")[0]
            if name == "biphase.cli":
                sums["biphase"] = cumulative_us
            elif top in ("scipy", "numpy"):
                sums[top] += self_us
        for top, micros in sums.items():
            totals[f"import.{top}_ms"].append(micros / 1e3)
    return {name: statistics.median(values) for name, values in totals.items()}


#: End-to-end metrics that are also printed as raw wall-clock figures.
WALL_CLOCK = ("setup_s", "op_ms_p50", "op_ms_p90", "ops_per_s")


def end_to_end(results: list[dict], setups: list[dict], key: str = "scaled") -> dict[str, float]:
    """End-to-end metrics from reference-speed times, or from wall-clock times with ``key="latencies"``."""
    latencies = [x for r in results for x in r["untraced"][key]]
    setup = "setup_s" if key == "scaled" else "setup_wall_s"
    return {
        "setup_s": statistics.median(r[setup] for r in setups + results),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * _percentile(latencies, 90),
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
        "phase_err_max_rad": max(r["phase_err"] for r in results),
    }


def per_layer(results: list[dict], imports: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, plus the shares used to confirm which layer each workload stresses."""
    layers: dict = {}
    for r in results:
        tracing.merge(layers, r["traced"]["layers"])
    ops = sum(len(r["traced"]["scaled"]) for r in results)
    traced_s = sum(sum(r["traced"]["scaled"]) for r in results)
    untraced = [x for r in results for x in r["untraced"]["scaled"]]
    metrics = dict(imports)
    for name, (_, span, field) in LAYER_METRICS.items():
        row = layers.get(span, {"calls": 0, "self_s": 0.0, "work": 0, "repeats": 0})
        if field == "self_ms":
            metrics[name] = 1e3 * row["self_s"] / ops
        elif field == "repeat_ratio":
            metrics[name] = row["repeats"] / row["calls"] if row["calls"] else 0.0
        else:
            metrics[name] = row[field] / ops
    metrics["cli.output_bytes"] = sum(r["traced"]["output_bytes"] for r in results) / ops
    metrics["phases.indeterminate"] = sum(r["traced"]["indeterminate"] for r in results) / ops
    metrics["trace.overhead_ratio"] = (ops / traced_s) / (len(untraced) / sum(untraced))
    self_ms = {span: 1e3 * row["self_s"] / ops for span, row in layers.items()}
    shares = {
        "traced_ops": ops,
        # Wall clock, like the spans it is compared with.
        "op_ms_mean": 1e3 * sum(sum(r["traced"]["latencies"]) for r in results) / ops,
        "import_ms_per_op": 1e3 * sum(r["traced"]["import_s"] for r in results) / ops,
        "largest_self_ms": max(self_ms, key=self_ms.get) if self_ms else None,
        **{f"self_ms.{span}": value for span, value in sorted(self_ms.items(), key=lambda kv: -kv[1])},
    }
    return metrics, shares


def layer_unit(name: str) -> str:
    if name in LAYER_METRICS:
        return LAYER_METRICS[name][0]
    return {"cli.output_bytes": "B", "phases.indeterminate": "count", "trace.overhead_ratio": "ratio"}.get(name, "ms")


def main() -> int:
    parser = argparse.ArgumentParser(description="biphase benchmark: one workload, one run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "biphase", "__init__.py")):
        print(f"no biphase sources under {os.path.join(root, 'src')}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = _environment(root)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child, so the speed samples and
        # the operations they scale run on the same CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_start = os.getloadavg()
    started = time.perf_counter()
    imports = import_metrics(root, env) if args.trace else {}
    try:
        setups = [_run_worker(args, root, workdir, env, k % inputs.SLICES, 0.0) for k in range(SETUP_ONLY)]
        results = [_run_worker(args, root, workdir, env, k, args.seconds / inputs.SLICES)
                   for k in range(inputs.SLICES)]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in setups + results for p in r["setup_problems"]] + [p for r in results for p in r["problems"]]
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "python": platform.python_version(), "numpy": _version("numpy"), "scipy": _version("scipy"),
        "threads": {name: env[name] for name in THREAD_VARS}, "workers": inputs.SLICES,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "wall_s": time.perf_counter() - started,
    }
    if args.trace:
        metrics, shares = per_layer(results, imports)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, shares = end_to_end(results, setups), {}
        units = dict(END_TO_END_UNITS)
    wall = {name: value for name, value in end_to_end(results, setups, "latencies").items() if name in WALL_CLOCK}
    ops_timed = sum(len(r["untraced"]["latencies"]) for r in results)
    summary = {"ops_timed": ops_timed, "wall": wall, "attempted": attempted, "failed": failed,
               "failed_ratio": failed / attempted, "typed_errors": sum(r["typed_errors"] for r in results)}

    print(f"# biphase benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# environment " + json.dumps(environment))
    for name, value in metrics.items():
        print(f"{name:52s} {value:.6g} {units[name]}")
    print(f"# {ops_timed} operations timed; times above are at the reference CPU speed (speed.py)")
    for name, value in wall.items():
        print(f"{'wall.' + name:52s} {value:.6g} {END_TO_END_UNITS[name]}  (wall clock, not bounded)")
    print(f"{'failed_ratio':52s} {summary['failed_ratio']:.6g} ratio  ({failed} of {attempted})")
    for name, value in shares.items():
        print(f"# share {name} {value}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"environment": environment, "summary": summary, "metrics": metrics, "units": units,
                   "shares": shares, "problems": problems}, handle, indent=1)
    final = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
