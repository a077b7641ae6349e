"""One worker process of a benchmark run.

The worker sets up (imports, writes its slice of the seeded deck, checks
the reference against biphase once, warms up), then runs operations back
to back in a closed loop until their summed latency reaches its time
share.  Every result is checked right after its operation, outside the
timed interval.  Latencies and the set-up time are also scaled to the
reference CPU speed with the calibration samples of speed.py.  In a traced run the share is split: the first half runs
untraced, the second half with spans recorded, over the same items.
The worker writes one JSON result file for ``run.py`` to aggregate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
import reference as ref
import speed
import tracer as tracing

#: Untimed operations before timing starts, per workload.
WARMUP = {"cli-cold": 1, "sweep-dense": 2, "curve-geometry": 20}
#: Longest a single CLI subprocess may take before the run is abandoned.
CALL_TIMEOUT_S = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


def reference_agreement(biphase) -> tuple[float, float]:
    """Largest gaps between the reference and q_matrix / dynamical_phase_closed_form."""
    rng = np.random.default_rng(0)
    q_gap = dyn_gap = 0.0
    for delta in np.linspace(-31.0, 31.0, 9):
        for chi in np.linspace(-3.0, 3.0, 7):
            spec = biphase.PlateSpec(float(delta), float(chi))
            q_gap = max(q_gap, float(np.max(np.abs(biphase.q_matrix(spec).matrix - ref.plate(delta, chi)))))
            psi = inputs.random_state(rng)
            got = biphase.dynamical_phase_closed_form(biphase.StateVector(psi, biphase.Basis.PMZ), spec)
            dyn_gap = max(dyn_gap, abs(got - ref.dynamical_phase(psi, delta, chi)) / (1.0 + abs(delta)))
    return q_gap, dyn_gap


class CliCold:
    """One fresh ``python -m biphase.cli`` subprocess per operation."""

    def __init__(self, root: str, deck: list, tracer: tracing.Tracer, workdir: str):
        self.root = root
        self.items = deck
        self.tracer = tracer
        self.spans_path = os.path.join(workdir, "call-spans.json")
        self.expected: dict[str, tuple[int, str, str]] = {}
        self.import_s = 0.0

    def _argv(self, item: dict) -> list[str]:
        return [item["command"], "--config", item["path"], "--format", item["format"]]

    def run(self, item: dict):
        if self.tracer.active:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.spans_path)
            argv = [sys.executable, os.path.join(HERE, "trace_cli.py"), self.spans_path, *self._argv(item)]
        else:
            argv = [sys.executable, "-m", "biphase.cli", *self._argv(item)]
        with subprocess.Popen(argv, cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        return proc.returncode, out, err

    def after_traced(self) -> None:
        """Fold the spans the traced subprocess wrote into this worker's tracer."""
        if not os.path.exists(self.spans_path):
            return
        spans, indeterminate = tracing.load(self.spans_path)
        self.tracer.indeterminate += indeterminate
        moved: dict[int, int] = {}
        for i, (name, start, end, parent, _, work, key) in enumerate(spans):
            if name == "import":
                self.import_s += end - start
                continue
            moved[i] = len(self.tracer.spans)
            self.tracer.spans.append((name, start, end, moved.get(parent, -1), self.tracer.op, work, key))

    def _in_process(self, item: dict) -> tuple[int, str, str]:
        if item["path"] not in self.expected:
            import biphase.cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = biphase.cli.main(self._argv(item))
            self.expected[item["path"]] = (code, out.getvalue(), err.getvalue())
        return self.expected[item["path"]]

    def check(self, item: dict, raw) -> checks.Verdict:
        code, out, err = raw
        text = out.decode("utf-8")
        verdict = checks.check_cli(item, code, text, err.decode("utf-8"))
        want_code, want_out, _ = self._in_process(item)
        verdict.require(f"subprocess exit {code} differs from in-process main exit {want_code}", code == want_code)
        verdict.require("subprocess stdout differs from in-process main", text == want_out)
        return verdict

    def output_bytes(self, raw) -> int:
        return len(raw[1])

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class SweepDense:
    """One in-process ``biphase.cli.main(["sweep", ...])`` call per operation."""

    def __init__(self, root: str, deck: list, tracer: tracing.Tracer, workdir: str):
        import biphase.cli

        self.cli = biphase.cli
        self.items = deck

    def run(self, item: dict):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(["sweep", "--config", item["path"]])
        return code, out.getvalue(), err.getvalue()

    def check(self, item: dict, raw) -> checks.Verdict:
        return checks.check_cli(item, *raw)

    def output_bytes(self, raw) -> int:
        return len(raw[1].encode("utf-8"))

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CurveGeometry:
    """One library pipeline on a general curve and a 16-plate chain per operation."""

    def __init__(self, root: str, deck: list, tracer: tracing.Tracer, workdir: str):
        import biphase

        self.bp = biphase
        with np.load(deck[0]["path"]) as data:
            self.arrays = {name: data[name] for name in data.files}
        self.items = [item["index"] for item in deck]
        self.references: dict[int, checks.CurveReference] = {}

    def run(self, i: int) -> dict:
        bp, arrays = self.bp, self.arrays
        a = bp.StateVector(arrays["a"][i], bp.Basis.PMZ)
        b = bp.StateVector(arrays["b"][i], bp.Basis.PMZ)
        curve = bp.gauge_transform(bp.geodesic_between(a, b, inputs.CURVE_SAMPLES), arrays["alpha"][i])
        result: dict = {}
        try:
            report = bp.geometric_phase(curve)
            result["report"] = (report.pancharatnam, report.dynamical, report.geometric, report.visibility)
        except bp.IndeterminatePhaseError:
            result["report"] = "indeterminate"
        try:
            result["bargmann"] = bp.bargmann_limit(curve)
        except bp.IndeterminatePhaseError:
            result["bargmann"] = "indeterminate"
        result["lift_end"] = bp.parallel_lift(curve).amplitudes[-1]
        result["length"] = bp.curve_length(curve)
        result["geodesic_residual"] = bp.geodesic_residual(curve)
        result["horizontality"] = bp.horizontality_residual(curve)
        chain = bp.compose([bp.q_matrix(bp.PlateSpec(float(d), float(c))) for d, c in arrays["chain"][i]])
        system = bp.eigen(chain)
        result["chain"] = chain.matrix
        result["eigenvalues"] = system.values
        result["eigenvectors"] = [state.amplitudes for state in system.states]
        return result

    def check(self, i: int, raw: dict) -> checks.Verdict:
        if i not in self.references:
            self.references[i] = checks.CurveReference(self.arrays, i)
        return checks.check_curve(raw, self.references[i])

    def output_bytes(self, raw) -> int:
        return 0

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {"cli-cold": CliCold, "sweep-dense": SweepDense, "curve-geometry": CurveGeometry}


class Tally:
    """Outcomes of the checked operations of one worker."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.typed_errors = 0
        self.phase_err = 0.0
        self.problems: list[str] = []

    def add(self, label: str, verdict: checks.Verdict) -> None:
        self.attempted += 1
        self.typed_errors += verdict.typed_error
        self.phase_err = max(self.phase_err, verdict.phase_err)
        if not verdict.ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(verdict.problems[:3]))


def _label(item) -> str:
    if isinstance(item, dict):
        return f"{item['command']} {os.path.basename(item['path'])}"
    return f"curve item {item}"


def timed_loop(workload, items: list, budget_s: float, tally: Tally, tracer: tracing.Tracer | None,
               calibration: float) -> dict:
    """Closed loop over ``items`` until the summed operation latency reaches ``budget_s``.

    ``calibration`` is a ``speed.sample()`` taken just before the loop.  The
    loop samples again after every ``speed.EVERY_S`` of operation time and
    scales the operations in between by the two samples around them.
    """
    latencies: list[float] = []
    scaled: list[float] = []
    pending: list[float] = []
    output_bytes = 0
    spent = 0.0
    k = 0
    while spent < budget_s:
        item = items[k % len(items)]
        if tracer is not None:
            tracer.op += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            raw = workload.run(item)
        except Exception as exc:  # any untyped failure of the program counts against it
            raw = exc
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            if isinstance(workload, CliCold) and not isinstance(raw, Exception):
                workload.after_traced()
        latencies.append(latency)
        pending.append(latency)
        spent += latency
        k += 1
        if isinstance(raw, Exception):
            verdict = checks.Verdict(problems=[f"{type(raw).__name__}: {raw}"])
        else:
            verdict = workload.check(item, raw)
            output_bytes += workload.output_bytes(raw)
        tally.add(_label(item), verdict)
        if sum(pending) >= speed.EVERY_S or spent >= budget_s:
            after = speed.sample()
            factor = speed.scale(calibration, after)
            scaled.extend(factor * x for x in pending)
            pending.clear()
            calibration = after
    return {"latencies": latencies, "scaled": scaled, "output_bytes": output_bytes, "calibration": calibration}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slice", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--calibration", type=float, required=True,
                        help="speed.sample() taken by the parent just before spawning this worker")
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import biphase
    import biphase.cli  # noqa: F401  (loaded before tracing installs its wrappers)

    expected = os.path.join(args.root, "src", "biphase")
    if os.path.dirname(os.path.abspath(biphase.__file__)) != expected:
        print(f"biphase imported from {biphase.__file__}, not from {expected}", file=sys.stderr)
        return 2
    setup_problems = []
    q_gap, dyn_gap = reference_agreement(biphase)
    if q_gap > 1e-12 or dyn_gap > 1e-12:
        setup_problems.append(f"reference disagrees with q_matrix by {q_gap:.3g} or closed form by {dyn_gap:.3g}")
    deck = inputs.write_deck(args.workload, args.seed, os.path.join(args.workdir, f"inputs-{args.slice}"))
    size = len(deck) // inputs.SLICES
    mine = deck[args.slice * size:(args.slice + 1) * size]
    tracer = tracing.Tracer()
    workload = WORKLOADS[args.workload](args.root, mine, tracer, args.workdir)
    items = workload.items
    for k in range(WARMUP[args.workload]):
        item = items[k % len(items)]
        with contextlib.suppress(Exception):  # failures are counted in the timed loop
            workload.check(item, workload.run(item))
    setup_wall_s = time.perf_counter() - args.spawned_at
    calibration = speed.sample()

    tally = Tally()
    result: dict = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * speed.scale(args.calibration, calibration),
                    "setup_problems": setup_problems}
    if args.seconds == 0:  # a set-up-only worker
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0
    if args.trace:
        result["untraced"] = timed_loop(workload, items, args.seconds / 2.0, tally, None, calibration)
        tracer.install()
        result["traced"] = timed_loop(workload, items, args.seconds / 2.0, tally, tracer,
                                      result["untraced"]["calibration"])
        tracer.uninstall()
        result["traced"]["layers"] = tracing.summarize(tracer.spans)
        result["traced"]["indeterminate"] = tracer.indeterminate
        result["traced"]["import_s"] = getattr(workload, "import_s", 0.0)
        tracer.dump(os.path.join(args.workdir, f"spans-{args.slice}.json"))
    else:
        result["untraced"] = timed_loop(workload, items, args.seconds, tally, None, calibration)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        typed_errors=tally.typed_errors,
        phase_err=tally.phase_err,
        problems=tally.problems,
        peak_rss_kb=workload.peak_rss_kb(),
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
