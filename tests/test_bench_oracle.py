"""The benchmark's curve-geometry oracle, run on every test run.

``bench/checks.check_curve`` compares one curve-geometry result (geodesic,
gauge, phases, lift, length, both residuals and a 16-plate chain's
eigensystem) with a numpy reference that shares no code with the library:
the arc length from arccos, the residuals of a gauged unit-speed geodesic in
closed form and the chain from matrix exponentials.  The benchmark applies
it to every timed operation; here it covers all 48 items of seeds 1-6, so
the finite-difference arithmetic is checked against it without a benchmark
run.  The bench modules are imported as they are.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("seed", range(1, 7))
def test_curve_geometry_passes_the_bench_oracle(seed, tmp_path):
    deck = inputs.write_deck("curve-geometry", seed, str(tmp_path))
    workload = worker.CurveGeometry(os.path.dirname(BENCH), deck, None, str(tmp_path))
    assert len(workload.items) == 48
    problems = []
    for i in workload.items:
        verdict = workload.check(i, workload.run(i))
        problems += [f"item {i}: {problem}" for problem in verdict.problems]
    assert not problems
