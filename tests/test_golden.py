"""Golden-output gate: fixed CLI configs byte-compared with committed output.

The cases cover every subcommand, every output kind of ``run`` and
``sweep``, JSON and CSV, degree input, emitted curves, an indeterminate
sweep point, half-turn eigenvalue arguments and the eigenvectors of a
half-wave plate and of a half-turn composite.  A change meant to keep
every number must pass unchanged.  A change that alters output on purpose
regenerates the expected files with ``PYTHONPATH=src python
tests/test_golden.py`` and accounts for every difference.

A single plate's eigensystem is closed form (``plate_eigen``), so the
half-wave plate, whose -1 eigenvalue is doubled, prints its eigenvectors:
they are the columns of V(chi) and never see the plate matrix.  A plate
chain's composite is solved in closed form from its SU(2) Jones product J
(``converters._spin1_eigen``), which never reads the 3x3 matrix either.
The half-turn composite W, half-wave plate, W^-1 has a doubled -1
eigenvalue, yet J's eigenvalues +-i are simple, so the two printed vectors
of that eigenspace are the canonical pair {A Sym^2(u+), A Sym^2(u-)}.
Only general unitaries go to the eig + QR solver, whose basis inside a
doubled eigenspace would follow the last bits of the matrix; no such
output is golden.  The bytes are those of one numpy build: components
whose exact value is 0 print as rounding noise (about 1e-16 and below),
which another build may round differently.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from biphase import converters
from biphase.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: (case, subcommand, output format); the config is golden/<case>.config.json
CASES = [
    ("run-phases-interference", "run", "json"),
    ("run-all-outputs-degrees", "run", "csv"),
    ("run-emit-curve", "run", "json"),
    ("sweep-delta-null", "sweep", "json"),
    ("sweep-delta-null", "sweep", "csv"),
    ("sweep-chi-degrees", "sweep", "csv"),
    ("sweep-s-jump", "sweep", "json"),
    ("sweep-half-turn-eigen", "sweep", "csv"),
    ("eigen-composite", "eigen", "json"),
    ("eigen-quarter-wave-degrees", "eigen", "csv"),
    ("eigen-half-wave", "eigen", "json"),
    ("eigen-half-turn-composite", "eigen", "json"),
    ("geodesic-pair", "geodesic", "json"),
    ("geodesic-segments", "geodesic", "csv"),
    ("vertex-triangle", "vertex", "csv"),
]


def render(case: str, command: str, fmt: str) -> bytes:
    config = os.path.join(GOLDEN, f"{case}.config.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--config", config, "--format", fmt])
    if code != 0:
        raise AssertionError(f"{case}: {command} exited with status {code}")
    return out.getvalue().encode("utf-8")


def expected_path(case: str, fmt: str) -> str:
    return os.path.join(GOLDEN, f"{case}.expected.{fmt}")


@pytest.mark.parametrize("case, command, fmt", CASES)
def test_cli_output_matches_the_golden_file(case, command, fmt):
    with open(expected_path(case, fmt), "rb") as handle:
        assert render(case, command, fmt) == handle.read()


def numbers(value):
    """Every float of a parsed JSON payload, in document order."""
    if isinstance(value, dict):
        return [x for item in value.values() for x in numbers(item)]
    if isinstance(value, list):
        return [x for item in value for x in numbers(item)]
    return [value] if isinstance(value, float) else []


@pytest.mark.parametrize("case, command", sorted({(case, command) for case, command, _ in CASES}))
def test_golden_output_moves_at_rounding_level_with_the_plate_matrices(monkeypatch, case, command):
    # the gate is only useful if a rounding-level change of Q, or of the
    # Jones pairs (t, r) that plate chains multiply, moves the bytes at
    # rounding level; a solver's eigenvector of a doubled eigenvalue would not
    expected = numbers(json.loads(render(case, command, "json")))
    rng = np.random.default_rng(7)
    exact, exact_pair = converters.q_stack, converters._plate_pair

    def rounded(deltas, chi):
        q = exact(deltas, chi)
        return q * (1.0 + 4e-16 * rng.standard_normal(q.shape))

    def rounded_pair(spec):
        return tuple(z + z * complex(*(4e-16 * rng.standard_normal(2))) for z in exact_pair(spec))

    monkeypatch.setattr(converters, "q_stack", rounded)
    monkeypatch.setattr(converters, "_plate_pair", rounded_pair)
    for _ in range(3):
        got = numbers(json.loads(render(case, command, "json")))
        assert np.max(np.abs(np.subtract(got, expected)), initial=0.0) <= 1e-12


def dispatch_tiers() -> list[str]:
    """The SIMD tiers numpy dispatches to above its baseline on this CPU."""
    from numpy._core import _multiarray_umath as umath

    features = getattr(umath, "__cpu_features__", {})
    return [name for name in getattr(umath, "__cpu_dispatch__", []) if features.get(name)]


#: Cases whose bytes follow numpy's SIMD tier: the dynamical phases and
#: evolved curves go through numpy's vectorised complex arithmetic (ROADMAP
#: item 3).  Every other case is computed in scalar or tier-independent
#: arithmetic, the composites' eigenvectors in Python complex numbers.
TIER_DEPENDENT = {
    ("run-phases-interference", "json"),
    ("run-emit-curve", "json"),
    ("sweep-delta-null", "json"),
    ("sweep-delta-null", "csv"),
    ("sweep-chi-degrees", "csv"),
}

RENDER_ALL = """
import json
from test_golden import CASES, render
print(json.dumps({f"{case}.{fmt}": render(case, command, fmt).decode("utf-8") for case, command, fmt in CASES}))
"""


@pytest.fixture(scope="module")
def baseline_renders() -> dict:
    """Every golden case rendered in one subprocess with every dispatched SIMD tier disabled."""
    tiers = dispatch_tiers()
    if not tiers:
        pytest.skip("numpy dispatches no SIMD tier above its baseline on this CPU")
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(tiers))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    done = subprocess.run([sys.executable, "-c", RENDER_ALL], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "case, command, fmt",
    [
        pytest.param(
            *case,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3: bytes follow numpy's SIMD tier"),
        )
        if (case[0], case[2]) in TIER_DEPENDENT
        else case
        for case in CASES
    ],
)
def test_golden_output_does_not_depend_on_the_simd_tier(baseline_renders, case, command, fmt):
    with open(expected_path(case, fmt), "rb") as handle:
        assert baseline_renders[f"{case}.{fmt}"].encode("utf-8") == handle.read()


if __name__ == "__main__":
    for case, command, fmt in CASES:
        with open(expected_path(case, fmt), "wb") as handle:
            handle.write(render(case, command, fmt))
