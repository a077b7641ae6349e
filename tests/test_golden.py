"""Golden-output gate: fixed CLI configs byte-compared with committed output.

The cases cover every subcommand, every output kind of ``run`` and
``sweep``, JSON and CSV, degree input, emitted curves, an indeterminate
sweep point, half-turn eigenvalue arguments and a half-wave plate's
eigenvectors.  A change meant to keep every number must pass unchanged.  A
change that alters output on purpose regenerates the expected files with
``PYTHONPATH=src python tests/test_golden.py`` and accounts for every
difference.

A single plate's eigensystem is closed form (``plate_eigen``), so the
half-wave plate, whose -1 eigenvalue is doubled, prints its eigenvectors:
they are the columns of V(chi) and never see the plate matrix.  Every
eigenvector of a composite product comes from the eig + QR solver and
belongs to a simple eigenvalue, so rounding-level changes in the plate
matrices move the output at rounding level only; a doubled eigenvalue of a
product would leave its eigenvectors free to rotate inside the eigenspace
with the last bits of the matrix.  The bytes are those of one numpy and
LAPACK build: components of composite eigenvectors whose exact value is 0
print as rounding noise (down to about 1e-33), which another build may
round differently.
"""

import contextlib
import io
import json
import os

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
    # the gate is only useful if a rounding-level change of Q moves the bytes
    # at rounding level; an eigenvector of a doubled eigenvalue would not
    expected = numbers(json.loads(render(case, command, "json")))
    rng = np.random.default_rng(7)
    exact = converters.q_stack

    def rounded(deltas, chi):
        q = exact(deltas, chi)
        return q * (1.0 + 4e-16 * rng.standard_normal(q.shape))

    monkeypatch.setattr(converters, "q_stack", rounded)
    for _ in range(3):
        got = numbers(json.loads(render(case, command, "json")))
        assert np.max(np.abs(np.subtract(got, expected)), initial=0.0) <= 1e-12


if __name__ == "__main__":
    for case, command, fmt in CASES:
        with open(expected_path(case, fmt), "wb") as handle:
            handle.write(render(case, command, fmt))
