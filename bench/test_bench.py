"""Self-tests of the benchmark.

Run from the repository root with ``python -m pytest -q bench/test_bench.py``.
The repository's own test run does not collect this file (its pytest
``testpaths`` is ``tests``).
"""

import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import biphase  # noqa: E402
import biphase.cli  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("cli-cold", "sweep-dense", "curve-geometry")


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    inputs.write_deck(workload, 7, str(tmp_path / "first"))
    inputs.write_deck(workload, 7, str(tmp_path / "second"))
    inputs.write_deck(workload, 8, str(tmp_path / "other"))
    names = sorted(os.listdir(tmp_path / "first"))
    assert names == sorted(os.listdir(tmp_path / "second"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "first", tmp_path / "second", names, shallow=False)
    assert match == names and not mismatch and not errors
    _, changed, _ = filecmp.cmpfiles(tmp_path / "first", tmp_path / "other", names, shallow=False)
    assert changed


def test_reference_matches_q_matrix_on_a_grid():
    for delta in np.linspace(-12.0, 12.0, 25):
        for chi in np.linspace(-np.pi, np.pi, 17):
            got = biphase.q_matrix(biphase.PlateSpec(float(delta), float(chi))).matrix
            assert np.max(np.abs(got - ref.plate(delta, chi))) <= 1e-12
    q_gap, dyn_gap = worker.reference_agreement(biphase)
    assert q_gap <= 1e-12 and dyn_gap <= 1e-12


def test_orthogonal_construction_hits_its_target():
    rng = np.random.default_rng(3)
    u = ref.chain([(1.3, 0.2), (2.1, 0.9), (0.4, 2.0)])
    for target in (0.0, 3e-7j):
        psi = ref.orthogonal_state(u, target, rng)
        assert abs(np.vdot(psi, u @ psi) - target) < 1e-14


@pytest.mark.parametrize("workload", ("cli-cold", "sweep-dense"))
def test_every_deck_config_passes_its_checks(workload, tmp_path):
    for item in inputs.write_deck(workload, 11, str(tmp_path)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = biphase.cli.main([item["command"], "--config", item["path"], "--format", item["format"]])
        verdict = checks.check_cli(item, code, out.getvalue(), err.getvalue())
        assert verdict.ok, verdict.problems


def test_checks_catch_a_wrong_value(tmp_path):
    item = inputs.write_deck("sweep-dense", 5, str(tmp_path))[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert biphase.cli.main(["sweep", "--config", item["path"]]) == 0
    payload = json.loads(out.getvalue())
    assert checks.check_cli(item, 0, out.getvalue(), "").ok
    payload["records"][3]["visibility"] += 1e-6
    assert not checks.check_cli(item, 0, json.dumps(payload), "").ok
    payload["records"][3]["visibility"] -= 1e-6
    payload["records"][0]["eigenvalue_arg_2"] += 1e-6
    assert not checks.check_cli(item, 0, json.dumps(payload), "").ok


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    spec = _benchmark_spec()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in proc.stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_scale_maps_the_reference_kernel_time_to_one():
    assert speed.scale(speed.REF_S, speed.REF_S) == pytest.approx(1.0)
    assert speed.scale(2.0 * speed.REF_S, 2.0 * speed.REF_S) == pytest.approx(0.5)
    assert speed.sample() > 0.0
