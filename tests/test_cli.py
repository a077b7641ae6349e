"""End-to-end command tests driving biphase.cli.main in process."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import biphase
from biphase import (
    Basis,
    PlateSpec,
    StateVector,
    dynamical_phase_closed_form,
    dynamical_phase_numeric,
    evolve,
    inner,
    propagate,
)
from biphase.cli import _segment_geometry, main
from biphase.converters import MAX_PLATE_PARAMETER
from biphase.errors import NumericError
from conftest import plate_moments

S = math.sqrt(0.5)
PI = math.pi


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def state_payload(*amps, basis="pmz"):
    return {
        "basis": basis,
        "amplitudes": [[z.real, z.imag] for z in map(complex, amps)],
    }


def run_json(capsys, tmp_path, command, config, *extra):
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, command, "--config", path, *extra)
    assert code == 0, err
    return json.loads(out)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_run_with_an_identity_plate(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, S, 0),
        "plates": [{"delta": 0.0, "chi": 0.0}],
        "samples": 101,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    assert payload["command"] == "run"
    total = payload["phases"]["total"]
    assert total["pancharatnam"] == 0.0
    assert abs(total["dynamical"]) < 1e-12
    assert abs(total["geometric"]) < 1e-12
    assert total["visibility"] == 1.0
    got = payload["output_state"]["amplitudes"]
    sent = config["input_state"]["amplitudes"]
    assert all(
        abs(g - s) < 1e-15 for grow, srow in zip(got, sent) for g, s in zip(grow, srow)
    )


def test_run_cyclic_eigenvector(capsys, tmp_path):
    chi = 0.3
    config = {
        "input_state": state_payload(S, S * math.cos(2 * chi), S * math.sin(2 * chi)),
        "plates": [{"delta": PI / 4.0, "chi": chi}],
        "samples": 2001,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    total = payload["phases"]["total"]
    assert total["pancharatnam"] == pytest.approx(PI / 2.0, abs=1e-8)
    assert total["dynamical"] == pytest.approx(PI / 2.0, abs=1e-6)
    assert total["geometric"] == pytest.approx(0.0, abs=1e-6)
    assert total["visibility"] == pytest.approx(1.0, abs=1e-12)


def test_run_accepts_fock_input(capsys, tmp_path):
    config = {
        "input_state": state_payload(1, 0, 0, basis="fock"),
        "plates": [],
    }
    payload = run_json(capsys, tmp_path, "run", config)
    amps = payload["input_state"]["amplitudes"]
    assert payload["input_state"]["basis"] == "pmz"
    assert amps[0][0] == pytest.approx(S) and amps[1][0] == pytest.approx(S)


def test_run_orthogonal_endpoint_exits_3(capsys, tmp_path):
    config = {
        "input_state": state_payload(1, 0, 0),
        "plates": [{"delta": PI / 4.0, "chi": 0.0}],
        "samples": 101,
    }
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, "run", "--config", path)
    assert code == 3
    assert err.startswith("error:")
    assert out == ""


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, out, err = invoke(capsys, "run", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("config error:")


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = invoke(capsys, "run", "--config", str(path))
    assert code == 2
    assert err.startswith("config error:")


@pytest.mark.parametrize(
    "config",
    [
        {"input_state": {"basis": "pmz", "amplitudes": [[1, 0], [0, 0], [0, 0]]}, "outputs": ["bogus"]},
        {"input_state": {"basis": "linear", "amplitudes": [[1, 0], [0, 0], [0, 0]]}},
        {"input_state": {"basis": "pmz", "amplitudes": [[1, 0], [0, 0]]}},
        {"input_state": state_payload(1, 0, 0), "mystery": 1},
        {"input_state": state_payload(1, 0, 0), "plates": [{"delta": 0.1}]},
        {"input_state": state_payload(1, 0, 0), "samples": 1},
        {"input_state": state_payload(1, 0, 0), "outputs": []},
        {"input_state": state_payload(1, 0, 0), "outputs": ["phases", "phases"]},
    ],
)
def test_bad_run_configs_exit_2(capsys, tmp_path, config):
    path = write_config(tmp_path, config)
    code, _, err = invoke(capsys, "run", "--config", path)
    assert code == 2
    assert err.startswith("config error:")


# -- every config-error message, for each command that reads the key --------

ERR_STATE = state_payload(S, S, 0)
ERR_PLATE = {"delta": 0.3, "chi": 0.1}
ERR_GRID = {"parameter": "delta", "start": 0.0, "stop": 1.0, "count": 3}
ERR_BASES = {
    "run": {"input_state": ERR_STATE, "plates": [ERR_PLATE]},
    "sweep": {"input_state": ERR_STATE, "plates": [ERR_PLATE], "sweep": ERR_GRID},
    "eigen": {"plates": [ERR_PLATE]},
    "geodesic": {"input_state": ERR_STATE, "plates": [ERR_PLATE], "samples": 11},
    "vertex": {"states": [ERR_STATE, state_payload(1, 0, 0)]},
}
GEODESIC_PAIR = {"geodesic": {"from": ERR_STATE, "to": state_payload(1, 0, 0)}, "samples": 11}
DROP = object()


def edited(base, **changes):
    """``base`` with keys replaced, added, or removed where the value is DROP."""
    config = {**base, **changes}
    return {key: value for key, value in config.items() if value is not DROP}


def state_with(**changes):
    return edited(ERR_STATE, **changes)


STATE_COMMANDS = ("run", "sweep", "geodesic")
PLATE_COMMANDS = ("run", "sweep", "eigen", "geodesic")
QUANTITY_COMMANDS = ("run", "sweep")
SAMPLES_COMMANDS = ("run", "sweep", "geodesic")
CONFIG_ERRORS = [
    # (commands, edit of each command's base config or a whole config, extra argv, message)
    (("run", "sweep", "eigen", "geodesic", "vertex"), [1], (), "config must be a JSON object"),
    (("run", "sweep", "eigen", "geodesic", "vertex"), {"mystery": 1}, (), "config has unknown keys: mystery"),
    (("run",), {"beta": 1, "alpha": 2}, (), "config has unknown keys: alpha, beta"),
    (("sweep",), {"emit_curve": False}, (), "config has unknown keys: emit_curve"),
    (("eigen",), {"samples": 11}, (), "config has unknown keys: samples"),
    (("geodesic",), {"outputs": ["phases"]}, (), "config has unknown keys: outputs"),
    (("vertex",), {"degrees": False}, (), "config has unknown keys: degrees"),
    (STATE_COMMANDS, {"input_state": "pmz"}, (), "input_state must be a JSON object"),
    (STATE_COMMANDS, {"input_state": state_with(norm=1)}, (), "input_state has unknown keys: norm"),
    (STATE_COMMANDS, {"input_state": state_with(basis="hv")}, (), "input_state.basis must be 'fock' or 'pmz'"),
    (
        STATE_COMMANDS,
        {"input_state": state_with(amplitudes=[[1, 0], [0, 0]])},
        (),
        "input_state.amplitudes must be a list of 3 [re, im] pairs",
    ),
    (
        STATE_COMMANDS,
        {"input_state": state_with(amplitudes=[[1, 0], [0], [0, 0]])},
        (),
        "input_state.amplitudes[1] must be a [re, im] pair",
    ),
    (
        STATE_COMMANDS,
        {"input_state": state_with(amplitudes=[[1, "0"], [0, 0], [0, 0]])},
        (),
        "input_state.amplitudes[0][1] must be a number",
    ),
    (
        STATE_COMMANDS,
        {"input_state": state_with(amplitudes=[[1, 0], [0, 0], [math.nan, 0]])},
        (),
        "input_state.amplitudes[2][0] must be finite",
    ),
    (PLATE_COMMANDS, {"plates": {"delta": 0.3, "chi": 0.1}}, (), "plates must be a list of plate objects"),
    (("eigen", "geodesic"), {"plates": DROP}, (), "plates must be a list of plate objects"),
    (PLATE_COMMANDS, {"plates": [ERR_PLATE, 0.3]}, (), "plates[1] must be a JSON object"),
    (PLATE_COMMANDS, {"plates": [{**ERR_PLATE, "phi": 0}]}, (), "plates[0] has unknown keys: phi"),
    (PLATE_COMMANDS, {"plates": [{"delta": 0.3}]}, (), "plates[0] needs both 'delta' and 'chi'"),
    (PLATE_COMMANDS, {"plates": [{"delta": True, "chi": 0.1}]}, (), "plates[0].delta must be a number"),
    (PLATE_COMMANDS, {"plates": [{"delta": 0.3, "chi": math.inf}]}, (), "plates[0].chi must be finite"),
    (QUANTITY_COMMANDS, {"outputs": []}, (), "outputs must be a non-empty list of quantity names"),
    (QUANTITY_COMMANDS, {"outputs": "phases"}, (), "outputs must be a non-empty list of quantity names"),
    (
        QUANTITY_COMMANDS,
        {"outputs": ["phases", "bogus"]},
        (),
        "unknown output quantity 'bogus'; choose from phases, eigen, geodesic-check, interference, jump",
    ),
    (QUANTITY_COMMANDS, {"outputs": ["jump", "jump"]}, (), "output quantity 'jump' requested twice"),
    (PLATE_COMMANDS, {"degrees": 1}, (), "degrees must be true or false"),
    (SAMPLES_COMMANDS, {"samples": 11.0}, (), "samples must be an integer"),
    (SAMPLES_COMMANDS, {"samples": True}, (), "samples must be an integer"),
    (SAMPLES_COMMANDS, {"samples": 1}, (), "samples must be at least 2"),
    # the size bounds, tested by their refusals: no grid is allocated
    (SAMPLES_COMMANDS, {"samples": 100_001}, (), "samples must be at most 100000"),
    (SAMPLES_COMMANDS, {"samples": 10**13}, (), "samples must be at most 100000"),
    (("geodesic",), {**GEODESIC_PAIR, "samples": 10**13}, (), "samples must be at most 100000"),
    (QUANTITY_COMMANDS, {"interference_phi": "0"}, (), "interference_phi must be a number"),
    (QUANTITY_COMMANDS, {"interference_phi": -math.inf}, (), "interference_phi must be finite"),
    (QUANTITY_COMMANDS, {"jump_epsilon": "abc"}, (), "jump_epsilon must be a number"),
    (QUANTITY_COMMANDS, {"jump_epsilon": 0.1}, (), "jump_epsilon must sit in (0, 0.1) radians"),
    (QUANTITY_COMMANDS, {"jump_epsilon": 6.0, "degrees": True}, (), "jump_epsilon must sit in (0, 0.1) radians"),
    (("run", "geodesic"), {"emit_curve": 0}, (), "emit_curve must be true or false"),
    (("run", "geodesic"), {"emit_curve": True}, ("--format", "csv"), "emit_curve requires --format json"),
    (("run",), {"input_state": DROP}, (), "run needs an input_state"),
    (("sweep",), {"input_state": DROP}, (), "sweep needs an input_state"),
    (("sweep",), {"sweep": DROP}, (), "sweep needs a sweep grid"),
    (("run", "sweep"), {"sweep": [ERR_GRID]}, (), "sweep must be a JSON object"),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "step": 0.1}}, (), "sweep has unknown keys: step"),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "parameter": "phi"}}, (), "sweep.parameter must be one of delta, chi, s"),
    (("run", "sweep"), {"sweep": edited(ERR_GRID, count=DROP)}, (), "sweep needs a count"),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "count": 3.0}}, (), "sweep.count must be an integer"),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "count": 1}}, (), "sweep.count must be at least 2"),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "count": 10_001}}, (), "sweep.count must be at most 10000"),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "count": 10**13}}, (), "sweep.count must be at most 10000"),
    (("run", "sweep"), {"sweep": edited(ERR_GRID, start=DROP)}, (), "sweep.start must be a number"),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "stop": math.nan}}, (), "sweep.stop must be finite"),
    (
        ("run", "sweep"),
        {"sweep": {**ERR_GRID, "start": -1e308, "stop": 1e308}},
        (),
        "sweep.stop - sweep.start must be finite",
    ),
    (("run", "sweep"), {"sweep": {**ERR_GRID, "plate_index": "0"}}, (), "sweep.plate_index must be an integer"),
    (("sweep",), {"plates": []}, (), "sweep needs at least one plate"),
    (("sweep",), {"plates": DROP}, (), "sweep needs at least one plate"),
    (
        ("run", "sweep"),
        {"sweep": {**ERR_GRID, "plate_index": 1}},
        (),
        "sweep.plate_index 1 is out of range for 1 plates",
    ),
    (("eigen",), {"plates": []}, (), "eigen needs at least one plate"),
    (("geodesic",), {**GEODESIC_PAIR, "geodesic": "pair"}, (), "geodesic must be a JSON object"),
    (
        ("geodesic",),
        {**GEODESIC_PAIR, "geodesic": {**GEODESIC_PAIR["geodesic"], "via": ERR_STATE}},
        (),
        "geodesic has unknown keys: via",
    ),
    (("geodesic",), {"geodesic": {"from": ERR_STATE}}, (), "geodesic needs both 'from' and 'to' states"),
    (
        ("geodesic",),
        {"geodesic": {"from": ERR_STATE, "to": state_with(basis="hv")}},
        (),
        "geodesic.to.basis must be 'fock' or 'pmz'",
    ),
    (
        ("geodesic",),
        {"input_state": DROP},
        (),
        "geodesic needs either a geodesic block or input_state with plates",
    ),
    (("geodesic",), {"plates": []}, (), "geodesic segment mode needs at least one plate"),
    (("vertex",), {"states": [ERR_STATE]}, (), "vertex needs a list of at least 2 states"),
    (("vertex",), {"states": DROP}, (), "vertex needs a list of at least 2 states"),
    (("vertex",), {"states": [ERR_STATE, "pmz"]}, (), "states[1] must be a JSON object"),
    (("vertex",), {"states": [state_with(basis=None), ERR_STATE]}, (), "states[0].basis must be 'fock' or 'pmz'"),
    # two faults in one config: the first one read is reported
    (("run",), {"mystery": 1, "degrees": "yes"}, (), "config has unknown keys: mystery"),
    (("run",), {"samples": 0, "degrees": "yes"}, (), "degrees must be true or false"),
    (("run", "geodesic"), {"input_state": DROP, "emit_curve": "yes"}, (), "emit_curve must be true or false"),
    (("sweep",), {"sweep": DROP, "outputs": []}, (), "outputs must be a non-empty list of quantity names"),
    (("sweep",), {"sweep": DROP, "jump_epsilon": "abc"}, (), "jump_epsilon must be a number"),
    (("geodesic",), {**GEODESIC_PAIR, "geodesic": {"to": ERR_STATE}, "samples": 1}, (), "samples must be at least 2"),
]


def config_error_cases():
    for commands, change, argv, message in CONFIG_ERRORS:
        for command in commands:
            config = edited(ERR_BASES[command], **change) if isinstance(change, dict) else change
            yield pytest.param(command, config, argv, message, id=f"{command}: {message}")


@pytest.mark.parametrize("command, config, argv, message", config_error_cases())
def test_config_errors_exit_2_with_their_message(capsys, tmp_path, command, config, argv, message):
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, command, "--config", path, *argv)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_sweep_needs_a_wide_enough_grid(capsys, tmp_path):
    config = {
        "input_state": state_payload(1, 0, 0),
        "plates": [{"delta": 0.3, "chi": 0.0}],
        "sweep": {"parameter": "delta", "start": 0.0, "stop": 1.0, "count": 1},
    }
    path = write_config(tmp_path, config)
    code, _, err = invoke(capsys, "sweep", "--config", path)
    assert code == 2
    assert "count" in err


def test_eigen_sweep_tracks_the_spectrum(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, S, 0),
        "plates": [{"delta": 0.3, "chi": 0.2}],
        "sweep": {"parameter": "delta", "start": 0.1, "stop": 1.0, "count": 7},
        "outputs": ["eigen"],
        "samples": 101,
    }
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, "sweep", "--config", path, "--format", "csv")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["delta", "eigenvalue_arg_1", "eigenvalue_arg_2", "eigenvalue_arg_3"]
    assert len(rows) == 7
    for row in rows:
        delta = float(row[0])
        args = [float(cell) for cell in row[1:]]
        assert args == pytest.approx([-2.0 * delta, 0.0, 2.0 * delta], abs=1e-10)
    deltas = [float(row[0]) for row in rows]
    assert deltas == sorted(deltas)
    assert deltas[0] == pytest.approx(0.1) and deltas[-1] == pytest.approx(1.0)


def test_jump_sweep_shows_the_fringe_discontinuity(capsys, tmp_path):
    config = {
        "input_state": state_payload(math.sqrt(3.0) / 2.0, 0.5, 0),
        "plates": [{"delta": 0.6, "chi": 0.0}],
        "sweep": {"parameter": "s", "start": 1.4, "stop": 1.75, "count": 36},
        "outputs": ["jump"],
        "samples": 51,
    }
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, "sweep", "--config", path, "--format", "csv")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["s", "two_level_theta", "two_level_geometric"]
    geometric = [float(row[2]) for row in rows]
    steps = [abs(b - a) for a, b in zip(geometric, geometric[1:])]
    assert max(steps) > 3.0  # a near-pi drop across s = pi/2
    # away from the crossing the column is smooth
    assert sorted(steps)[-2] < 0.1


def test_sweep_reports_null_cells_at_indeterminate_points(capsys, tmp_path):
    quarter = PI / 4.0
    config = {
        "input_state": state_payload(1, 0, 0),
        "plates": [{"delta": 0.3, "chi": 0.0}],
        "sweep": {"parameter": "delta", "start": quarter, "stop": 1.0, "count": 3},
        "outputs": ["phases"],
        "samples": 401,
    }
    path = write_config(tmp_path, config)
    payload = run_json(capsys, tmp_path, "sweep", config)
    first = payload["records"][0]
    assert first["pancharatnam"] is None
    assert first["geometric"] is None
    assert isinstance(first["dynamical"], float)
    assert first["visibility"] == pytest.approx(0.0, abs=1e-12)
    code, out, err = invoke(capsys, "sweep", "--config", path, "--format", "csv")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["delta", "pancharatnam", "dynamical", "geometric", "visibility"]
    assert rows[0][1] == "" and rows[0][3] == ""
    assert rows[0][2] != "" and rows[1][1] != ""


def point_plates(plates, parameter, index, value):
    """The plate list a sweep evaluates at one grid value."""
    point = [dict(plate) for plate in plates]
    if parameter == "s":
        point[index]["delta"] = 0.5 * value
    else:
        point[index][parameter] = value
    return point


def assert_record_matches_run(record, run, index):
    total = run["phases"]["total"]
    keys = ("pancharatnam", "dynamical", "geometric", "visibility")
    assert [record[k] for k in keys] == [total[k] for k in keys]
    keys = ("fringe_phase", "intensity")
    assert [record[k] for k in keys] == [run["interference"][k] for k in keys]
    check = run["geodesic_check"][index]
    keys = ("fd_residual", "analytic_residual")
    assert [record[k] for k in keys] == [check[k] for k in keys]


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("parameter", ["delta", "chi", "s"])
def test_sweep_records_equal_runs_of_their_points(capsys, tmp_path, parameter, index):
    plates = [{"delta": 0.7, "chi": 0.2}, {"delta": 2.9, "chi": -0.45}, {"delta": 0.35, "chi": 1.1}]
    base = {
        "input_state": state_payload(0.6, 0.48 + 0.3j, -0.2 + 0.52j),
        "plates": plates,
        "outputs": ["phases", "geodesic-check", "interference"],
        "interference_phi": 0.9,
        "samples": 41,
    }
    grid = {"parameter": parameter, "start": -0.8, "stop": 1.9, "count": 4, "plate_index": index}
    sweep = run_json(capsys, tmp_path, "sweep", {**base, "sweep": grid})
    assert len(sweep["records"]) == 4
    for record in sweep["records"]:
        plates_here = point_plates(plates, parameter, index, record[parameter])
        run = run_json(capsys, tmp_path, "run", {**base, "plates": plates_here})
        assert_record_matches_run(record, run, index)


def test_sweep_null_point_agrees_with_the_refused_run(capsys, tmp_path):
    # all plates at chi = 0 compose to Q(0.3 + delta, 0), which turns |Psi+>
    # orthogonal at a total thickness of pi/4, the first grid value
    plates = [{"delta": 0.1, "chi": 0.0}, {"delta": 0.5, "chi": 0.0}, {"delta": 0.2, "chi": 0.0}]
    base = {
        "input_state": state_payload(1, 0, 0),
        "plates": plates,
        "outputs": ["phases", "geodesic-check", "interference"],
        "samples": 41,
    }
    grid = {"parameter": "delta", "start": PI / 4.0 - 0.3, "stop": 1.0, "count": 3, "plate_index": 1}
    sweep = run_json(capsys, tmp_path, "sweep", {**base, "sweep": grid})
    null, *regular = sweep["records"]
    assert null["pancharatnam"] is None and null["geometric"] is None
    assert null["fringe_phase"] is None
    plates_here = point_plates(plates, "delta", 1, null["delta"])
    path = write_config(tmp_path, {**base, "plates": plates_here})
    code, _, err = invoke(capsys, "run", "--config", path)
    assert code == 3 and err.startswith("error:")
    check = run_json(capsys, tmp_path, "run", {**base, "plates": plates_here, "outputs": ["geodesic-check"]})
    residuals = check["geodesic_check"][1]
    assert [null["fd_residual"], null["analytic_residual"]] == [
        residuals["fd_residual"],
        residuals["analytic_residual"],
    ]
    for record in regular:
        run = run_json(capsys, tmp_path, "run", {**base, "plates": point_plates(plates, "delta", 1, record["delta"])})
        assert_record_matches_run(record, run, 1)


def closed_form_chain(state, plates):
    """States along the plates, their closed-form dynamical phases and the left-to-right total."""
    states, phases, total = [state], [], 0.0
    for spec in plates:
        phases.append(dynamical_phase_closed_form(states[-1], spec))
        total += phases[-1]
        states.append(propagate(spec, states[-1]))
    return states, phases, total


TWO_SAMPLE_PLATES = [{"delta": 0.7, "chi": 0.2}, {"delta": 0.4, "chi": -0.45}, {"delta": 0.35, "chi": 1.1}]
TWO_SAMPLE_SWEEP = {
    "input_state": state_payload(S, S, 0),
    "plates": TWO_SAMPLE_PLATES,
    "samples": 2,
    "sweep": {"parameter": "delta", "start": 0.1, "stop": 0.9, "count": 3, "plate_index": 1},
}


@pytest.mark.parametrize("outputs", [["interference"], ["eigen"], ["geodesic-check"], ["jump"]])
def test_two_sample_sweep_without_phases_runs(capsys, tmp_path, outputs):
    sweep = run_json(capsys, tmp_path, "sweep", {**TWO_SAMPLE_SWEEP, "outputs": outputs})
    assert len(sweep["records"]) == 3


def test_two_sample_phases_sweep_and_run_report_closed_form_totals(capsys, tmp_path):
    # plate segments take closed-form dynamical phases, so 2 samples also
    # suffice for phases, in a sweep and in a run
    config = {**TWO_SAMPLE_SWEEP, "outputs": ["phases"]}
    state = StateVector.normalized(np.array([S, S, 0], dtype=complex), Basis.PMZ)
    sweep = run_json(capsys, tmp_path, "sweep", config)
    for record in sweep["records"]:
        point = point_plates(TWO_SAMPLE_PLATES, "delta", 1, record["delta"])
        _, _, total = closed_form_chain(state, [PlateSpec(p["delta"], p["chi"]) for p in point])
        assert record["dynamical"] == total
        run = run_json(capsys, tmp_path, "run", {**config, "plates": point})
        assert run["phases"]["total"]["dynamical"] == total


def cli_payload(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--config", path])
    assert code == 0
    return json.loads(out.getvalue())


# thin and thick plates, including the degenerate delta = k pi/2
plate_thicknesses = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=-8, max_value=8).map(lambda k: k * PI / 2.0),
)
plate_specs = st.builds(
    PlateSpec,
    plate_thicknesses,
    st.one_of(st.integers(-8, 8).map(lambda k: k * PI / 4.0), st.floats(-2.0 * PI, 2.0 * PI)),
)


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6),
    st.lists(plate_specs, min_size=1, max_size=4),
    st.integers(3, 401),
)
def test_run_reports_closed_form_dynamical_phases(parts, plates, n):
    raw = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    assume(np.linalg.norm(raw) > 1e-3)
    states, segments, total = closed_form_chain(StateVector.normalized(raw, Basis.PMZ), plates)
    pairs = [*zip(states[:-1], states[1:]), (states[0], states[-1])]
    assume(all(abs(inner(a, b)) >= 1e-9 for a, b in pairs))  # determinate phases
    config = {
        "input_state": state_payload(*raw),
        "plates": [{"delta": spec.delta, "chi": spec.chi} for spec in plates],
        "samples": n,
    }
    phases = cli_payload("run", config)["phases"]
    assert [entry["dynamical"] for entry in phases["segments"]] == segments
    assert phases["total"]["dynamical"] == total
    # the quadrature estimate on n samples stays a cross-check: its error
    # grows as |delta|^3 / n^2
    for spec, start, closed in zip(plates, states, segments):
        numeric = dynamical_phase_numeric(evolve(spec, start, n))
        assert abs(numeric - closed) <= 2.0 * abs(spec.delta) ** 3 / n**2 + 1e-12


def test_outputs_render_identically_in_json_and_csv(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, 0.5, 0.5),
        "plates": [{"delta": 0.8, "chi": 0.25}],
        "outputs": ["phases", "interference"],
        "interference_phi": 0.4,
        "samples": 501,
    }
    path = write_config(tmp_path, config)
    payload = run_json(capsys, tmp_path, "run", config)
    code, out, err = invoke(capsys, "run", "--config", path, "--format", "csv")
    assert code == 0, err
    cells = dict(list(csv.reader(io.StringIO(out)))[1:])
    assert cells["phases.total.pancharatnam"] == repr(payload["phases"]["total"]["pancharatnam"])
    assert cells["interference.intensity"] == repr(payload["interference"]["intensity"])
    assert cells["command"] == "run"


def test_interference_quantity_matches_the_fringe_law(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, 0.5, 0.5),
        "plates": [{"delta": 0.8, "chi": 0.25}],
        "outputs": ["interference"],
        "interference_phi": 0.4,
        "samples": 101,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    entry = payload["interference"]
    vis = entry["visibility"]
    expected = 2.0 + 2.0 * vis * math.cos(0.4 - entry["fringe_phase"])
    assert entry["intensity"] == pytest.approx(expected, abs=1e-12)
    assert entry["max_intensity"] == pytest.approx(2.0 + 2.0 * vis)
    assert entry["min_intensity"] == pytest.approx(2.0 - 2.0 * vis)


def test_geodesic_check_quantity(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, S, 0),
        "plates": [{"delta": 0.9, "chi": 0.3}],
        "outputs": ["geodesic-check"],
        "samples": 2001,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    entry = payload["geodesic_check"][0]
    assert entry["grid_points"] == 2001
    assert entry["grid_step"] == pytest.approx(PI / 2000.0)
    assert entry["fd_residual"] < 1e-5
    assert entry["analytic_residual"] < 1e-12


def test_run_jump_quantity(capsys, tmp_path):
    config = {
        "input_state": state_payload(math.sqrt(3.0) / 2.0, 0.5, 0),
        "plates": [{"delta": 0.3, "chi": 0.0}],
        "outputs": ["jump"],
        "samples": 101,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    entry = payload["jump"]
    assert entry["coupling"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert entry["epsilon"] == 1e-3
    assert entry["jump"] == pytest.approx(-3.1410153035772037, abs=1e-12)


def test_run_jump_needs_a_two_level_state(capsys, tmp_path):
    config = {
        "input_state": state_payload(0.8, 0.36, 0.48),
        "plates": [{"delta": 0.3, "chi": 0.0}],
        "outputs": ["jump"],
        "samples": 101,
    }
    path = write_config(tmp_path, config)
    code, _, err = invoke(capsys, "run", "--config", path)
    assert code == 3
    assert err.startswith("error:")


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, 0.5, 0.5),
        "plates": [{"delta": 0.8, "chi": 0.25}],
        "outputs": ["phases", "eigen"],
        "samples": 501,
    }
    path = write_config(tmp_path, config)
    first = invoke(capsys, "run", "--config", path)
    second = invoke(capsys, "run", "--config", path)
    assert first == second
    sweep = {
        "input_state": state_payload(S, 0.5, 0.5),
        "plates": [{"delta": 0.8, "chi": 0.25}],
        "sweep": {"parameter": "chi", "start": 0.0, "stop": 1.0, "count": 5},
        "samples": 101,
    }
    sweep_path = write_config(tmp_path, sweep, name="sweep.json")
    runs = {invoke(capsys, "sweep", "--config", sweep_path, "--format", "csv") for _ in range(2)}
    assert len(runs) == 1


def test_output_state_round_trips_bit_exactly(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, 0.5, 0.5),
        "plates": [{"delta": 0.8, "chi": 0.25}],
        "samples": 101,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    echo = {"input_state": payload["output_state"], "plates": [], "samples": 101}
    second = run_json(capsys, tmp_path, "run", echo)
    assert second["output_state"] == payload["output_state"]


def test_vertex_command_frozen_value(capsys, tmp_path):
    config = {
        "states": [
            state_payload(1, 0, 0),
            state_payload(S, S, 0),
            state_payload(S, S * 1j, 0),
        ]
    }
    payload = run_json(capsys, tmp_path, "vertex", config)
    assert payload["count"] == 3
    assert payload["vertex_product"] == pytest.approx(-PI / 4.0, abs=1e-12)
    path = write_config(tmp_path, config)
    code, out, _ = invoke(capsys, "vertex", "--config", path, "--format", "csv")
    assert code == 0
    assert "vertex_product,-0.7853981633974483" in out.splitlines()


def test_vertex_command_needs_two_states(capsys, tmp_path):
    path = write_config(tmp_path, {"states": [state_payload(1, 0, 0)]})
    code, _, err = invoke(capsys, "vertex", "--config", path)
    assert code == 2


def test_geodesic_endpoint_mode(capsys, tmp_path):
    config = {
        "geodesic": {"from": state_payload(1, 0, 0), "to": state_payload(0, 1, 0)},
        "samples": 1001,
    }
    payload = run_json(capsys, tmp_path, "geodesic", config)
    report = payload["report"]
    assert report["arc_length"] == pytest.approx(PI / 2.0, abs=1e-12)
    assert report["endpoint_overlap"] == [0.0, 0.0]
    assert report["geodesic_residual"] < 1e-5
    assert report["horizontality_residual"] < 1e-8
    assert report["length"] == pytest.approx(PI / 2.0, abs=1e-6)


def test_geodesic_segment_mode(capsys, tmp_path):
    config = {
        "input_state": state_payload(math.sqrt(3.0) / 2.0, 0.5, 0),
        "plates": [{"delta": 0.45, "chi": 0.0}, {"delta": 0.2, "chi": 0.4}],
        "samples": 501,
    }
    payload = run_json(capsys, tmp_path, "geodesic", config)
    assert [seg["plate_index"] for seg in payload["segments"]] == [0, 1]
    for segment in payload["segments"]:
        assert segment["length"] > 0.0
        assert segment["geodesic_residual"] >= 0.0
        assert segment["horizontality_residual"] >= 0.0


def test_geodesic_rejects_a_shared_ray(capsys, tmp_path):
    config = {
        "geodesic": {"from": state_payload(1, 0, 0), "to": state_payload(1j, 0, 0)},
        "samples": 101,
    }
    path = write_config(tmp_path, config)
    code, _, err = invoke(capsys, "geodesic", "--config", path)
    assert code == 3
    assert err.startswith("error:")


def test_geodesic_segments_report_their_closed_forms(capsys, tmp_path):
    # a plate too thin to difference (samples 2.5e-303 apart), a subnormal one,
    # a zero one and a thick one: the residuals are rates per unit thickness,
    # the same for every delta, and only the length scales with |delta|
    amps = (0.6, 0.48 + 0.3j, -0.2 + 0.52j)
    plates = [
        {"delta": 1e-300, "chi": 0.2},
        {"delta": 5e-324, "chi": -0.45},
        {"delta": 0.0, "chi": 1.1},
        {"delta": -23.0, "chi": 0.7},
    ]
    config = {"input_state": state_payload(*amps), "plates": plates, "samples": 401}
    payload = run_json(capsys, tmp_path, "geodesic", config)
    state = StateVector.normalized(np.array(amps), Basis.PMZ)
    for plate, segment in zip(plates, payload["segments"], strict=True):
        m, q = plate_moments(state, plate["chi"])
        assert segment["horizontality_residual"] == pytest.approx(abs(m), rel=1e-14)
        assert segment["geodesic_residual"] == pytest.approx(math.sqrt(q * (4.0 - q)), rel=1e-14)
        want = abs(plate["delta"]) * math.sqrt(q - m * m)
        assert segment["length"] == pytest.approx(want, rel=1e-14, abs=1e-323)
        state = propagate(PlateSpec(plate["delta"], plate["chi"]), state)
    assert payload["segments"][2]["length"] == 0.0


SEGMENT_CONFIG = {
    "input_state": state_payload(0.6, 0.48 + 0.3j, -0.2 + 0.52j),
    "plates": [{"delta": 0.7, "chi": 0.2}, {"delta": 23.0, "chi": -0.45}, {"delta": 0.0, "chi": 0.1}],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_geodesic_segments_do_not_depend_on_samples(capsys, tmp_path, fmt):
    field = '"samples": {},' if fmt == "json" else "samples,{}\n"
    outputs = set()
    for samples in (2, 3, 41, 2001):
        path = write_config(tmp_path, {**SEGMENT_CONFIG, "samples": samples})
        code, out, err = invoke(capsys, "geodesic", "--config", path, "--format", fmt)
        assert (code, err) == (0, "")
        assert out.count(field.format(samples)) == 1
        outputs.add(out.replace(field.format(samples), field.format("N")))
    assert len(outputs) == 1


def test_geodesic_segment_mode_samples_no_curve(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("segment mode sampled a curve")

    monkeypatch.setattr(biphase.cli, "evolve", refuse)
    monkeypatch.setattr(biphase.state_space, "curve_velocity", refuse)
    payload = run_json(capsys, tmp_path, "geodesic", SEGMENT_CONFIG)
    assert [segment["plate_index"] for segment in payload["segments"]] == [0, 1, 2]
    # the curve emit_curve adds is the one sampled path left
    path = write_config(tmp_path, {**SEGMENT_CONFIG, "emit_curve": True})
    with pytest.raises(AssertionError, match="sampled a curve"):
        main(["geodesic", "--config", path])


@pytest.mark.parametrize("command", ["run", "eigen", "geodesic"])
@pytest.mark.parametrize("plate", [{"delta": 1e308, "chi": 0.2}, {"delta": 0.3, "chi": 1e308}])
def test_plate_parameters_whose_double_overflows_exit_3(capsys, tmp_path, command, plate):
    path = write_config(tmp_path, {**ERR_BASES[command], "plates": [plate]})
    code, out, err = invoke(capsys, command, "--config", path)
    assert (code, out) == (3, "")
    assert err.startswith("error: plate parameters must be at most") and err.count("\n") == 1


def test_a_segment_length_at_the_plate_bound_is_finite_or_refused(capsys, tmp_path):
    bound = MAX_PLATE_PARAMETER
    # at chi = 0 the state (1, 0, 0) has m = 0 and q = 4 exactly: the largest double
    config = {"input_state": state_payload(1, 0, 0), "plates": [{"delta": -bound, "chi": 0.0}]}
    (segment,) = run_json(capsys, tmp_path, "geodesic", config)["segments"]
    assert segment["length"] == sys.float_info.max
    rng = np.random.default_rng(5)
    for _ in range(20):
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        plates = [{"delta": bound, "chi": float(rng.uniform(-PI, PI))}]
        path = write_config(tmp_path, {"input_state": state_payload(*amps), "plates": plates})
        code, out, err = invoke(capsys, "geodesic", "--config", path)
        if code == 0:
            assert math.isfinite(json.loads(out)["segments"][0]["length"])
        else:
            assert (code, out) == (3, "") and "length overflows" in err
    # a second moment rounded far enough above 4 would carry the length past the largest double
    with pytest.raises(NumericError, match="overflows"):
        _segment_geometry(bound, 0.0, math.nextafter(2.0, 3.0) ** 2)


def test_degrees_toggle_matches_radians(capsys, tmp_path):
    radians = {
        "input_state": state_payload(S, 0.5, 0.5),
        "plates": [{"delta": PI / 4.0, "chi": PI / 8.0}],
        "samples": 301,
    }
    degrees = {
        "input_state": state_payload(S, 0.5, 0.5),
        "plates": [{"delta": 45.0, "chi": 22.5}],
        "degrees": True,
        "samples": 301,
    }
    a = run_json(capsys, tmp_path, "run", radians)
    b = run_json(capsys, tmp_path, "run", degrees)
    assert b["phases"]["total"]["pancharatnam"] == pytest.approx(
        a["phases"]["total"]["pancharatnam"], abs=1e-12
    )
    assert b["plates"][0]["delta"] == pytest.approx(PI / 4.0, abs=1e-15)


def test_emit_curve_returns_samples_in_json_only(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, S, 0),
        "plates": [{"delta": 0.5, "chi": 0.1}],
        "samples": 11,
        "emit_curve": True,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    curve = payload["curve"]
    assert len(curve) == 11
    assert curve[0][0] == 0.0
    assert curve[0][1] == payload["input_state"]["amplitudes"]
    assert curve[-1][0] == pytest.approx(0.5)
    path = write_config(tmp_path, config)
    code, _, err = invoke(capsys, "run", "--config", path, "--format", "csv")
    assert code == 2
    assert "emit_curve" in err


def test_emitted_curve_ends_on_the_output_state(capsys, tmp_path):
    config = {
        "input_state": state_payload(0.6, 0.48 + 0.3j, -0.2 + 0.52j),
        "plates": [{"delta": 0.7, "chi": 0.2}, {"delta": 29.3, "chi": -0.45}, {"delta": -0.35, "chi": 1.1}],
        "samples": 17,
        "emit_curve": True,
    }
    payload = run_json(capsys, tmp_path, "run", config)
    curve = payload["curve"]
    assert len(curve) == 3 * 17
    assert curve[-1][1] == payload["output_state"]["amplitudes"]
    for k in (1, 2):  # each segment starts on the endpoint of the one before
        assert curve[17 * k][1] == curve[17 * k - 1][1]


def test_out_file_and_quiet_flag(capsys, tmp_path):
    config = {
        "input_state": state_payload(S, S, 0),
        "plates": [{"delta": 0.5, "chi": 0.1}],
        "samples": 101,
    }
    path = write_config(tmp_path, config)
    code, inline, _ = invoke(capsys, "run", "--config", path)
    assert code == 0
    target = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "run", "--config", path, "--out", str(target))
    assert code == 0
    assert out.strip() == f"wrote {target}"
    assert target.read_text(encoding="utf-8") == inline
    silent = tmp_path / "silent.json"
    code, out, _ = invoke(
        capsys, "run", "--config", path, "--out", str(silent), "--quiet"
    )
    assert code == 0
    assert out == ""


def test_zero_norm_input_exits_3(capsys, tmp_path):
    config = {"input_state": state_payload(0, 0, 0), "plates": []}
    path = write_config(tmp_path, config)
    code, _, err = invoke(capsys, "run", "--config", path)
    assert code == 3


@pytest.mark.parametrize("size", [1e308, 1e-200, 5e-324])
def test_input_states_whose_norm_overflows_or_underflows_run(capsys, tmp_path, size):
    config = {"input_state": state_payload(size, size, 0), "plates": [{"delta": 0.3, "chi": 0.2}]}
    amplitudes = run_json(capsys, tmp_path, "run", config)["input_state"]["amplitudes"]
    assert np.allclose(amplitudes, [[S, 0.0], [S, 0.0], [0.0, 0.0]], rtol=0.0, atol=1e-15)


def test_a_total_dynamical_phase_that_overflows_exits_3(capsys, tmp_path):
    # m = 2 for (1, 1, 0)/sqrt2 at chi = 0, so each plate adds 1.6e308
    config = {"input_state": state_payload(S, S, 0), "plates": [{"delta": 8e307, "chi": 0.0}] * 2}
    path = write_config(tmp_path, config)
    assert invoke(capsys, "run", "--config", path) == (3, "", "error: the dynamical phase overflows: inf\n")


def test_an_emitted_curve_whose_parameter_overflows_exits_3(capsys, tmp_path):
    # three plates of 8e307 take the emitted curve's parameter past the largest double
    config = {
        "input_state": state_payload(0.6, 0.48 + 0.3j, -0.2 + 0.52j),
        "plates": [{"delta": 8e307, "chi": 0.2}] * 3,
        "samples": 3,
        "emit_curve": True,
    }
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, "geodesic", "--config", path)
    assert (code, out, err) == (3, "", "error: the emitted curve's parameter overflows: inf\n")


def test_eigen_command_reports_each_plate_and_the_composite(capsys, tmp_path):
    config = {"plates": [{"delta": PI / 4.0, "chi": 0.2}, {"delta": PI / 4.0, "chi": 0.2}]}
    payload = run_json(capsys, tmp_path, "eigen", config)
    assert len(payload["systems"]) == 2
    for system in payload["systems"]:
        assert system["eigenvalue_args"] == pytest.approx([-PI / 2.0, 0.0, PI / 2.0], abs=1e-10)
    composite = sorted(payload["composite"]["eigenvalue_args"])
    assert composite == pytest.approx([0.0, PI, PI], abs=1e-10)


def test_eigen_command_reports_a_half_turn_as_plus_pi(capsys, tmp_path):
    config = {"plates": [{"delta": 1.5 * PI, "chi": -2.95}]}
    payload = run_json(capsys, tmp_path, "eigen", config)
    assert payload["systems"][0]["eigenvalue_args"] == pytest.approx([0.0, PI, PI], abs=1e-12)


def fresh_process(*args):
    """Exit status, stdout and stderr of a new interpreter running ``python *args``
    with this checkout's biphase on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(biphase.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.returncode, result.stdout, result.stderr


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    # main builds its argument parser once per process; no call may leave
    # state behind that a later one sees
    run = write_config(tmp_path, {"input_state": state_payload(S, 0.5, 0.5), "plates": [{"delta": 0.8, "chi": 0.25}]}, "run.json")
    sweep = write_config(tmp_path, {**TWO_SAMPLE_SWEEP, "outputs": ["phases", "eigen"]}, "sweep.json")
    eigen = write_config(tmp_path, {"plates": [{"delta": 0.6, "chi": 0.3}, {"delta": PI / 2.0, "chi": 1.1}]}, "eigen.json")
    bad = write_config(tmp_path, {"input_state": state_payload(1, 0, 0), "mystery": 1}, "bad.json")
    target = tmp_path / "out.csv"
    calls = [
        ["run", "--config", run],
        ["sweep", "--config", sweep, "--format", "csv"],
        ["run", "--config", bad],
        ["eigen", "--config", eigen, "--format", "csv", "--out", str(target), "--quiet"],
        ["sweep"],
        ["run", "--config", run, "--out", str(target)],
        ["run", "--config", run],
    ]
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the usage
                code = exc.code
        written = target.read_bytes() if "--out" in argv else None
        assert (code, out.getvalue(), err.getvalue()) == fresh_process("-m", "biphase.cli", *argv), argv
        if written is not None:
            assert target.read_bytes() == written


def test_importing_the_cli_loads_no_scipy():
    # the runtime is numpy-only; scipy would take most of a cold call's start-up
    code = (
        "import sys, biphase.cli; "
        "print(biphase.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    status, stdout, stderr = fresh_process("-c", code)
    assert status == 0, stderr
    loaded_from, modules = stdout.splitlines()
    assert os.path.samefile(loaded_from, biphase.__file__)
    assert modules == "[]"
