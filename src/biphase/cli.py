"""Config-driven command line front end.

Subcommands map to the analysis kinds the library exposes: ``run`` evolves
one state through a plate sequence and reports requested quantities,
``sweep`` repeats that over a parameter grid, ``eigen`` decomposes plate
matrices, ``geodesic`` reports residuals for geodesics or evolved segments,
and ``vertex`` evaluates the polygon phase of a state list.

A plate is a closed-form segment: ``run`` and ``sweep`` propagate each
state to the plate's endpoint and report its exact dynamical phase
delta <psi|H|psi>, with no sampled curve in between.  ``samples`` therefore
sets only the curves ``emit_curve`` adds, the delta grid of the geodesic
check and the curves of the ``geodesic`` subcommand.

All input is one JSON config document; complex numbers travel as
[re, im] pairs and angles are radians unless the config sets
"degrees": true.  Output is JSON or CSV with floats rendered by repr, so
identical configs produce byte-identical files and every printed value
reparses to the exact binary double.  Exit codes: 0 success, 2 config
error, 3 numeric or indeterminate-phase error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from .angles import principal
from .converters import PlateSpec, Unitary3, compose, eigen, eigenvalue_arg, evolve, propagate, q_matrix
from .errors import BiphaseError, ConfigError, IndeterminatePhaseError, UsageError
from .geodesics import (
    GeodesicScenario,
    _geodesic_residuals,
    curve_length,
    detect_phase_jump,
    geodesic_between,
    geodesic_residual,
    horizontality_residual,
    two_level_fringe,
)
from .phases import (
    dynamical_phase_closed_form,
    interference_intensity,
    pancharatnam,
    vertex_product,
    visibility,
)
from .state_space import Basis, Curve, StateVector, inner, to_pmz

OUTPUT_QUANTITIES = ("phases", "eigen", "geodesic-check", "interference", "jump")
SWEEP_PARAMETERS = ("delta", "chi", "s")
DEFAULT_SAMPLES = 2001
DEFAULT_JUMP_EPSILON = 1e-3

#: Plate-basis amplitude below this counts as the vanishing component of a
#: two-level scenario.
ZERO_COMPONENT_TOL = 1e-9


def _fail(message: str) -> NoReturn:
    raise ConfigError(message)


def _as_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        _fail(f"{where} must be a JSON object")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where} must be a number")
    result = float(value)
    if not math.isfinite(result):
        _fail(f"{where} must be finite")
    return result


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where} must be an integer")
    return value


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(data) - allowed)
    if extra:
        _fail(f"{where} has unknown keys: {', '.join(extra)}")


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _amplitude_pairs(amps: np.ndarray) -> list[list[float]]:
    return [_complex_pair(complex(z)) for z in amps]


def _state_payload(state: StateVector) -> dict:
    return {"basis": state.basis.value, "amplitudes": _amplitude_pairs(state.amplitudes)}


def _parse_state(raw: Any, where: str) -> StateVector:
    data = _as_mapping(raw, where)
    _reject_unknown(data, {"basis", "amplitudes"}, where)
    basis_name = data.get("basis")
    if basis_name not in (Basis.FOCK.value, Basis.PMZ.value):
        _fail(f"{where}.basis must be 'fock' or 'pmz'")
    pairs = data.get("amplitudes")
    if not isinstance(pairs, list) or len(pairs) != 3:
        _fail(f"{where}.amplitudes must be a list of 3 [re, im] pairs")
    values = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{where}.amplitudes[{i}] must be a [re, im] pair")
        values.append(
            complex(
                _as_number(pair[0], f"{where}.amplitudes[{i}][0]"),
                _as_number(pair[1], f"{where}.amplitudes[{i}][1]"),
            )
        )
    state = StateVector.normalized(np.array(values, dtype=complex), Basis(basis_name))
    if state.basis is Basis.FOCK:
        state = to_pmz(state)
    return state


def _parse_plates(raw: Any, scale: float, where: str) -> list[PlateSpec]:
    if not isinstance(raw, list):
        _fail(f"{where} must be a list of plate objects")
    plates = []
    for i, entry in enumerate(raw):
        data = _as_mapping(entry, f"{where}[{i}]")
        _reject_unknown(data, {"delta", "chi"}, f"{where}[{i}]")
        if "delta" not in data or "chi" not in data:
            _fail(f"{where}[{i}] needs both 'delta' and 'chi'")
        plates.append(
            PlateSpec(
                delta=_as_number(data["delta"], f"{where}[{i}].delta") * scale,
                chi=_as_number(data["chi"], f"{where}[{i}].chi") * scale,
            )
        )
    return plates


def _parse_outputs(raw: Any) -> list[str]:
    if raw is None:
        return ["phases"]
    if not isinstance(raw, list) or not raw:
        _fail("outputs must be a non-empty list of quantity names")
    seen = []
    for entry in raw:
        if entry not in OUTPUT_QUANTITIES:
            _fail(f"unknown output quantity {entry!r}; choose from {', '.join(OUTPUT_QUANTITIES)}")
        if entry in seen:
            _fail(f"output quantity {entry!r} requested twice")
        seen.append(entry)
    return seen


def _angle_scale(config: dict) -> float:
    degrees = config.get("degrees", False)
    if not isinstance(degrees, bool):
        _fail("degrees must be true or false")
    return math.pi / 180.0 if degrees else 1.0


def _parse_samples(config: dict) -> int:
    raw = config.get("samples", DEFAULT_SAMPLES)
    n = _as_int(raw, "samples")
    if n < 2:
        _fail("samples must be at least 2")
    return n


def _parse_epsilon(config: dict, scale: float) -> float:
    raw = config.get("jump_epsilon")
    if raw is None:
        return DEFAULT_JUMP_EPSILON
    eps = _as_number(raw, "jump_epsilon") * scale
    if not 0.0 < eps < 0.1:
        _fail("jump_epsilon must sit in (0, 0.1) radians")
    return eps


def _plate_chain(
    state: StateVector, plates: Sequence[PlateSpec], dynamical: float = 0.0
) -> tuple[list[StateVector], StateVector, list[float], float]:
    """Input state and dynamical phase of each plate, the final state and the total.

    Every plate is a closed-form segment: its endpoint is propagated
    directly and its exact dynamical phase delta <psi|H|psi> is added to
    ``dynamical`` left to right, so a chain continued from a partial sum
    ends on the same total, bit for bit, as one run from the start.
    """
    inputs = []
    phases = []
    current = state
    for spec in plates:
        inputs.append(current)
        phases.append(dynamical_phase_closed_form(current, spec))
        dynamical += phases[-1]
        current = propagate(spec, current)
    return inputs, current, phases, dynamical


def _evolved_segments(
    state: StateVector, plates: Sequence[PlateSpec], samples: int
) -> list[Curve]:
    segments = []
    current = state
    for spec in plates:
        curve = evolve(spec, current, samples)
        segments.append(curve)
        current = curve.state(-1)
    return segments


def _two_level_from_state(state: StateVector) -> GeodesicScenario:
    d = state.amplitudes
    if abs(d[2]) <= ZERO_COMPONENT_TOL:
        return GeodesicScenario(d1=complex(d[0]), d2=complex(d[1]), smax=math.pi, family=1)
    if abs(d[1]) <= ZERO_COMPONENT_TOL:
        return GeodesicScenario(d1=complex(d[0]), d2=complex(d[2]), smax=math.pi, family=2)
    raise UsageError(
        "jump analysis needs a two-level state: second or third plate-basis amplitude zero"
    )


def _eigen_entry(unitary: Unitary3) -> dict:
    system = eigen(unitary)
    return {
        "eigenvalues": [_complex_pair(v) for v in system.values],
        "eigenvalue_args": [eigenvalue_arg(v) for v in system.values],
        "eigenvectors": [_amplitude_pairs(st.amplitudes) for st in system.states],
    }


def _check_grid(samples: int) -> np.ndarray:
    # one full period of the converter family in delta
    return np.linspace(0.0, math.pi, max(samples, 5))


def _check_residuals(chi: float, grid: np.ndarray, memo: dict[float, tuple[float, float]]) -> tuple[float, float]:
    """(fd, analytic) geodesic-check residuals; they depend on chi alone."""
    if chi not in memo:
        memo[chi] = _geodesic_residuals(chi, grid)
    return memo[chi]


def _phases_quantity(
    initial: StateVector,
    inputs: Sequence[StateVector],
    final: StateVector,
    phases: Sequence[float],
    dynamical: float,
) -> dict:
    entries = []
    for i, (start, end, dyn) in enumerate(zip(inputs, [*inputs[1:], final], phases)):
        pan = pancharatnam(start, end)
        entries.append(
            {
                "plate_index": i,
                "pancharatnam": pan,
                "dynamical": dyn,
                "geometric": principal(pan - dyn),
                "visibility": visibility(start, end),
            }
        )
    total_pan = pancharatnam(initial, final)
    total = {
        "pancharatnam": total_pan,
        "dynamical": dynamical,
        "geometric": principal(total_pan - dynamical),
        "visibility": visibility(initial, final),
    }
    return {"total": total, "segments": entries}


def _interference_quantity(initial: StateVector, final: StateVector, phi: float) -> dict:
    vis = visibility(initial, final)
    return {
        "phi": phi,
        "visibility": vis,
        "fringe_phase": pancharatnam(initial, final),
        "intensity": interference_intensity(initial, final, phi),
        "max_intensity": 2.0 + 2.0 * vis,
        "min_intensity": 2.0 - 2.0 * vis,
    }


def _curve_records(segments: Sequence[Curve]) -> list[list]:
    records: list[list] = []
    offset = 0.0
    for curve in segments:
        base = float(curve.s[0])
        for i in range(len(curve)):
            records.append(
                [offset + float(curve.s[i]) - base, _amplitude_pairs(curve.amplitudes[i])]
            )
        offset += float(curve.s[-1]) - base
    return records


RUN_KEYS = {
    "input_state",
    "plates",
    "sweep",
    "outputs",
    "degrees",
    "samples",
    "interference_phi",
    "jump_epsilon",
    "emit_curve",
}


def _parse_emit_curve(config: dict, fmt: str) -> bool:
    emit = config.get("emit_curve", False)
    if not isinstance(emit, bool):
        _fail("emit_curve must be true or false")
    if emit and fmt != "json":
        _fail("emit_curve requires --format json")
    return emit


def _cmd_run(config: dict, fmt: str) -> dict:
    _reject_unknown(config, RUN_KEYS, "config")
    scale = _angle_scale(config)
    samples = _parse_samples(config)
    emit_curve = _parse_emit_curve(config, fmt)
    if "input_state" not in config:
        _fail("run needs an input_state")
    state = _parse_state(config["input_state"], "input_state")
    plates = _parse_plates(config.get("plates", []), scale, "plates")
    outputs = _parse_outputs(config.get("outputs"))
    phi = _as_number(config.get("interference_phi", 0.0), "interference_phi") * scale
    epsilon = _parse_epsilon(config, scale)

    inputs, final, phases, dynamical = _plate_chain(state, plates)
    payload: dict[str, Any] = {
        "command": "run",
        "input_state": _state_payload(state),
        "plates": [{"delta": spec.delta, "chi": spec.chi} for spec in plates],
        "samples": samples,
        "output_state": _state_payload(final),
    }
    for name in outputs:
        if name == "phases":
            payload["phases"] = _phases_quantity(state, inputs, final, phases, dynamical)
        elif name == "eigen":
            payload["eigen"] = [
                {"plate_index": i, "delta": spec.delta, "chi": spec.chi, **_eigen_entry(q_matrix(spec))}
                for i, spec in enumerate(plates)
            ]
        elif name == "geodesic-check":
            grid = _check_grid(samples)
            payload["geodesic_check"] = []
            for i, spec in enumerate(plates):
                fd, analytic = _geodesic_residuals(spec.chi, grid)
                payload["geodesic_check"].append(
                    {
                        "plate_index": i,
                        "chi": spec.chi,
                        "grid_points": int(grid.size),
                        "grid_step": float(grid[1] - grid[0]),
                        "fd_residual": fd,
                        "analytic_residual": analytic,
                    }
                )
        elif name == "interference":
            payload["interference"] = _interference_quantity(state, final, phi)
        elif name == "jump":
            scenario = _two_level_from_state(state)
            payload["jump"] = {
                "coupling": scenario.coupling,
                "epsilon": epsilon,
                "jump": detect_phase_jump(scenario, epsilon),
            }
    if emit_curve:
        payload["curve"] = _curve_records(_evolved_segments(state, plates, samples))
    return payload


SWEEP_KEYS = RUN_KEYS - {"emit_curve"}


def _parse_sweep_grid(config: dict, plates: Sequence[PlateSpec], scale: float) -> tuple[str, int, np.ndarray]:
    if "sweep" not in config:
        _fail("sweep needs a sweep grid")
    data = _as_mapping(config["sweep"], "sweep")
    _reject_unknown(data, {"parameter", "start", "stop", "count", "plate_index"}, "sweep")
    parameter = data.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        _fail(f"sweep.parameter must be one of {', '.join(SWEEP_PARAMETERS)}")
    if "count" not in data:
        _fail("sweep needs a count")
    count = _as_int(data["count"], "sweep.count")
    if count < 2:
        _fail("sweep.count must be at least 2")
    start = _as_number(data.get("start"), "sweep.start") * scale
    stop = _as_number(data.get("stop"), "sweep.stop") * scale
    index = _as_int(data.get("plate_index", 0), "sweep.plate_index")
    if not plates:
        _fail("sweep needs at least one plate")
    if not 0 <= index < len(plates):
        _fail(f"sweep.plate_index {index} is out of range for {len(plates)} plates")
    return parameter, index, np.linspace(start, stop, count)


def _swept_plate(base: PlateSpec, parameter: str, value: float) -> PlateSpec:
    if parameter == "delta":
        return PlateSpec(delta=value, chi=base.chi)
    if parameter == "chi":
        return PlateSpec(delta=base.delta, chi=value)
    return PlateSpec(delta=0.5 * value, chi=base.chi)  # s = 2 delta


def _cmd_sweep(config: dict, fmt: str) -> dict:
    _reject_unknown(config, SWEEP_KEYS, "config")
    scale = _angle_scale(config)
    samples = _parse_samples(config)
    if "input_state" not in config:
        _fail("sweep needs an input_state")
    state = _parse_state(config["input_state"], "input_state")
    plates = _parse_plates(config.get("plates", []), scale, "plates")
    outputs = _parse_outputs(config.get("outputs"))
    phi = _as_number(config.get("interference_phi", 0.0), "interference_phi") * scale
    parameter, index, values = _parse_sweep_grid(config, plates, scale)

    scenario = _two_level_from_state(state) if "jump" in outputs else None
    # Plates before the swept one do not depend on the swept value: propagate
    # them once, and continue each point's chain from their partial
    # dynamical sum, which keeps the summation order of a full run.
    _, swept_input, _, prefix_dyn = _plate_chain(state, plates[:index])
    grid = _check_grid(samples)
    checks: dict[float, tuple[float, float]] = {}
    records = []
    for value in values:
        swept = _swept_plate(plates[index], parameter, float(value))
        record: dict[str, Any] = {parameter: float(value)}
        _, final, _, dyn = _plate_chain(swept_input, [swept, *plates[index + 1:]], prefix_dyn)
        for name in outputs:
            if name == "phases":
                try:
                    pan = pancharatnam(state, final)
                    geo = principal(pan - dyn)
                except IndeterminatePhaseError:
                    pan = None
                    geo = None
                record["pancharatnam"] = pan
                record["dynamical"] = dyn
                record["geometric"] = geo
                record["visibility"] = visibility(state, final)
            elif name == "eigen":
                entry = _eigen_entry(q_matrix(swept))
                for k, arg in enumerate(entry["eigenvalue_args"], start=1):
                    record[f"eigenvalue_arg_{k}"] = arg
            elif name == "geodesic-check":
                record["fd_residual"], record["analytic_residual"] = _check_residuals(swept.chi, grid, checks)
            elif name == "interference":
                record["visibility"] = visibility(state, final)
                try:
                    record["fringe_phase"] = pancharatnam(state, final)
                except IndeterminatePhaseError:
                    record["fringe_phase"] = None
                record["intensity"] = interference_intensity(state, final, phi)
            elif name == "jump":
                assert scenario is not None
                s_point = 2.0 * swept.delta
                theta, geometric = two_level_fringe(scenario, s_point)
                record["two_level_theta"] = theta
                record["two_level_geometric"] = geometric
        records.append(record)
    return {
        "command": "sweep",
        "parameter": parameter,
        "plate_index": index,
        "records": records,
    }


def _cmd_eigen(config: dict, fmt: str) -> dict:
    _reject_unknown(config, {"plates", "degrees"}, "config")
    scale = _angle_scale(config)
    plates = _parse_plates(config.get("plates"), scale, "plates")
    if not plates:
        _fail("eigen needs at least one plate")
    payload: dict[str, Any] = {
        "command": "eigen",
        "plates": [{"delta": spec.delta, "chi": spec.chi} for spec in plates],
        "systems": [
            {"plate_index": i, **_eigen_entry(q_matrix(spec))} for i, spec in enumerate(plates)
        ],
    }
    if len(plates) > 1:
        payload["composite"] = _eigen_entry(compose([q_matrix(spec) for spec in plates]))
    return payload


GEODESIC_KEYS = {"geodesic", "input_state", "plates", "degrees", "samples", "emit_curve"}


def _segment_report(curve: Curve) -> dict:
    return {
        "geodesic_residual": geodesic_residual(curve),
        "horizontality_residual": horizontality_residual(curve),
        "length": curve_length(curve),
    }


def _cmd_geodesic(config: dict, fmt: str) -> dict:
    _reject_unknown(config, GEODESIC_KEYS, "config")
    scale = _angle_scale(config)
    samples = _parse_samples(config)
    emit_curve = _parse_emit_curve(config, fmt)
    if "geodesic" in config:
        block = _as_mapping(config["geodesic"], "geodesic")
        _reject_unknown(block, {"from", "to"}, "geodesic")
        if "from" not in block or "to" not in block:
            _fail("geodesic needs both 'from' and 'to' states")
        a = _parse_state(block["from"], "geodesic.from")
        b = _parse_state(block["to"], "geodesic.to")
        curve = geodesic_between(a, b, samples)
        payload: dict[str, Any] = {
            "command": "geodesic",
            "samples": samples,
            "report": {
                "arc_length": float(curve.s[-1]),
                "endpoint_overlap": _complex_pair(inner(a, b)),
                **_segment_report(curve),
            },
        }
        if emit_curve:
            payload["curve"] = _curve_records([curve])
        return payload
    if "input_state" not in config:
        _fail("geodesic needs either a geodesic block or input_state with plates")
    state = _parse_state(config["input_state"], "input_state")
    plates = _parse_plates(config.get("plates"), scale, "plates")
    if not plates:
        _fail("geodesic segment mode needs at least one plate")
    segments = _evolved_segments(state, plates, samples)
    payload = {
        "command": "geodesic",
        "samples": samples,
        "segments": [
            {"plate_index": i, **_segment_report(curve)} for i, curve in enumerate(segments)
        ],
    }
    if emit_curve:
        payload["curve"] = _curve_records(segments)
    return payload


def _cmd_vertex(config: dict, fmt: str) -> dict:
    _reject_unknown(config, {"states"}, "config")
    raw = config.get("states")
    if not isinstance(raw, list) or len(raw) < 2:
        _fail("vertex needs a list of at least 2 states")
    states = [_parse_state(entry, f"states[{i}]") for i, entry in enumerate(raw)]
    return {
        "command": "vertex",
        "count": len(states),
        "vertex_product": vertex_product(states),
    }


_COMMANDS: dict[str, Callable[[dict, str], dict]] = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "eigen": _cmd_eigen,
    "geodesic": _cmd_geodesic,
    "vertex": _cmd_vertex,
}


def _render_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, int):
        return repr(value)
    return str(value)


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}.{i}", item, rows)
    else:
        rows.append((prefix, _render_cell(value)))


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if payload.get("command") == "sweep":
        records = payload["records"]
        header = list(records[0].keys())
        writer.writerow(header)
        for record in records:
            writer.writerow([_render_cell(record[key]) for key in header])
    else:
        writer.writerow(["field", "value"])
        rows: list[tuple[str, str]] = []
        _flatten("", payload, rows)
        writer.writerows(rows)
    return buffer.getvalue()


def _deliver(text: str, args: argparse.Namespace) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _as_mapping(config, "config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphase",
        description="Phases of three-level biphoton states under phase-plate converters",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "evolve one state through the plate list and report quantities",
        "sweep": "repeat a run over a parameter grid, one record per point",
        "eigen": "eigenvalues and eigenvectors of the plate matrices",
        "geodesic": "residual report for a geodesic or for evolved segments",
        "vertex": "polygon geometric phase of an ordered state list",
    }
    for name, text in descriptions.items():
        sub = subparsers.add_parser(name, help=text)
        sub.add_argument("--config", required=True, help="path to the JSON config")
        sub.add_argument("--out", help="output file path (default: stdout)")
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        payload = _COMMANDS[args.command](config, args.format)
        _deliver(_render(payload, args.format), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BiphaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
