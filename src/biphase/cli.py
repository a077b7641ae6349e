"""Config-driven command line front end.

Subcommands map to the analysis kinds the library exposes: ``run`` evolves
one state through a plate sequence and reports requested quantities,
``sweep`` repeats that over a parameter grid, ``eigen`` decomposes plate
matrices, ``geodesic`` reports residuals for geodesics or plate segments,
and ``vertex`` evaluates the polygon phase of a state list.

A plate is a closed-form segment: ``run``, ``sweep`` and ``geodesic``
segment mode propagate each state to the plate's endpoint, with no sampled
curve in between.  All three go through one evaluator, which also gives
the moments m = <psi|H|psi> and q = <H psi|H psi> of each plate's input:
``run`` and ``sweep`` report the exact dynamical phase delta m, and segment
mode the length and residuals that follow from m and q.  The evaluator
propagates all grid points of a sweep together; a run, like a segment
report, is a sweep of one point.  ``samples`` therefore sets only the
curves ``emit_curve`` adds, the delta grid of the geodesic check and the
great circle of ``geodesic`` pair mode.  Eigensystems are closed form: a
single plate from its parameters (``plate_eigen``), the composite of
``eigen`` from the SU(2) product of the plates' Jones matrices (``eigen``
of ``compose``).

One table, ``_COMMANDS``, gives each subcommand its handler, the config
keys it accepts and its help text, for dispatch and help alike.

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
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .angles import principal
from .converters import (
    EigenSystem,
    PlateSpec,
    _eigenbasis,
    _generator,
    _plate_eigenvalues,
    _propagate_rows,
    compose,
    eigen,
    eigenvalue_arg,
    evolve,
    plate_eigen,
    q_matrix,
)
from .errors import BiphaseError, ConfigError, IndeterminatePhaseError, NumericError, UsageError
from .geodesics import (
    GeodesicScenario,
    _check_waves,
    _geodesic_residuals,
    curve_length,
    detect_phase_jump,
    geodesic_between,
    geodesic_residual,
    horizontality_residual,
    two_level_fringe,
)
from .phases import (
    _moments,
    _overlap_intensity,
    _overlap_phase,
    _overlap_visibility,
    vertex_product,
)
from .state_space import Basis, Curve, StateVector, inner, to_pmz

OUTPUT_QUANTITIES = ("phases", "eigen", "geodesic-check", "interference", "jump")
SWEEP_PARAMETERS = ("delta", "chi", "s")
DEFAULT_SAMPLES = 2001
#: Largest ``samples`` and ``sweep.count``.  At these bounds a ``geodesic``
#: pair, a ``geodesic-check`` grid or a sweep peaks at 40-70 MB of process
#: memory, and ten times more at 160-410 MB; an allocation failure would be
#: no typed error.  An emitted curve costs about 2.4 kB per sample and plate,
#: most of it the JSON text it prints.
MAX_SAMPLES = 100_000
MAX_SWEEP_COUNT = 10_000
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


def _as_int(value: Any, where: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        _fail(f"{where} must be at least {minimum}")
    if maximum is not None and value > maximum:
        _fail(f"{where} must be at most {maximum}")
    return value


def _as_flag(config: dict, key: str) -> bool:
    value = config.get(key, False)
    if not isinstance(value, bool):
        _fail(f"{key} must be true or false")
    return value


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(data) - allowed)
    if extra:
        _fail(f"{where} has unknown keys: {', '.join(extra)}")


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _amplitude_pairs(amps: np.ndarray) -> list[list[float]]:
    return [_complex_pair(complex(z)) for z in amps]


def _state_payload(amplitudes: np.ndarray) -> dict:
    return {"basis": Basis.PMZ.value, "amplitudes": _amplitude_pairs(amplitudes)}


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
    return math.pi / 180.0 if _as_flag(config, "degrees") else 1.0


def _read_sampling(config: dict, fmt: str) -> tuple[float, int, bool]:
    """The angle scale, ``samples`` and ``emit_curve``, which run, sweep and geodesic read first."""
    scale = _angle_scale(config)
    samples = _as_int(config.get("samples", DEFAULT_SAMPLES), "samples", minimum=2, maximum=MAX_SAMPLES)
    emit_curve = _as_flag(config, "emit_curve")
    if emit_curve and fmt != "json":
        _fail("emit_curve requires --format json")
    return scale, samples, emit_curve


def _parse_epsilon(config: dict, scale: float) -> float:
    raw = config.get("jump_epsilon")
    if raw is None:
        return DEFAULT_JUMP_EPSILON
    eps = _as_number(raw, "jump_epsilon") * scale
    if not 0.0 < eps < 0.1:
        _fail("jump_epsilon must sit in (0, 0.1) radians")
    return eps


class _Chain(NamedTuple):
    """A plate chain evaluated at every grid point, each array one row per point."""

    #: amplitudes entering each plate, then those leaving the last, (points, 3)
    states: list[np.ndarray]
    #: m = <psi|H|psi> and q = <H psi|H psi> of each plate's input, (points,) each
    moments: list[tuple[np.ndarray, np.ndarray]]
    #: closed-form dynamical phase delta m of each plate, (points,)
    phases: list[np.ndarray]
    #: left-to-right sum of the phases, (points,)
    dynamical: np.ndarray


def _column(plates: Sequence[PlateSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenbasis V, generator H and thickness of one chain position, for each of its plates.

    Plates of one orientation share a single V and H.
    """
    if len({spec.chi for spec in plates}) == 1:
        basis, generator = _eigenbasis(plates[0].chi), _generator(plates[0].chi)
    else:
        basis = np.stack([_eigenbasis(spec.chi) for spec in plates])
        generator = np.stack([_generator(spec.chi) for spec in plates])
    return basis, generator, np.array([spec.delta for spec in plates])


def _evaluate(
    state: StateVector, head: Sequence[PlateSpec], swept: Sequence[PlateSpec], tail: Sequence[PlateSpec]
) -> _Chain:
    """Closed-form chain head, swept[i], tail for every grid point i.

    ``swept`` holds the plate each point puts between the fixed ``head``
    and ``tail`` plates; with no swept plates there is one point, a run.
    Every plate propagates its input rows to its endpoint and adds its
    exact dynamical phase delta <psi|H|psi> to the total, left to right.
    The head runs once, on one row shared by every point; the swept plate
    takes all its rows from one ``_propagate_rows`` call, and each tail
    plate from one more.  Row results do not depend on how many points
    share a call, so a sweep point equals the run of that point bit for bit.
    """
    columns = [_column([spec]) for spec in head]
    if swept:
        columns.append(_column(swept))
    columns.extend(_column([spec]) for spec in tail)
    rows = state.amplitudes[None, :]
    states, moments, phases, dynamical = [rows], [], [], np.zeros(1)
    # plates near the parameter bound can add up to an infinite phase, which
    # _phase_reading refuses
    with np.errstate(over="ignore"):
        for basis, generator, thickness in columns:
            moments.append(_moments(generator, rows))
            phases.append(thickness * moments[-1][0])
            dynamical = dynamical + phases[-1]
            rows = _propagate_rows(basis, thickness, rows)
            states.append(rows)
    return _Chain(states, moments, phases, dynamical)


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


def _eigen_entry(system: EigenSystem) -> dict:
    return {
        "eigenvalues": [_complex_pair(v) for v in system.values],
        "eigenvalue_args": [eigenvalue_arg(v) for v in system.values],
        "eigenvectors": [_amplitude_pairs(st.amplitudes) for st in system.states],
    }


def _check_grid(samples: int) -> np.ndarray:
    # one full period of the converter family in delta
    return np.linspace(0.0, math.pi, max(samples, 5))


def _overlaps(a: np.ndarray, b: np.ndarray) -> list[complex]:
    """<a_i|b_i> for each pair of rows (rows broadcast), as Python complex numbers."""
    return np.vecdot(a, b).tolist()


def _phase_reading(z: complex, dynamical: float, *, null_if_indeterminate: bool = False) -> dict:
    """The phases and visibility of a path whose endpoints overlap as z, given its dynamical phase.

    An indeterminate Pancharatnam phase raises, or with ``null_if_indeterminate``
    leaves it and the geometric phase null.  A dynamical phase that
    overflows, as the sum over plates near the parameter bound can, raises.
    """
    if not math.isfinite(dynamical):
        raise NumericError(f"the dynamical phase overflows: {dynamical!r}")
    try:
        pan = _overlap_phase(z)
    except IndeterminatePhaseError:
        if not null_if_indeterminate:
            raise
        pan = geo = None
    else:
        geo = principal(pan - dynamical)
    return {"pancharatnam": pan, "dynamical": dynamical, "geometric": geo, "visibility": _overlap_visibility(z)}


def _phases_quantity(chain: _Chain) -> dict:
    # a run: one point, so every array holds one row
    states = chain.states
    segments = [
        {"plate_index": i, **_phase_reading(_overlaps(start, end)[0], float(dyn[0]))}
        for i, (start, end, dyn) in enumerate(zip(states, states[1:], chain.phases))
    ]
    total = _phase_reading(_overlaps(states[0], states[-1])[0], float(chain.dynamical[0]))
    return {"total": total, "segments": segments}


def _interference_quantity(z: complex, phi: float) -> dict:
    vis = _overlap_visibility(z)
    return {
        "phi": phi,
        "visibility": vis,
        "fringe_phase": _overlap_phase(z),
        "intensity": _overlap_intensity(z, phi),
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
        if not math.isfinite(offset):
            raise NumericError(f"the emitted curve's parameter overflows: {offset!r}")
    return records


def _read_setup(
    config: dict, fmt: str, command: str
) -> tuple[float, int, bool, StateVector, list[PlateSpec], list[str], float, float]:
    """The keys ``run`` and ``sweep`` share: scale, samples, emit_curve, state, plates, outputs, phi, epsilon.

    The order of the reads decides which fault a config with several reports.
    """
    scale, samples, emit_curve = _read_sampling(config, fmt)
    if "input_state" not in config:
        _fail(f"{command} needs an input_state")
    state = _parse_state(config["input_state"], "input_state")
    plates = _parse_plates(config.get("plates", []), scale, "plates")
    outputs = _parse_outputs(config.get("outputs"))
    phi = _as_number(config.get("interference_phi", 0.0), "interference_phi") * scale
    return scale, samples, emit_curve, state, plates, outputs, phi, _parse_epsilon(config, scale)


def _cmd_run(config: dict, fmt: str) -> dict:
    scale, samples, emit_curve, state, plates, outputs, phi, epsilon = _read_setup(config, fmt, "run")
    if "sweep" in config:
        _parse_sweep_grid(config, plates, scale)  # checked, then unused: a sweep config also runs
    chain = _evaluate(state, plates, [], [])
    final = chain.states[-1]
    (z,) = _overlaps(state.amplitudes, final)
    payload: dict[str, Any] = {
        "command": "run",
        "input_state": _state_payload(state.amplitudes),
        "plates": [{"delta": spec.delta, "chi": spec.chi} for spec in plates],
        "samples": samples,
        "output_state": _state_payload(final[0]),
    }
    for name in outputs:
        if name == "phases":
            payload["phases"] = _phases_quantity(chain)
        elif name == "eigen":
            payload["eigen"] = [
                {"plate_index": i, "delta": spec.delta, "chi": spec.chi, **_eigen_entry(plate_eigen(spec))}
                for i, spec in enumerate(plates)
            ]
        elif name == "geodesic-check":
            grid = _check_grid(samples)
            waves = _check_waves(grid)
            payload["geodesic_check"] = []
            for i, spec in enumerate(plates):
                fd, analytic = _geodesic_residuals(spec.chi, waves)
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
            payload["interference"] = _interference_quantity(z, phi)
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
    count = _as_int(data["count"], "sweep.count", minimum=2, maximum=MAX_SWEEP_COUNT)
    start = _as_number(data.get("start"), "sweep.start") * scale
    stop = _as_number(data.get("stop"), "sweep.stop") * scale
    if not math.isfinite(stop - start):
        _fail("sweep.stop - sweep.start must be finite")
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
    scale, samples, _, state, plates, outputs, phi, _ = _read_setup(config, fmt, "sweep")
    parameter, index, values = _parse_sweep_grid(config, plates, scale)

    scenario = _two_level_from_state(state) if "jump" in outputs else None
    swept = [_swept_plate(plates[index], parameter, value) for value in values.tolist()]
    chain = _evaluate(state, plates[:index], swept, plates[index + 1:])
    overlaps = _overlaps(state.amplitudes, chain.states[-1])
    waves = _check_waves(_check_grid(samples)) if "geodesic-check" in outputs else None
    checks: dict[float, tuple[float, float]] = {}
    records = []
    for value, spec, z, dyn in zip(values.tolist(), swept, overlaps, chain.dynamical.tolist()):
        record: dict[str, Any] = {parameter: value}
        for name in outputs:
            if name == "phases":
                record.update(_phase_reading(z, dyn, null_if_indeterminate=True))
            elif name == "eigen":
                for k, value in enumerate(_plate_eigenvalues(spec), start=1):
                    record[f"eigenvalue_arg_{k}"] = eigenvalue_arg(value)
            elif name == "geodesic-check":
                if spec.chi not in checks:
                    checks[spec.chi] = _geodesic_residuals(spec.chi, waves)
                record["fd_residual"], record["analytic_residual"] = checks[spec.chi]
            elif name == "interference":
                record["visibility"] = _overlap_visibility(z)
                try:
                    record["fringe_phase"] = _overlap_phase(z)
                except IndeterminatePhaseError:
                    record["fringe_phase"] = None
                record["intensity"] = _overlap_intensity(z, phi)
            elif name == "jump":
                assert scenario is not None
                s_point = 2.0 * spec.delta
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
    scale = _angle_scale(config)
    plates = _parse_plates(config.get("plates"), scale, "plates")
    if not plates:
        _fail("eigen needs at least one plate")
    payload: dict[str, Any] = {
        "command": "eigen",
        "plates": [{"delta": spec.delta, "chi": spec.chi} for spec in plates],
        "systems": [
            {"plate_index": i, **_eigen_entry(plate_eigen(spec))} for i, spec in enumerate(plates)
        ],
    }
    if len(plates) > 1:
        payload["composite"] = _eigen_entry(eigen(compose([q_matrix(spec) for spec in plates])))
    return payload


def _segment_geometry(delta: float, m: float, q: float) -> dict:
    """Residuals and length of a plate segment whose input has moments m and q.

    Along psi(d) = exp(i d H) psi0 the velocity is i H psi, and H commutes
    with exp(i d H), so m and q hold all along the plate.  The vertical part
    <psi|dpsi/dd> is i m, the acceleration -H^2 psi, and the residual
    (q - H^2) psi has squared norm q (4 - q), since H^4 = 4 H^2.  The
    residuals are rates per unit thickness, the same for every delta,
    zero included; only the length scales with |delta|.
    """
    length = abs(delta) * math.sqrt(max(0.0, q - m * m))
    if math.isinf(length):
        raise NumericError(f"segment length overflows for delta = {delta!r}")
    return {
        "geodesic_residual": math.sqrt(max(0.0, q * (4.0 - q))),
        "horizontality_residual": abs(m),
        "length": length,
    }


def _cmd_geodesic(config: dict, fmt: str) -> dict:
    scale, samples, emit_curve = _read_sampling(config, fmt)
    payload: dict[str, Any] = {"command": "geodesic", "samples": samples}
    if "geodesic" in config:
        block = _as_mapping(config["geodesic"], "geodesic")
        _reject_unknown(block, {"from", "to"}, "geodesic")
        if "from" not in block or "to" not in block:
            _fail("geodesic needs both 'from' and 'to' states")
        a = _parse_state(block["from"], "geodesic.from")
        b = _parse_state(block["to"], "geodesic.to")
        # the great circle is checked numerically, on its own samples
        curve = geodesic_between(a, b, samples)
        payload["report"] = {
            "arc_length": float(curve.s[-1]),
            "endpoint_overlap": _complex_pair(inner(a, b)),
            "geodesic_residual": geodesic_residual(curve),
            "horizontality_residual": horizontality_residual(curve),
            "length": curve_length(curve),
        }
        if emit_curve:
            payload["curve"] = _curve_records([curve])
    else:
        if "input_state" not in config:
            _fail("geodesic needs either a geodesic block or input_state with plates")
        state = _parse_state(config["input_state"], "input_state")
        plates = _parse_plates(config.get("plates"), scale, "plates")
        if not plates:
            _fail("geodesic segment mode needs at least one plate")
        chain = _evaluate(state, plates, [], [])
        payload["segments"] = [
            {"plate_index": i, **_segment_geometry(spec.delta, float(m[0]), float(q[0]))}
            for i, (spec, (m, q)) in enumerate(zip(plates, chain.moments))
        ]
        if emit_curve:
            payload["curve"] = _curve_records(_evolved_segments(state, plates, samples))
    return payload


def _cmd_vertex(config: dict, fmt: str) -> dict:
    raw = config.get("states")
    if not isinstance(raw, list) or len(raw) < 2:
        _fail("vertex needs a list of at least 2 states")
    states = [_parse_state(entry, f"states[{i}]") for i, entry in enumerate(raw)]
    return {
        "command": "vertex",
        "count": len(states),
        "vertex_product": vertex_product(states),
    }


class _Command(NamedTuple):
    handler: Callable[[dict, str], dict]
    keys: set[str]  # the accepted top-level config keys
    help: str


_COMMANDS = {
    "run": _Command(
        _cmd_run,
        # a sweep block is checked and otherwise ignored: a sweep config also runs
        {"input_state", "plates", "sweep", "outputs", "degrees", "samples", "interference_phi", "jump_epsilon",
         "emit_curve"},
        "evolve one state through the plate list and report quantities",
    ),
    "sweep": _Command(
        _cmd_sweep,
        {"input_state", "plates", "sweep", "outputs", "degrees", "samples", "interference_phi", "jump_epsilon"},
        "repeat a run over a parameter grid, one record per point",
    ),
    "eigen": _Command(_cmd_eigen, {"plates", "degrees"}, "eigenvalues and eigenvectors of the plate matrices"),
    "geodesic": _Command(
        _cmd_geodesic,
        {"geodesic", "input_state", "plates", "degrees", "samples", "emit_curve"},
        "residual report for a geodesic or for evolved segments",
    ),
    "vertex": _Command(_cmd_vertex, {"states"}, "polygon geometric phase of an ordered state list"),
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
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        sub.add_argument("--config", required=True, help="path to the JSON config")
        sub.add_argument("--out", help="output file path (default: stdout)")
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    # parsing leaves no state on the parser, so one per process serves every call
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        command = _COMMANDS[args.command]
        config = _load_config(args.config)
        _reject_unknown(config, command.keys, "config")
        payload = command.handler(config, args.format)
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
