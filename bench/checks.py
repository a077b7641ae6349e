"""Per-operation correctness checks against the benchmark's own reference.

Each check takes one program output and the generated input, recomputes
the expected values with ``reference`` (numpy only) and returns a
``Verdict``: the problems found, the largest phase error seen and whether
a typed error was the right answer.  Tolerances are fixed in advance:
1e-9 for states, eigenvalues and closed-form quantities, the overlap's
conditioning for phases of nearly orthogonal pairs, and a stated
truncation allowance for finite-difference residuals and lengths.  The
quadrature error of numeric dynamical phases is reported, never failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import inputs
import reference as ref

#: Overlap magnitude below which biphase calls a relative phase indeterminate.
ORTHOGONALITY_TOL = 1e-9
#: Overlaps this close to the threshold may fall on either side of it.
THRESHOLD_BAND = 1e-12
TOL = 1e-9
#: Allowance for finite-difference residuals and lengths against their exact
#: values: far above the O(h^2) truncation at 2001 samples, far below the
#: error of a wrong formula.
TRUNC_REL = 1e-2
TRUNC_ABS = 1e-6
DEFAULT_SAMPLES = 2001


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    phase_err: float = 0.0
    typed_error: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, what: str, condition: bool) -> None:
        if not condition:
            self.problems.append(what)

    def close(self, what: str, got, want, tol: float) -> None:
        if got is None or not abs(complex(got) - complex(want)) <= tol:
            self.problems.append(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")

    def angle(self, what: str, got, want: float, tol: float) -> None:
        if got is None or not ref.angle_gap(got, want) <= tol:
            self.problems.append(f"{what}: got {got!r}, want {want!r} mod 2pi within {tol:.3g}")

    def truncated(self, what: str, got, want: float) -> None:
        self.close(what, got, want, TRUNC_REL * abs(want) + TRUNC_ABS)

    def phase_error(self, what: str, got, exact: float) -> None:
        if got is None or not math.isfinite(got):
            self.problems.append(f"{what}: got {got!r}")
        else:
            self.phase_err = max(self.phase_err, abs(got - exact))


def orthogonal(z: complex) -> bool | None:
    """True or False when the reference overlap is clearly on one side of the threshold."""
    if abs(abs(z) - ORTHOGONALITY_TOL) <= THRESHOLD_BAND:
        return None
    return abs(z) < ORTHOGONALITY_TOL


# ----------------------------------------------------------------- parsing


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _listify(node):
    if isinstance(node, dict):
        node = {k: _listify(v) for k, v in node.items()}
        if node and all(k.isdigit() for k in node):
            return [node[str(i)] for i in range(len(node))]
    return node


def parse_output(text: str, fmt: str, command: str) -> dict:
    """Payload of one CLI output, from JSON or from the flattened CSV form."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    if command == "sweep":
        header = rows[0]
        return {"command": "sweep", "records": [dict(zip(header, map(_cell, row))) for row in rows[1:]]}
    tree: dict = {}
    for path, value in rows[1:]:
        node = tree
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = _cell(value)
    return _listify(tree)


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


# -------------------------------------------------------------- reference bits


def fd_check_residual(chi: float, samples: int = DEFAULT_SAMPLES) -> float:
    """Exact central-difference residual of Im(Q'' + 4Q) on the CLI's check grid.

    Im Q = sin(2 delta) H/2, and the second difference of sin(2 delta)
    is -4 sin(2 delta) sin(h)^2 / h^2.
    """
    grid = np.linspace(0.0, math.pi, max(samples, 5))
    h = float(grid[1] - grid[0])
    pattern = max(abs(math.cos(2.0 * chi)), abs(math.sin(2.0 * chi)))
    return 4.0 * abs(1.0 - (math.sin(h) / h) ** 2) * float(np.max(np.abs(np.sin(2.0 * grid[1:-1])))) * pattern


def _fringe(c: float, s: float) -> tuple[float, float]:
    theta = math.atan(c * math.tan(s))
    return theta, theta - s * c


def _scenario(psi: np.ndarray) -> tuple[complex, complex] | None:
    if abs(psi[2]) <= 1e-9:
        return psi[0], psi[1]
    if abs(psi[1]) <= 1e-9:
        return psi[0], psi[2]
    return None


def _coupling(pair) -> float:
    return float(2.0 * (pair[0] * np.conj(pair[1])).real)


class Scenario:
    """Reference view of one CLI config, with angles converted as the CLI does."""

    def __init__(self, config: dict):
        self.config = config
        self.scale = math.pi / 180.0 if config.get("degrees", False) else 1.0
        self.plates = [(p["delta"] * self.scale, p["chi"] * self.scale) for p in config.get("plates", [])]
        state = config.get("input_state")
        self.psi = ref.normalized(_vector(state["amplitudes"]), state["basis"]) if state else None
        self.phi = config.get("interference_phi", 0.0) * self.scale


def _check_eigen_entry(v: Verdict, where: str, entry: dict, matrix: np.ndarray, expected) -> None:
    values = _vector(entry["eigenvalues"])
    v.require(f"{where}: eigenvalues off the reference by more than {TOL}",
              ref.eigenvalue_gap(values, expected) <= TOL)
    args = entry["eigenvalue_args"]
    for k, (value, arg) in enumerate(zip(values, args)):
        v.angle(f"{where}.eigenvalue_args[{k}]", arg, ref.phase_of(value), 1e-12)
    v.require(f"{where}: eigenvalue_args not ascending", all(a <= b + 1e-12 for a, b in zip(args, args[1:])))
    for k, (value, pairs) in enumerate(zip(values, entry["eigenvectors"])):
        vec = _vector(pairs)
        v.close(f"{where}.eigenvectors[{k}] norm", float(np.linalg.norm(vec)), 1.0, TOL)
        v.require(f"{where}.eigenvectors[{k}]: residual above {TOL}",
                  float(np.linalg.norm(matrix @ vec - value * vec)) <= TOL)


def _check_geodesic_check(v: Verdict, where: str, entry: dict, chi: float) -> None:
    v.close(f"{where}.fd_residual", entry["fd_residual"], fd_check_residual(chi), 1e-8)
    v.require(f"{where}.analytic_residual above {TOL}", 0.0 <= entry["analytic_residual"] <= TOL)


# ------------------------------------------------------------------ commands


def check_run(v: Verdict, payload: dict, sc: Scenario) -> None:
    outputs = sc.config.get("outputs", ["phases"])
    states, dynamical = ref.evolve_chain(sc.psi, sc.plates)
    final = states[-1]
    total = complex(np.vdot(sc.psi, final))
    v.close("output_state", float(np.max(np.abs(_vector(payload["output_state"]["amplitudes"]) - final))), 0.0, TOL)
    v.require("samples echo", payload["samples"] == DEFAULT_SAMPLES)
    if "phases" in outputs:
        block = payload["phases"]
        for k, seg in enumerate(block["segments"]):
            z = complex(np.vdot(states[k], states[k + 1]))
            where = f"phases.segments[{k}]"
            v.angle(f"{where}.pancharatnam", seg["pancharatnam"], ref.phase_of(z), ref.overlap_phase_tolerance(z))
            v.phase_error(f"{where}.dynamical", seg["dynamical"], dynamical[k])
            v.angle(f"{where}.geometric", seg["geometric"], ref.principal(seg["pancharatnam"] - seg["dynamical"]), 1e-12)
            v.close(f"{where}.visibility", seg["visibility"], min(1.0, abs(z)), TOL)
        tot = block["total"]
        v.angle("phases.total.pancharatnam", tot["pancharatnam"], ref.phase_of(total), ref.overlap_phase_tolerance(total))
        v.close("phases.total.dynamical = sum of segments", tot["dynamical"],
                sum(seg["dynamical"] for seg in block["segments"]), 1e-12 * (1.0 + abs(tot["dynamical"])))
        v.phase_error("phases.total.dynamical", tot["dynamical"], sum(dynamical))
        v.angle("phases.total.geometric", tot["geometric"], ref.principal(tot["pancharatnam"] - tot["dynamical"]), 1e-12)
        v.close("phases.total.visibility", tot["visibility"], min(1.0, abs(total)), TOL)
    if "eigen" in outputs:
        for k, ((delta, chi), entry) in enumerate(zip(sc.plates, payload["eigen"])):
            _check_eigen_entry(v, f"eigen[{k}]", entry, ref.plate(delta, chi), ref.plate_eigenvalues(delta))
    if "geodesic-check" in outputs:
        step = math.pi / (DEFAULT_SAMPLES - 1)
        for k, ((_, chi), entry) in enumerate(zip(sc.plates, payload["geodesic_check"])):
            v.require(f"geodesic_check[{k}].grid_points", entry["grid_points"] == DEFAULT_SAMPLES)
            v.close(f"geodesic_check[{k}].grid_step", entry["grid_step"], step, 1e-15)
            _check_geodesic_check(v, f"geodesic_check[{k}]", entry, chi)
    if "interference" in outputs:
        _check_interference(v, "interference", payload["interference"], total, sc.phi)
        block = payload["interference"]
        v.close("interference.max_intensity", block["max_intensity"], 2.0 + 2.0 * block["visibility"], 1e-12)
        v.close("interference.min_intensity", block["min_intensity"], 2.0 - 2.0 * block["visibility"], 1e-12)
    if "jump" in outputs:
        pair = _scenario(sc.psi)
        c = _coupling(pair)
        eps = sc.config.get("jump_epsilon", 1e-3 / sc.scale) * sc.scale
        block = payload["jump"]
        v.close("jump.coupling", block["coupling"], c, 1e-12)
        v.close("jump.epsilon", block["epsilon"], eps, 1e-15)
        want = 0.0
        if 1.0 - abs(c) > 1e-12:
            want = _fringe(c, 0.5 * math.pi + eps)[1] - _fringe(c, 0.5 * math.pi - eps)[1]
        v.close("jump.jump", block["jump"], want, TOL)


def _check_interference(v: Verdict, where: str, block: dict, z: complex, phi: float) -> None:
    v.close(f"{where}.visibility", block["visibility"], min(1.0, abs(z)), TOL)
    v.require(f"{where}.visibility outside [0, 1]", 0.0 <= block["visibility"] <= 1.0)
    fringe = block["fringe_phase"]
    if fringe is None:
        v.require(f"{where}.fringe_phase null for a determinate overlap", orthogonal(z) is not False)
    else:
        v.angle(f"{where}.fringe_phase", fringe, ref.phase_of(z), ref.overlap_phase_tolerance(z))
    v.close(f"{where}.intensity", block["intensity"], 2.0 + 2.0 * abs(z) * math.cos(phi - math.atan2(z.imag, z.real)), TOL)
    if "phi" in block:
        v.close(f"{where}.phi", block["phi"], phi, 1e-15)


def _swept(plate, parameter: str, value: float) -> tuple[float, float]:
    if parameter == "delta":
        return value, plate[1]
    if parameter == "chi":
        return plate[0], value
    return 0.5 * value, plate[1]


def check_sweep(v: Verdict, payload: dict, sc: Scenario) -> None:
    outputs = sc.config.get("outputs", ["phases"])
    grid = sc.config["sweep"]
    parameter, index = grid["parameter"], grid.get("plate_index", 0)
    values = np.linspace(grid["start"] * sc.scale, grid["stop"] * sc.scale, grid["count"])
    records = payload["records"]
    v.require(f"sweep has {len(records)} records, want {len(values)}", len(records) == len(values))
    pair = _scenario(sc.psi) if "jump" in outputs else None
    for i, (value, rec) in enumerate(zip(values, records)):
        where = f"records[{i}]"
        value = float(value)
        v.close(f"{where}.{parameter}", rec[parameter], value, 1e-15 * max(1.0, abs(value)))
        point = list(sc.plates)
        point[index] = _swept(sc.plates[index], parameter, value)
        states, dynamical = ref.evolve_chain(sc.psi, point)
        z = complex(np.vdot(sc.psi, states[-1]))
        swept_delta, swept_chi = point[index]
        if "phases" in outputs:
            v.phase_error(f"{where}.dynamical", rec["dynamical"], sum(dynamical))
            pan = rec["pancharatnam"]
            if pan is None:
                v.require(f"{where}.pancharatnam null for a determinate overlap", orthogonal(z) is not False)
                v.require(f"{where}.geometric not null", rec["geometric"] is None)
            else:
                v.require(f"{where}.pancharatnam given for an orthogonal overlap", orthogonal(z) is not True)
                v.angle(f"{where}.pancharatnam", pan, ref.phase_of(z), ref.overlap_phase_tolerance(z))
                v.angle(f"{where}.geometric", rec["geometric"], ref.principal(pan - rec["dynamical"]), 1e-12)
            v.close(f"{where}.visibility", rec["visibility"], min(1.0, abs(z)), TOL)
        if "eigen" in outputs:
            args = [rec[f"eigenvalue_arg_{k}"] for k in (1, 2, 3)]
            v.require(f"{where}: eigenvalue args off the reference by more than {TOL}",
                      None not in args
                      and ref.eigenvalue_gap(np.exp(1j * np.array(args)), ref.plate_eigenvalues(swept_delta)) <= TOL)
        if "geodesic-check" in outputs:
            _check_geodesic_check(v, where, rec, swept_chi)
        if "interference" in outputs:
            _check_interference(v, where, {"visibility": rec["visibility"], "fringe_phase": rec["fringe_phase"],
                                           "intensity": rec["intensity"]}, z, sc.phi)
        if pair is not None:
            theta, geometric = _fringe(_coupling(pair), 2.0 * swept_delta)
            v.close(f"{where}.two_level_theta", rec["two_level_theta"], theta, TOL)
            v.close(f"{where}.two_level_geometric", rec["two_level_geometric"], geometric, TOL * (1.0 + abs(geometric)))


def check_eigen(v: Verdict, payload: dict, sc: Scenario) -> None:
    for k, ((delta, chi), entry) in enumerate(zip(sc.plates, payload["systems"])):
        _check_eigen_entry(v, f"systems[{k}]", entry, ref.plate(delta, chi), ref.plate_eigenvalues(delta))
    if len(sc.plates) > 1:
        total = ref.chain(sc.plates)
        _check_eigen_entry(v, "composite", payload["composite"], total, np.linalg.eigvals(total))


def check_geodesic(v: Verdict, payload: dict, sc: Scenario) -> None:
    block = sc.config.get("geodesic")
    if block is not None:
        a = ref.normalized(_vector(block["from"]["amplitudes"]), block["from"]["basis"])
        b = ref.normalized(_vector(block["to"]["amplitudes"]), block["to"]["basis"])
        z = complex(np.vdot(a, b))
        s0 = math.acos(min(1.0, abs(z)))
        rep = payload["report"]
        v.close("report.arc_length", rep["arc_length"], s0, TOL)
        v.close("report.endpoint_overlap", complex(*rep["endpoint_overlap"]), z, TOL)
        # a great circle is geodesic and horizontal with length s0
        v.truncated("report.geodesic_residual", rep["geodesic_residual"], 0.0)
        v.truncated("report.horizontality_residual", rep["horizontality_residual"], 0.0)
        v.truncated("report.length", rep["length"], s0)
        return
    states, _ = ref.evolve_chain(sc.psi, sc.plates)
    for k, ((delta, chi), seg) in enumerate(zip(sc.plates, payload["segments"])):
        where = f"segments[{k}]"
        psi = states[k]
        h_psi = ref.generator(chi) @ psi
        # psi(s) = exp(i s H) psi: |<psi|dpsi>| = |<H>| and the geodesic
        # residual is |(<H^2> - H^2) psi|, both constant along the plate
        spread = float(np.real(np.vdot(h_psi, h_psi))) * psi - ref.generator(chi) @ h_psi
        v.truncated(f"{where}.length", seg["length"], ref.segment_length(psi, delta, chi))
        v.truncated(f"{where}.horizontality_residual", seg["horizontality_residual"],
                    abs(float(np.real(np.vdot(psi, h_psi)))))
        v.truncated(f"{where}.geodesic_residual", seg["geodesic_residual"], float(np.linalg.norm(spread)))


def check_vertex(v: Verdict, payload: dict, sc: Scenario) -> None:
    states = [ref.normalized(_vector(s["amplitudes"]), s["basis"]) for s in sc.config["states"]]
    overlaps = [complex(np.vdot(states[-1], states[0]))]
    overlaps += [complex(np.vdot(l, r)) for l, r in zip(states[:-1], states[1:])]
    want = ref.principal(-sum(math.atan2(z.imag, z.real) for z in overlaps))
    v.require("vertex count", payload["count"] == len(states))
    v.angle("vertex_product", payload["vertex_product"], want, sum(ref.overlap_phase_tolerance(z) for z in overlaps))


def expected_typed_error(item: dict) -> bool | None:
    """Whether the CLI must refuse this config as indeterminate (None: either is fine)."""
    sc = Scenario(item["config"])
    command = item["command"]
    overlaps: list[complex] = []
    if command == "run":
        outputs = sc.config.get("outputs", ["phases"])
        states, _ = ref.evolve_chain(sc.psi, sc.plates)
        total = complex(np.vdot(sc.psi, states[-1]))
        if "phases" in outputs:
            overlaps += [complex(np.vdot(l, r)) for l, r in zip(states[:-1], states[1:])] + [total]
        if "interference" in outputs:
            overlaps.append(total)
    elif command == "vertex":
        states = [ref.normalized(_vector(s["amplitudes"]), s["basis"]) for s in sc.config["states"]]
        overlaps = [complex(np.vdot(states[-1], states[0]))]
        overlaps += [complex(np.vdot(l, r)) for l, r in zip(states[:-1], states[1:])]
    flags = [orthogonal(z) for z in overlaps]
    if any(f is True for f in flags):
        return True
    if any(f is None for f in flags):
        return None
    return False


CHECKS = {"run": check_run, "sweep": check_sweep, "eigen": check_eigen,
          "geodesic": check_geodesic, "vertex": check_vertex}


def check_cli(item: dict, code: int, stdout: str, stderr: str) -> Verdict:
    """Verdict on one CLI call: exit status, then every value in the payload."""
    v = Verdict()
    expect_error = expected_typed_error(item)
    if code == 3 and expect_error is not False and stderr.startswith("error:") and not stdout:
        v.typed_error = True
        return v
    if code != 0 or expect_error is True:
        v.problems.append(f"exit {code} (typed error expected: {expect_error}); stderr {stderr.strip()[:200]!r}")
        return v
    try:
        payload = parse_output(stdout, item["format"], item["command"])
        if item["format"] == "json":
            v.require("command echo", payload.get("command") == item["command"])
        CHECKS[item["command"]](v, payload, Scenario(item["config"]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        v.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return v


# -------------------------------------------------------------- curve-geometry


class CurveReference:
    """Expected values for one curve-geometry item, computed once per item."""

    def __init__(self, arrays: dict, i: int):
        a, b = arrays["a"][i], arrays["b"][i]
        self.overlap = complex(np.vdot(a, b))
        self.s0 = inputs.arc_length(a, b)
        alpha, d1, d2 = inputs.gauge_angle(arrays["gauge_phase"][i], self.s0)
        self.pancharatnam = ref.principal(alpha[-1] - alpha[0])
        self.b = b
        self.horizontality = float(np.max(np.abs(d1)))
        # on e^{i alpha} times a unit-speed horizontal geodesic the residual
        # d2psi + <dpsi|dpsi> psi has norm sqrt(alpha''^2 + 4 alpha'^2)
        self.geodesic_residual = float(np.max(np.sqrt(d2[1:-1] ** 2 + 4.0 * d1[1:-1] ** 2)))
        self.chain = ref.chain(arrays["chain"][i])
        self.eigenvalues = np.linalg.eigvals(self.chain)


def check_curve(result: dict, cr: CurveReference) -> Verdict:
    v = Verdict()
    orth = orthogonal(cr.overlap)
    for name in ("report", "bargmann"):
        if result[name] == "indeterminate":
            v.require(f"{name}: indeterminate for a determinate overlap", orth is not False)
            v.typed_error = True
    if result["report"] != "indeterminate":
        pan, dyn, geo, vis = result["report"]
        v.require("report given for an orthogonal overlap", orth is not True)
        v.angle("report.pancharatnam", pan, cr.pancharatnam, ref.overlap_phase_tolerance(cr.overlap))
        v.angle("report.geometric = pancharatnam - dynamical", geo, ref.principal(pan - dyn), 1e-12)
        v.close("report.visibility", vis, min(1.0, abs(cr.overlap)), TOL)
        v.require("report.visibility outside [0, 1]", 0.0 <= vis <= 1.0)
        v.phase_error("report.geometric of a geodesic", ref.principal(geo), 0.0)
    if result["bargmann"] != "indeterminate":
        v.phase_error("bargmann_limit of a geodesic", ref.principal(result["bargmann"]), 0.0)
    v.close("parallel_lift end ray", abs(complex(np.vdot(result["lift_end"], cr.b))), 1.0, TOL)
    v.truncated("curve_length", result["length"], cr.s0)
    v.truncated("horizontality_residual", result["horizontality"], cr.horizontality)
    v.truncated("geodesic_residual", result["geodesic_residual"], cr.geodesic_residual)
    v.close("compose", float(np.max(np.abs(result["chain"] - cr.chain))), 0.0, TOL)
    v.require(f"chain eigenvalues off the reference by more than {TOL}",
              ref.eigenvalue_gap(result["eigenvalues"], cr.eigenvalues) <= TOL)
    for k, (value, vec) in enumerate(zip(result["eigenvalues"], result["eigenvectors"])):
        v.require(f"chain eigenvector {k}: residual above {TOL}",
                  float(np.linalg.norm(cr.chain @ vec - value * vec)) <= TOL
                  and abs(float(np.linalg.norm(vec)) - 1.0) <= TOL)
    return v
