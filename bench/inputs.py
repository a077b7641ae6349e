"""Seeded input generation for the three workloads.

Every deck is a pure function of (workload, seed) and is split into
``SLICES`` slices of fixed composition, one per worker process, so each
worker times the same mix of operation kinds whatever the seed.  Hard
inputs are kept on purpose: a fixed share of inputs is orthogonal or nearly
orthogonal so the typed-error paths run, and every plate configuration
holds one thick plate (up to ``THICK`` rad) among thin ones, so the
delta^3 / n^2 quadrature error of the numeric dynamical phase shows.

That error is largest for a state on the generator's +2 eigenvector going
through the thickest plate.  Each slice of the cli-cold and sweep-dense
decks starts with such a probe, so ``phase_err_max_rad`` reports this
worst case on every seed instead of whatever a seed happens to reach.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref

#: Worker processes per run; each owns one slice of the deck.
SLICES = 3
#: Thickest plate in any deck, in radians.
THICK = 30.0
#: Points per sweep-dense operation.
DENSE_POINTS = 12
#: Samples per general curve in curve-geometry.
CURVE_SAMPLES = 2001
#: Plates in the composite chain of a curve-geometry operation.
CHAIN_PLATES = 16
#: Gauge angle alpha(s) = sin(GAUGE_WAVES pi s / s0 + phase) on a geodesic of length s0.
GAUGE_WAVES = 3

OUTPUT_KINDS = ("phases", "eigen", "geodesic-check", "interference", "jump")


def random_state(rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    return raw / np.linalg.norm(raw)


def _two_level_state(rng: np.random.Generator) -> np.ndarray:
    psi = random_state(rng)
    psi[1 + int(rng.integers(2))] = 0.0
    return psi / np.linalg.norm(psi)


def _state_json(psi: np.ndarray, basis: str) -> dict:
    amps = ref.FOCK_TO_PMZ.T @ psi if basis == "fock" else psi
    return {"basis": basis, "amplitudes": [[float(z.real), float(z.imag)] for z in amps]}


def _plates(rng: np.random.Generator, count: int, thick: bool) -> list[tuple[float, float]]:
    """Plates with thickness up to 3 rad; one plate up to ``THICK`` when thick."""
    plates = [(float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.0, math.pi))) for _ in range(count)]
    if thick:
        k = int(rng.integers(count))
        plates[k] = (float(rng.uniform(0.5, 1.0) * THICK), plates[k][1])
    return plates


def _plates_json(plates, degrees: bool) -> list[dict]:
    scale = 180.0 / math.pi if degrees else 1.0
    return [{"delta": d * scale, "chi": c * scale} for d, c in plates]


def _probe(rng: np.random.Generator, count: int) -> tuple[list, np.ndarray]:
    """Thin plates behind a first plate of thickness THICK, entered on its +2 eigenvector."""
    plates = _plates(rng, count, thick=False)
    chi = plates[0][1]
    plates[0] = (THICK, chi)
    c, s = math.cos(2.0 * chi), math.sin(2.0 * chi)
    return plates, np.array([1.0, c, s], dtype=complex) / math.sqrt(2.0)


def _with_overlap(rng, plates_fn, target: complex) -> tuple[list, np.ndarray]:
    """Plates and an input state whose overall overlap <psi|U psi> equals target."""
    while True:
        plates = plates_fn()
        psi = ref.orthogonal_state(ref.chain(plates), target, rng)
        if psi is not None:
            return plates, psi


def _near_target(rng: np.random.Generator) -> complex:
    return 10.0 ** rng.uniform(-8.0, -6.0) * np.exp(2j * math.pi * rng.random())


# --------------------------------------------------------------------- cli-cold


def _cli_run(rng, j: int, mode: str, fmt: str, degrees: bool) -> dict:
    count = 1 + j % 4
    must = OUTPUT_KINDS[j % len(OUTPUT_KINDS)]
    if mode != "plain" and must == "jump":
        must = "phases"
    others = [k for k in OUTPUT_KINDS if k != must and (mode == "plain" or k != "jump")]
    picked = {must, *rng.choice(others, size=int(rng.integers(1, len(others) + 1)), replace=False)}
    if mode != "plain":
        picked.add("phases")
    outputs = [k for k in OUTPUT_KINDS if k in picked]
    if mode == "probe":
        plates, psi = _probe(rng, count)
    elif mode == "plain":
        plates = _plates(rng, count, thick=True)
        psi = _two_level_state(rng) if "jump" in outputs else random_state(rng)
    else:
        target = 0.0 if mode == "orthogonal" else _near_target(rng)
        plates, psi = _with_overlap(rng, lambda: _plates(rng, count, thick=True), target)
    config = {
        "input_state": _state_json(psi, "fock" if j % 2 else "pmz"),
        "plates": _plates_json(plates, degrees),
        "outputs": outputs,
        "interference_phi": float(rng.uniform(-math.pi, math.pi)),
    }
    if degrees:
        config["degrees"] = True
        config["interference_phi"] *= 180.0 / math.pi
    if "jump" in outputs:
        config["jump_epsilon"] = float(10.0 ** rng.uniform(-4.0, -1.5))
    return {"command": "run", "format": fmt, "config": config}


def _cli_sweep(rng, j: int, fmt: str, degrees: bool) -> dict:
    count = 1 + j % 4
    parameter = ("delta", "chi", "s")[j % 3]
    outputs = ["phases", *rng.choice(["eigen", "geodesic-check", "interference"], size=2, replace=False)]
    jump = j % 2 == 0 and parameter != "chi"
    if jump:
        outputs.append("jump")
    psi = _two_level_state(rng) if jump else random_state(rng)
    index = int(rng.integers(count))
    plates = _plates(rng, count, thick=False)
    if parameter == "chi":
        plates[index] = (float(rng.uniform(0.5, 1.0) * THICK), plates[index][1])
        start, stop = 0.0, float(rng.uniform(0.5, 1.0) * math.pi)
    else:
        start, stop = 0.0, float(rng.uniform(0.5, 1.0) * THICK)
        if parameter == "s":
            stop *= 2.0
    scale = 180.0 / math.pi if degrees else 1.0
    config = {
        "input_state": _state_json(psi, "pmz"),
        "plates": _plates_json(plates, degrees),
        "outputs": [k for k in OUTPUT_KINDS if k in outputs],
        "sweep": {
            "parameter": parameter,
            "start": start * scale,
            "stop": stop * scale,
            "count": int(rng.integers(2, 9)),
            "plate_index": index,
        },
    }
    if degrees:
        config["degrees"] = True
    return {"command": "sweep", "format": fmt, "config": config}


def _cli_eigen(rng, j: int, fmt: str, degrees: bool) -> dict:
    count = 1 + (j + 1) % 4
    plates = _plates(rng, count, thick=True)
    # one plate on a degenerate spectrum: quarter-wave or half-wave
    k = int(rng.integers(count))
    plates[k] = ((math.pi / 4.0, math.pi / 2.0)[j % 2], plates[k][1])
    config = {"plates": _plates_json(plates, degrees)}
    if degrees:
        config["degrees"] = True
    return {"command": "eigen", "format": fmt, "config": config}


def _cli_geodesic(rng, j: int, fmt: str) -> dict:
    if j % 3 == 2:
        plates = _plates(rng, 1 + j % 3, thick=True)
        config = {"input_state": _state_json(random_state(rng), "pmz"), "plates": _plates_json(plates, False)}
    else:
        a = random_state(rng)
        b = random_state(rng)
        if j % 3 == 1:  # orthogonal endpoints: the quarter-circle geodesic
            b = b - np.vdot(a, b) * a
            b /= np.linalg.norm(b)
        config = {"geodesic": {"from": _state_json(a, "pmz"), "to": _state_json(b, "fock")}}
    return {"command": "geodesic", "format": fmt, "config": config}


def _cli_vertex(rng, j: int, fmt: str) -> dict:
    states = [random_state(rng) for _ in range(3 + j % 4)]
    if j % 3 == 1:  # an orthogonal consecutive pair: a typed error
        a, b = states[0], states[1]
        b = b - np.vdot(a, b) * a
        states[1] = b / np.linalg.norm(b)
    return {"command": "vertex", "format": fmt, "config": {"states": [_state_json(s, "pmz") for s in states]}}


CLI_SLICE = ("run", "run", "run", "run", "sweep", "sweep", "eigen", "geodesic", "vertex")
RUN_MODES = ("probe", "plain", "orthogonal", "near")


def cli_deck(seed: int) -> list[dict]:
    """Configs for cli-cold: every subcommand, output kind and format."""
    rng = np.random.default_rng([seed, 1])
    deck = []
    seen = {command: 0 for command in CLI_SLICE}
    for _ in range(SLICES):
        items = []
        for command in CLI_SLICE:
            j = seen[command]  # how many of this command came before
            seen[command] += 1
            fmt = "csv" if rng.random() < 1.0 / 3.0 else "json"
            degrees = bool(rng.random() < 1.0 / 3.0)
            if command == "run":
                items.append(_cli_run(rng, j, RUN_MODES[j % len(RUN_MODES)], fmt, degrees))
            elif command == "sweep":
                items.append(_cli_sweep(rng, j, fmt, degrees))
            elif command == "eigen":
                items.append(_cli_eigen(rng, j, fmt, degrees))
            elif command == "geodesic":
                items.append(_cli_geodesic(rng, j, fmt))
            else:
                items.append(_cli_vertex(rng, j, fmt))
        deck.append(items[0])  # the probe runs first, however short the run
        deck.extend(items[1 + k] for k in rng.permutation(len(items) - 1))
    return deck


# ------------------------------------------------------------------ sweep-dense

#: Configs per slice; the position in the slice fixes plate count, swept
#: parameter, geodesic-check and overlap mode, so every slice has the same mix.
#: Costs form three groups: 6 three-plate, 4 four-plate and 6 four-plate
#: configs with geodesic-check, so p50, p75 and p90 fall inside a group
#: rather than on the edge between two.
DENSE_SLICE = 16


def _dense_config(rng, position: int) -> dict:
    count = 3 if position % 2 == 0 and position < 12 else 4
    parameter = "chi" if position % 3 == 2 else "delta"
    outputs = ["phases", "eigen", "interference"]
    if position in (1, 3, 5, 9, 11, 13):
        outputs.insert(2, "geodesic-check")
    mode = {0: "probe", 5: "orthogonal", 13: "orthogonal", 6: "near", 14: "near"}.get(position, "plain")
    index = 0 if mode == "probe" else int(rng.integers(count))
    if parameter == "delta":
        start = float(rng.uniform(0.0, 1.0))
        stop = THICK if mode == "probe" else float(rng.uniform(5.0, THICK))
    else:
        start, stop = 0.0, math.pi
    values = np.linspace(start, stop, DENSE_POINTS)

    def draw():
        plates = _plates(rng, count, thick=False)
        last = float(values[-1])
        if parameter == "delta":
            plates[index] = (last, plates[index][1])
        else:
            plates[index] = (float(rng.uniform(0.5, 1.0) * THICK), last)
        return plates

    if mode == "probe":
        plates, psi = _probe(rng, count)
    elif mode == "plain":
        plates, psi = draw(), random_state(rng)
    else:
        target = 0.0 if mode == "orthogonal" else _near_target(rng)
        plates, psi = _with_overlap(rng, draw, target)
    return {
        "command": "sweep",
        "format": "json",
        "config": {
            "input_state": _state_json(psi, "pmz"),
            "plates": _plates_json(plates, False),
            "outputs": outputs,
            "sweep": {"parameter": parameter, "start": start, "stop": stop,
                      "count": DENSE_POINTS, "plate_index": index},
        },
    }


def dense_deck(seed: int) -> list[dict]:
    """Configs for sweep-dense: 3-4 plates, one of them thick, swept on 12 points."""
    rng = np.random.default_rng([seed, 2])
    deck = []
    for _ in range(SLICES):
        items = [_dense_config(rng, position) for position in range(DENSE_SLICE)]
        deck.append(items[0])
        deck.extend(items[1 + k] for k in rng.permutation(len(items) - 1))
    return deck


# --------------------------------------------------------------- curve-geometry

CURVE_SLICE = 16


def curve_deck(seed: int) -> dict[str, np.ndarray]:
    """Arrays for curve-geometry: endpoint pairs, gauge angles and plate chains.

    The gauge angle of item i is alpha(s) = sin(GAUGE_WAVES pi s / s0 + phase_i)
    sampled on the item's geodesic grid s = linspace(0, s0, CURVE_SAMPLES)
    with s0 = arccos|<a|b>|.  Its quadrature error depends on the phase
    alone, so the largest over 48 seeded phases sits close to the worst
    case on every seed.  Two items per slice have orthogonal endpoints and
    two nearly orthogonal ones.
    """
    rng = np.random.default_rng([seed, 3])
    total = SLICES * CURVE_SLICE
    a = np.empty((total, 3), dtype=complex)
    b = np.empty((total, 3), dtype=complex)
    for i in range(total):
        a[i] = random_state(rng)
        b[i] = random_state(rng)
        position = i % CURVE_SLICE
        if position in (3, 11, 7, 15):
            perp = b[i] - np.vdot(a[i], b[i]) * a[i]
            perp /= np.linalg.norm(perp)
            weight = 0.0 if position in (3, 11) else 10.0 ** rng.uniform(-8.0, -6.0)
            b[i] = weight * np.exp(2j * math.pi * rng.random()) * a[i] + math.sqrt(1.0 - weight**2) * perp
    phases = rng.uniform(0.0, 2.0 * math.pi, size=total)
    chain = np.stack([rng.uniform(0.05, 3.0, size=(total, CHAIN_PLATES)),
                      rng.uniform(0.0, math.pi, size=(total, CHAIN_PLATES))], axis=-1)
    alpha = np.stack([gauge_angle(phases[i], arc_length(a[i], b[i]))[0] for i in range(total)])
    return {"a": a, "b": b, "gauge_phase": phases, "alpha": alpha, "chain": chain}


def arc_length(a: np.ndarray, b: np.ndarray) -> float:
    return math.acos(min(1.0, abs(complex(np.vdot(a, b)))))


def gauge_angle(phase: float, s0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, alpha' and alpha'' on the grid linspace(0, s0, CURVE_SAMPLES)."""
    s = np.linspace(0.0, s0, CURVE_SAMPLES)
    k = GAUGE_WAVES * math.pi / s0
    return np.sin(k * s + phase), k * np.cos(k * s + phase), -k * k * np.sin(k * s + phase)


# ------------------------------------------------------------------------ files


def write_deck(workload: str, seed: int, directory: str) -> list:
    """Generate a workload's inputs, write them under ``directory`` and return the deck.

    cli-cold and sweep-dense give one config file per item; curve-geometry
    gives one ``.npz`` of arrays.  Deck items carry the path the program
    under test reads.
    """
    os.makedirs(directory, exist_ok=True)
    if workload == "curve-geometry":
        arrays = curve_deck(seed)
        path = os.path.join(directory, "curves.npz")
        np.savez(path, **arrays)
        return [{"path": path, "index": i} for i in range(len(arrays["a"]))]
    deck = cli_deck(seed) if workload == "cli-cold" else dense_deck(seed)
    for i, item in enumerate(deck):
        item["path"] = os.path.join(directory, f"config-{i:02d}.json")
        with open(item["path"], "w", encoding="utf-8") as handle:
            json.dump(item["config"], handle, indent=1)
    return deck
