"""Seeded inputs for the four benchmark workloads.

Each workload is one ``liebrob`` command on one generated JSON config. The
seed only jitters physical parameters by a few percent (coupling strengths,
rates, profile phases); lattice sizes and time grids are fixed, so the work a
run does, and the exponential counts the traced run reports, do not depend on
the seed. RATIONALE.md records why each workload was chosen.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# Relative jitter of every seeded strength or rate.
JITTER = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # liebrob sub-command
    expected_exit: int
    build: Callable[[random.Random], dict]


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _chain(sites: int) -> dict:
    return {"geometry": {"kind": "chain", "sides": [sites]}, "metric": "graph"}


def _spin_chain(rng: random.Random, sites: int, profile=None) -> dict:
    """All-pairs XY chain with 1/d^2 couplings and on-site dephasing at rate 0.5.

    ``profile(rng)``, if given, draws each term's time profile.
    """

    def term(entry):
        if profile is not None:
            entry["profile"] = profile(rng)
        return entry

    hamiltonian = []
    for x, y in itertools.combinations(range(sites), 2):
        strength = _jitter(rng, 1.0 / (y - x) ** 2)
        for pauli in ("pauli_x", "pauli_y"):
            hamiltonian.append(term({
                "sites": [x, y],
                "operator": {"kron": [pauli, pauli]},
                "strength": strength,
            }))
    lindblad = [
        term({"sites": [x], "operator": {"name": "pauli_z"}, "rate": _jitter(rng, 0.5)})
        for x in range(sites)
    ]
    return {
        "lattice": _chain(sites),
        "eta": 2.0,
        "model": {"type": "spin", "dim_per_site": 2,
                  "hamiltonian": hamiltonian, "lindblad": lindblad},
        "time": {"t": 2.0, "r_points": 21},
        "observables": [
            {"name": f"Z{x}", "sites": [x], "operator": {"name": "pauli_z"}}
            for x in range(sites)
        ],
        "pairs": "all_disjoint",
        "thresholds": {"epsilon": 0.01},
    }


def _sinusoidal_profile(rng):
    return {"kind": "sinusoidal", "amplitude": 1.0, "omega": 3.0,
            "phase": rng.uniform(0.0, 2.0 * math.pi)}


def spin_static5(rng: random.Random) -> dict:
    """The reference 5-qubit XY chain with dephasing (21-point grid, 10 pairs)."""
    return _spin_chain(rng, 5)


def spin_driven4(rng: random.Random) -> dict:
    """A 4-qubit XY chain whose couplings and dephasing rates oscillate in time."""
    return _spin_chain(rng, 4, _sinusoidal_profile)


def _harmonic(rng: random.Random, lattice: dict, m: dict) -> dict:
    return {
        "lattice": lattice,
        "eta": 3.0,
        "model": {
            "type": "harmonic",
            "a": {"power_law": {"amplitude": _jitter(rng, 1.0), "eta": 3.0}},
            "b": {"identity": {"scale": _jitter(rng, 1.0)}},
            "m": m,
        },
        "time": {"t": 2.0, "dt_points": 21},
        "thresholds": {"epsilon": 0.01},
    }


def harmonic_chain300(rng: random.Random) -> dict:
    """A 300-site open chain: power-law A, unit B, local damping on every site."""
    return _harmonic(rng, _chain(300),
                     {"local_damping": {"rate": _jitter(rng, 0.1)}})


def harmonic_grid16_closed(rng: random.Random) -> dict:
    """A closed 16x16 grid (M = 0), the only workload with a symplectic check."""
    lattice = {"geometry": {"kind": "grid", "sides": [16, 16]}, "metric": "graph"}
    return _harmonic(rng, lattice, {"zero": {}})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spin_static5", "verify-spin", 0, spin_static5),
        Workload("spin_driven4", "verify-spin", 0, spin_driven4),
        Workload("harmonic_chain300", "verify-harmonic", 0, harmonic_chain300),
        Workload("harmonic_grid16_closed", "verify-harmonic", 0, harmonic_grid16_closed),
    )
}


def generate(name: str, seed: int) -> dict:
    """The config of workload ``name`` for ``seed``; equal seeds give equal configs."""
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"))


def config_text(config: dict) -> str:
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def write_configs(out_dir: Path, seed: int) -> dict[str, Path]:
    """Write all four configs for ``seed`` into ``out_dir``; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in WORKLOADS:
        path = out_dir / f"{name}.json"
        path.write_text(config_text(generate(name, seed)))
        paths[name] = path
    return paths
