"""JSON run-configuration parsing and validation.

Validation is strict: unknown keys are rejected and every error message is
anchored to the JSON pointer of the offending value. Complex entries are
written as plain numbers or two-element [re, im] arrays; every number must be
finite (Python's json reader accepts NaN and Infinity). Observable pairs are
resolved here into (O_X, O_Y, d_xy) triples, and an explicit pair whose
supports overlap is rejected at its pointer.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .harmonic import HarmonicModel
from .lattice import Lattice, build_lattice
from .lindblad import GKSLModel, HamiltonianTerm, LindbladTerm, TimeProfile
from .operators import (NAMED_OPERATORS, Operator, local_operator, named_operator,
                        support_distance)


class ConfigError(ValueError):
    """Invalid run configuration; carries the JSON pointer of the offense."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")


def _require_mapping(obj, pointer):
    if not isinstance(obj, dict):
        raise ConfigError(pointer, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj, pointer, required=(), optional=()):
    _require_mapping(obj, pointer)
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{pointer}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(pointer, f"missing required key {key!r}")
    return obj


def _number(value, pointer, minimum=None, strict_min=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(pointer, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(pointer, f"expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(pointer, f"must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(pointer, f"must be > {strict_min}, got {value}")
    return value


def _integer(value, pointer, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(pointer, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(pointer, f"must be >= {minimum}, got {value}")
    return value


def _complex_entry(value, pointer) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ConfigError(pointer, f"expected a number or [re, im] pair, got {value!r}")
    return complex(*(_number(v, pointer) for v in parts))


def _complex_matrix(rows, pointer) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ConfigError(pointer, "expected a nonempty nested array")
    width = None
    data = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigError(f"{pointer}/{i}", "expected an array row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(f"{pointer}/{i}", "ragged matrix rows")
        data.append([_complex_entry(v, f"{pointer}/{i}/{j}") for j, v in enumerate(row)])
    return np.array(data, dtype=complex)


def parse_lattice(section, pointer="/lattice") -> Lattice:
    _check_keys(section, pointer, required=("geometry", "metric"))
    geometry = _check_keys(section["geometry"], f"{pointer}/geometry",
                           required=("kind", "sides"))
    kind = geometry["kind"]
    if kind not in ("chain", "grid"):
        raise ConfigError(f"{pointer}/geometry/kind",
                          f"expected 'chain' or 'grid', got {kind!r}")
    sides = geometry["sides"]
    if not isinstance(sides, list) or not sides:
        raise ConfigError(f"{pointer}/geometry/sides", "expected a nonempty array")
    sides = [_integer(s, f"{pointer}/geometry/sides/{i}", minimum=1)
             for i, s in enumerate(sides)]
    if kind == "chain" and len(sides) != 1:
        raise ConfigError(f"{pointer}/geometry/sides", "a chain has exactly one side")
    metric = section["metric"]
    if metric not in ("graph", "manhattan", "euclidean"):
        raise ConfigError(f"{pointer}/metric", f"unknown metric {metric!r}")
    return build_lattice(sides, metric)


def _parse_profile(spec, pointer) -> TimeProfile:
    if spec is None:
        return TimeProfile()
    _require_mapping(spec, pointer)
    kind = spec.get("kind")
    if kind == "constant":
        _check_keys(spec, pointer, required=("kind",), optional=("value",))
        return TimeProfile(kind="constant",
                           amplitude=_number(spec.get("value", 1.0), f"{pointer}/value"))
    if kind == "sinusoidal":
        _check_keys(spec, pointer, required=("kind", "amplitude", "omega"),
                    optional=("phase",))
        return TimeProfile(
            kind="sinusoidal",
            amplitude=_number(spec["amplitude"], f"{pointer}/amplitude"),
            omega=_number(spec["omega"], f"{pointer}/omega"),
            phase=_number(spec.get("phase", 0.0), f"{pointer}/phase"),
        )
    raise ConfigError(f"{pointer}/kind", "expected 'constant' or 'sinusoidal'")


def _parse_operator_matrix(spec, n_sites: int, dim_per_site: int, pointer) -> np.ndarray:
    _require_mapping(spec, pointer)
    expected = dim_per_site**n_sites
    if "name" in spec:
        _check_keys(spec, pointer, required=("name",))
        if n_sites != 1 or dim_per_site != 2:
            raise ConfigError(pointer, "named operators are single-site qubit operators")
        if spec["name"] not in NAMED_OPERATORS:
            raise ConfigError(f"{pointer}/name",
                              f"unknown operator {spec['name']!r}")
        return named_operator(spec["name"])
    if "kron" in spec:
        _check_keys(spec, pointer, required=("kron",))
        factors = spec["kron"]
        if not isinstance(factors, list) or len(factors) != n_sites:
            raise ConfigError(f"{pointer}/kron",
                              f"expected {n_sites} tensor factors")
        out = np.eye(1, dtype=complex)
        for i, factor in enumerate(factors):
            fp = f"{pointer}/kron/{i}"
            if isinstance(factor, str):
                if dim_per_site != 2:
                    raise ConfigError(fp, "named factors are qubit operators")
                if factor not in NAMED_OPERATORS:
                    raise ConfigError(fp, f"unknown operator {factor!r}")
                mat = named_operator(factor)
            else:
                mat = _complex_matrix(factor, fp)
                if mat.shape != (dim_per_site, dim_per_site):
                    raise ConfigError(fp, f"factor must be {dim_per_site}x{dim_per_site}")
            out = np.kron(out, mat)
        return out
    if "matrix" in spec:
        _check_keys(spec, pointer, required=("matrix",))
        mat = _complex_matrix(spec["matrix"], f"{pointer}/matrix")
        if mat.shape != (expected, expected):
            raise ConfigError(f"{pointer}/matrix",
                              f"expected a {expected}x{expected} matrix, got {mat.shape}")
        return mat
    raise ConfigError(pointer, "expected one of 'name', 'kron', 'matrix'")


def _parse_sites(value, lattice: Lattice, pointer) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(pointer, "expected a nonempty array of site indices")
    sites = tuple(_integer(s, f"{pointer}/{i}", minimum=0) for i, s in enumerate(value))
    for i, s in enumerate(sites):
        if s >= lattice.n_sites:
            raise ConfigError(f"{pointer}/{i}",
                              f"site {s} does not exist (lattice has {lattice.n_sites})")
    if len(set(sites)) != len(sites):
        raise ConfigError(pointer, "sites must be distinct")
    return sites


def parse_spin_model(section, lattice: Lattice, pointer="/model") -> GKSLModel:
    _check_keys(section, pointer, required=("type",),
                optional=("dim_per_site", "hamiltonian", "lindblad"))
    dim = _integer(section.get("dim_per_site", 2), f"{pointer}/dim_per_site", minimum=2)
    h_terms = []
    for i, entry in enumerate(section.get("hamiltonian", [])):
        ep = f"{pointer}/hamiltonian/{i}"
        _check_keys(entry, ep, required=("sites", "operator"),
                    optional=("strength", "profile"))
        sites = _parse_sites(entry["sites"], lattice, f"{ep}/sites")
        mat = _parse_operator_matrix(entry["operator"], len(sites), dim, f"{ep}/operator")
        strength = _number(entry.get("strength", 1.0), f"{ep}/strength")
        profile = _parse_profile(entry.get("profile"), f"{ep}/profile")
        h_terms.append(HamiltonianTerm(support=sites, matrix=strength * mat,
                                       profile=profile))
    l_terms = []
    for i, entry in enumerate(section.get("lindblad", [])):
        ep = f"{pointer}/lindblad/{i}"
        _check_keys(entry, ep, required=("sites", "operator", "rate"),
                    optional=("profile",))
        sites = _parse_sites(entry["sites"], lattice, f"{ep}/sites")
        mat = _parse_operator_matrix(entry["operator"], len(sites), dim, f"{ep}/operator")
        rate = _number(entry["rate"], f"{ep}/rate", minimum=0.0)
        profile = _parse_profile(entry.get("profile"), f"{ep}/profile")
        l_terms.append(LindbladTerm(support=sites, matrix=mat, rate=rate,
                                    profile=profile))
    try:
        return GKSLModel(lattice=lattice, dim_per_site=dim,
                         hamiltonian_terms=tuple(h_terms),
                         lindblad_terms=tuple(l_terms))
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _parse_real_matrix_spec(spec, lattice: Lattice, pointer) -> np.ndarray:
    """Dense, banded, power-law or scaled-identity n x n real matrix."""
    _require_mapping(spec, pointer)
    n = lattice.n_sites
    if "dense" in spec:
        _check_keys(spec, pointer, required=("dense",))
        mat = _complex_matrix(spec["dense"], f"{pointer}/dense")
        if mat.shape != (n, n):
            raise ConfigError(f"{pointer}/dense", f"expected {n}x{n}")
        if np.abs(mat.imag).max() > 0:
            raise ConfigError(f"{pointer}/dense", "entries must be real")
        return mat.real
    if "banded" in spec:
        _check_keys(spec, pointer, required=("banded",))
        band = _check_keys(spec["banded"], f"{pointer}/banded",
                           required=("offsets", "values"))
        offsets = band["offsets"]
        values = band["values"]
        if (not isinstance(offsets, list) or not isinstance(values, list)
                or len(offsets) != len(values)):
            raise ConfigError(f"{pointer}/banded", "offsets and values must match")
        mat = np.zeros((n, n))
        idx = np.arange(n)
        gap = np.abs(idx[:, None] - idx[None, :])
        for i, (off, val) in enumerate(zip(offsets, values)):
            off = _integer(off, f"{pointer}/banded/offsets/{i}", minimum=0)
            val = _number(val, f"{pointer}/banded/values/{i}")
            mat[gap == off] = val
        return mat
    if "power_law" in spec:
        _check_keys(spec, pointer, required=("power_law",))
        pl = _check_keys(spec["power_law"], f"{pointer}/power_law",
                         required=("amplitude", "eta"))
        amp = _number(pl["amplitude"], f"{pointer}/power_law/amplitude")
        eta = _number(pl["eta"], f"{pointer}/power_law/eta", strict_min=0.0)
        return amp * (1.0 + lattice.dist) ** (-eta)
    if "identity" in spec:
        _check_keys(spec, pointer, required=("identity",))
        ident = _check_keys(spec["identity"], f"{pointer}/identity",
                            optional=("scale",))
        return _number(ident.get("scale", 1.0), f"{pointer}/identity/scale") * np.eye(n)
    raise ConfigError(pointer, "expected one of 'dense', 'banded', 'power_law', 'identity'")


def _parse_lindblad_coefficients(spec, lattice: Lattice, pointer) -> np.ndarray:
    """n x 2n complex Lindblad coefficient matrix (dense, local damping, or zero)."""
    _require_mapping(spec, pointer)
    n = lattice.n_sites
    if "dense" in spec:
        _check_keys(spec, pointer, required=("dense",))
        mat = _complex_matrix(spec["dense"], f"{pointer}/dense")
        if mat.shape != (n, 2 * n):
            raise ConfigError(f"{pointer}/dense", f"expected {n}x{2 * n}")
        return mat
    if "local_damping" in spec:
        _check_keys(spec, pointer, required=("local_damping",))
        damp = _check_keys(spec["local_damping"], f"{pointer}/local_damping",
                           required=("rate",))
        rate = _number(damp["rate"], f"{pointer}/local_damping/rate", minimum=0.0)
        # L_v = sqrt(rate) a_v with a_v = (Q_v + i P_v) / sqrt(2)
        amp = np.sqrt(rate / 2.0)
        mat = np.zeros((n, 2 * n), dtype=complex)
        mat[:, :n] = amp * np.eye(n)
        mat[:, n:] = 1.0j * amp * np.eye(n)
        return mat
    if "zero" in spec:
        _check_keys(spec, pointer, required=("zero",))
        return np.zeros((n, 2 * n), dtype=complex)
    raise ConfigError(pointer, "expected one of 'dense', 'local_damping', 'zero'")


def parse_harmonic_model(section, lattice: Lattice, pointer="/model") -> HarmonicModel:
    _check_keys(section, pointer, required=("type", "a", "b", "m"))
    a = _parse_real_matrix_spec(section["a"], lattice, f"{pointer}/a")
    b = _parse_real_matrix_spec(section["b"], lattice, f"{pointer}/b")
    m = _parse_lindblad_coefficients(section["m"], lattice, f"{pointer}/m")
    try:
        return HarmonicModel(lattice=lattice, a=a, b=b, m=m)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _check_phases(model: GKSLModel, t: float) -> None:
    """Refuse a sinusoidal profile whose phase omega * t + phase is not finite.

    Every time of the run lies in [0, t], so its phase then stays finite too.
    """
    for section, terms in (("hamiltonian", model.hamiltonian_terms),
                           ("lindblad", model.lindblad_terms)):
        for i, term in enumerate(terms):
            profile = term.profile
            if not math.isfinite(profile.omega * t + profile.phase):
                raise ConfigError(
                    f"/model/{section}/{i}/profile/omega",
                    f"the phase omega * t + phase leaves the float range at t = {t!r};"
                    " lower omega or t")


@dataclass
class TimeGrid:
    t: float
    points: int
    kind: str  # "r" for spin backward grids, "dt" for harmonic forward grids

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t, self.points)


@dataclass
class RunConfig:
    """Validated run configuration."""

    lattice: Lattice
    eta: float
    spin_model: GKSLModel | None = None
    harmonic_model: HarmonicModel | None = None
    time: TimeGrid | None = None
    # (O_X, O_Y, d(X, Y)) per observable pair, with disjoint supports
    pairs: list[tuple[Operator, Operator, float]] = field(default_factory=list)
    epsilon: float = 1e-2


_TOP_KEYS = ("lattice", "eta", "model", "time", "observables", "pairs",
             "thresholds")


def parse_config(data) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig."""
    _check_keys(data, "", required=("lattice", "eta"),
                optional=tuple(k for k in _TOP_KEYS if k not in ("lattice", "eta")))
    lattice = parse_lattice(data["lattice"])
    eta = _number(data["eta"], "/eta", strict_min=0.0)

    spin_model = None
    harmonic_model = None
    if "model" in data:
        model_section = _require_mapping(data["model"], "/model")
        model_type = model_section.get("type")
        if model_type == "spin":
            spin_model = parse_spin_model(model_section, lattice)
        elif model_type == "harmonic":
            harmonic_model = parse_harmonic_model(model_section, lattice)
        else:
            raise ConfigError("/model/type", "expected 'spin' or 'harmonic'")

    time_grid = None
    if "time" in data:
        section = _check_keys(data["time"], "/time", required=("t",),
                              optional=("r_points", "dt_points"))
        t = _number(section["t"], "/time/t", strict_min=0.0)
        if ("r_points" in section) == ("dt_points" in section):
            raise ConfigError("/time", "specify exactly one of r_points, dt_points")
        if "r_points" in section:
            time_grid = TimeGrid(t=t, points=_integer(section["r_points"],
                                                      "/time/r_points", minimum=2),
                                 kind="r")
        else:
            time_grid = TimeGrid(t=t, points=_integer(section["dt_points"],
                                                      "/time/dt_points", minimum=2),
                                 kind="dt")

    if spin_model is not None and time_grid is not None:
        _check_phases(spin_model, time_grid.t)

    observables: dict[str, Operator] = {}
    for i, entry in enumerate(data.get("observables", [])):
        ep = f"/observables/{i}"
        _check_keys(entry, ep, required=("name", "sites", "operator"))
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{ep}/name", "expected a nonempty string")
        if name in observables:
            raise ConfigError(f"{ep}/name", f"duplicate observable name {name!r}")
        sites = _parse_sites(entry["sites"], lattice, f"{ep}/sites")
        dim = spin_model.dim_per_site if spin_model is not None else 2
        mat = _parse_operator_matrix(entry["operator"], len(sites), dim, f"{ep}/operator")
        observables[name] = local_operator(mat, sites, dim)

    def disjoint(ox: Operator, oy: Operator) -> bool:
        return not set(ox.support) & set(oy.support)

    pairs_spec = data.get("pairs", "all_disjoint" if observables else [])
    if pairs_spec == "all_disjoint":
        pairs = [(ox, oy) for ox, oy in itertools.combinations(observables.values(), 2)
                 if disjoint(ox, oy)]
    elif isinstance(pairs_spec, list):
        pairs = []
        for i, entry in enumerate(pairs_spec):
            ep = f"/pairs/{i}"
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(e, str) for e in entry)):
                raise ConfigError(ep, "expected a [x_name, y_name] pair")
            for name in entry:
                if name not in observables:
                    raise ConfigError(ep, f"unknown observable {name!r}")
            pair = observables[entry[0]], observables[entry[1]]
            if not disjoint(*pair):
                raise ConfigError(ep, f"{entry[0]!r} and {entry[1]!r} have overlapping"
                                  " supports; the bounds require disjoint supports")
            pairs.append(pair)
    else:
        raise ConfigError("/pairs", "expected 'all_disjoint' or an array of pairs")

    epsilon = 1e-2
    if "thresholds" in data:
        section = _check_keys(data["thresholds"], "/thresholds", optional=("epsilon",))
        if "epsilon" in section:
            epsilon = _number(section["epsilon"], "/thresholds/epsilon", strict_min=0.0)

    return RunConfig(lattice=lattice, eta=eta, spin_model=spin_model,
                     harmonic_model=harmonic_model, time=time_grid,
                     pairs=[(ox, oy, support_distance(ox.support, oy.support, lattice))
                            for ox, oy in pairs],
                     epsilon=epsilon)


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration from disk."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno} column {exc.colno}", exc.msg) from exc
    return parse_config(data)
