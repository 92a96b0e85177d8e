"""JSON run-configuration parsing and validation.

Validation is strict: unknown keys are rejected and every error message is
anchored to the JSON pointer of the offending value. Complex entries are
written as plain numbers or two-element [re, im] arrays; every number must be
finite (Python's json reader accepts NaN and Infinity). A spec with variants
(an operator, a real matrix, Lindblad coefficients) names exactly one of them.
One reader takes Hamiltonian and Lindblad terms alike and refuses a term whose
generator, or whose profile's phase over the run's [0, t], leaves the float
range; an observable whose operator leaves it is refused the same way.
Observable pairs are resolved here into (O_X, O_Y, d_xy) triples, and an
explicit pair whose supports overlap is rejected at its pointer. A pair whose
2 D ||O_X|| ||O_Y||, with D the spin model's Hilbert dimension (1 without
one), leaves the float range is refused at its pointer, or at /pairs under
all_disjoint.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .harmonic import HarmonicModel
from .lattice import METRICS, Lattice, build_lattice
from .lindblad import GKSLModel, HamiltonianTerm, LindbladTerm, TimeProfile
from .operators import (NAMED_OPERATORS, Operator, local_operator, named_operator,
                        operator_norm, support_distance)


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


def _variant(spec, pointer, names) -> str:
    """The first key of ``names`` in the object ``spec``; any other key is unknown."""
    _require_mapping(spec, pointer)
    for name in names:
        if name in spec:
            _check_keys(spec, pointer, required=(name,))
            return name
    raise ConfigError(pointer, "expected one of " + ", ".join(map(repr, names)))


def parse_lattice(section) -> Lattice:
    _check_keys(section, "/lattice", required=("geometry", "metric"))
    geometry = _check_keys(section["geometry"], "/lattice/geometry",
                           required=("kind", "sides"))
    kind = geometry["kind"]
    if kind not in ("chain", "grid"):
        raise ConfigError("/lattice/geometry/kind",
                          f"expected 'chain' or 'grid', got {kind!r}")
    sides = geometry["sides"]
    if not isinstance(sides, list) or not sides:
        raise ConfigError("/lattice/geometry/sides", "expected a nonempty array")
    sides = [_integer(s, f"/lattice/geometry/sides/{i}", minimum=1)
             for i, s in enumerate(sides)]
    if kind == "chain" and len(sides) != 1:
        raise ConfigError("/lattice/geometry/sides", "a chain has exactly one side")
    metric = section["metric"]
    if metric not in METRICS:
        raise ConfigError("/lattice/metric", f"unknown metric {metric!r}")
    return build_lattice(sides, metric)


def _parse_profile(spec, t: float, pointer) -> TimeProfile:
    """A time profile whose phase omega * t + phase, so at every run time, is finite."""
    if spec is None:
        return TimeProfile()
    _require_mapping(spec, pointer)
    kind = spec.get("kind")
    if kind == "constant":
        _check_keys(spec, pointer, required=("kind",), optional=("value",))
        return TimeProfile(amplitude=_number(spec.get("value", 1.0), f"{pointer}/value"))
    if kind != "sinusoidal":
        raise ConfigError(f"{pointer}/kind", "expected 'constant' or 'sinusoidal'")
    _check_keys(spec, pointer, required=("kind", "amplitude", "omega"), optional=("phase",))
    profile = TimeProfile(
        amplitude=_number(spec["amplitude"], f"{pointer}/amplitude"),
        omega=_number(spec["omega"], f"{pointer}/omega"),
        phase=_number(spec.get("phase", 0.0), f"{pointer}/phase"),
    )
    if not math.isfinite(profile.omega * t + profile.phase):
        raise ConfigError(f"{pointer}/omega", "the phase omega * t + phase leaves the float"
                                              f" range at t = {t!r}; lower omega or t")
    return profile


def _named_factor(name, qubit: bool, rule: str, pointer, name_pointer) -> np.ndarray:
    """The named qubit operator ``name``; ``rule`` is the error where ``qubit`` fails."""
    if not qubit:
        raise ConfigError(pointer, rule)
    if not isinstance(name, str) or name not in NAMED_OPERATORS:
        raise ConfigError(name_pointer, f"unknown operator {name!r}")
    return named_operator(name)


def _parse_operator_matrix(spec, n_sites: int, dim_per_site: int, pointer) -> np.ndarray:
    """A name (a one-factor qubit kron), a kron of factors, or a full matrix."""
    key = _variant(spec, pointer, ("name", "kron", "matrix"))
    if key == "name":
        return _named_factor(spec["name"], n_sites == 1 and dim_per_site == 2,
                             "named operators are single-site qubit operators",
                             pointer, f"{pointer}/name")
    if key == "matrix":
        expected = dim_per_site**n_sites
        mat = _complex_matrix(spec["matrix"], f"{pointer}/matrix")
        if mat.shape != (expected, expected):
            raise ConfigError(f"{pointer}/matrix",
                              f"expected a {expected}x{expected} matrix, got {mat.shape}")
        return mat
    factors = spec["kron"]
    if not isinstance(factors, list) or len(factors) != n_sites:
        raise ConfigError(f"{pointer}/kron", f"expected {n_sites} tensor factors")
    out = np.eye(1, dtype=complex)
    for i, factor in enumerate(factors):
        fp = f"{pointer}/kron/{i}"
        if isinstance(factor, str):
            mat = _named_factor(factor, dim_per_site == 2,
                                "named factors are qubit operators", fp, fp)
        else:
            mat = _complex_matrix(factor, fp)
            if mat.shape != (dim_per_site, dim_per_site):
                raise ConfigError(fp, f"factor must be {dim_per_site}x{dim_per_site}")
        out = np.kron(out, mat)
    return out


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


def _parse_term(entry, lindblad: bool, lattice: Lattice, dim: int, t: float,
                pointer) -> HamiltonianTerm | LindbladTerm:
    """One Hamiltonian term (optional ``strength``) or Lindblad term (``rate``).

    A term whose generator, strength * H or rate * L^dag L, leaves the float
    range is refused at ``pointer``.
    """
    if lindblad:
        scale = "rate"
        _check_keys(entry, pointer, required=("sites", "operator", "rate"),
                    optional=("profile",))
    else:
        scale = "strength"
        _check_keys(entry, pointer, required=("sites", "operator"),
                    optional=("strength", "profile"))
    sites = _parse_sites(entry["sites"], lattice, f"{pointer}/sites")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term is refused below
        mat = _parse_operator_matrix(entry["operator"], len(sites), dim,
                                     f"{pointer}/operator")
        value = _number(entry.get(scale, 1.0), f"{pointer}/{scale}",
                        minimum=0.0 if lindblad else None)
        generator = value * (mat.conj().T @ mat if lindblad else mat)
    profile = _parse_profile(entry.get("profile"), t, f"{pointer}/profile")
    if not np.isfinite(generator).all():
        raise ConfigError(pointer, "the term's generator leaves the float range;"
                                   f" lower its {scale} or its operator's entries")
    if lindblad:
        return LindbladTerm(support=sites, matrix=mat, rate=value, profile=profile)
    return HamiltonianTerm(support=sites, matrix=generator, profile=profile)


def parse_spin_model(section, lattice: Lattice, t: float) -> GKSLModel:
    """The spin model; ``t`` is the run's last time, for the profiles' phases."""
    _check_keys(section, "/model", required=("type",),
                optional=("dim_per_site", "hamiltonian", "lindblad"))
    dim = _integer(section.get("dim_per_site", 2), "/model/dim_per_site", minimum=2)
    terms = {name: tuple(_parse_term(entry, name == "lindblad", lattice, dim, t,
                                     f"/model/{name}/{i}")
                         for i, entry in enumerate(section.get(name, [])))
             for name in ("hamiltonian", "lindblad")}
    try:
        return GKSLModel(lattice=lattice, dim_per_site=dim,
                         hamiltonian_terms=terms["hamiltonian"],
                         lindblad_terms=terms["lindblad"])
    except ValueError as exc:
        raise ConfigError("/model", str(exc)) from exc


def _parse_real_matrix_spec(spec, lattice: Lattice, pointer) -> np.ndarray:
    """Dense, banded, power-law or scaled-identity n x n real matrix."""
    key = _variant(spec, pointer, ("dense", "banded", "power_law", "identity"))
    n = lattice.n_sites
    if key == "dense":
        mat = _complex_matrix(spec["dense"], f"{pointer}/dense")
        if mat.shape != (n, n):
            raise ConfigError(f"{pointer}/dense", f"expected {n}x{n}")
        if np.abs(mat.imag).max() > 0:
            raise ConfigError(f"{pointer}/dense", "entries must be real")
        return mat.real
    if key == "banded":
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
            if off in offsets[:i]:
                raise ConfigError(f"{pointer}/banded/offsets/{i}",
                                  f"offset {off} is already listed")
            val = _number(val, f"{pointer}/banded/values/{i}")
            mat[gap == off] = val
        return mat
    if key == "power_law":
        pl = _check_keys(spec["power_law"], f"{pointer}/power_law",
                         required=("amplitude", "eta"))
        amp = _number(pl["amplitude"], f"{pointer}/power_law/amplitude")
        eta = _number(pl["eta"], f"{pointer}/power_law/eta", strict_min=0.0)
        return amp * (1.0 + lattice.dist) ** (-eta)
    ident = _check_keys(spec["identity"], f"{pointer}/identity", optional=("scale",))
    return _number(ident.get("scale", 1.0), f"{pointer}/identity/scale") * np.eye(n)


def _parse_lindblad_coefficients(spec, lattice: Lattice, pointer) -> np.ndarray:
    """n x 2n complex Lindblad coefficient matrix (dense, local damping, or zero)."""
    key = _variant(spec, pointer, ("dense", "local_damping", "zero"))
    n = lattice.n_sites
    if key == "dense":
        mat = _complex_matrix(spec["dense"], f"{pointer}/dense")
        if mat.shape != (n, 2 * n):
            raise ConfigError(f"{pointer}/dense", f"expected {n}x{2 * n}")
        return mat
    mat = np.zeros((n, 2 * n), dtype=complex)
    if key == "zero":
        _check_keys(spec["zero"], f"{pointer}/zero")  # takes no keys
    elif key == "local_damping":
        damp = _check_keys(spec["local_damping"], f"{pointer}/local_damping",
                           required=("rate",))
        rate = _number(damp["rate"], f"{pointer}/local_damping/rate", minimum=0.0)
        # L_v = sqrt(rate) a_v with a_v = (Q_v + i P_v) / sqrt(2)
        amp = np.sqrt(rate / 2.0)
        mat[:, :n] = amp * np.eye(n)
        mat[:, n:] = 1.0j * amp * np.eye(n)
    return mat


def parse_harmonic_model(section, lattice: Lattice) -> HarmonicModel:
    _check_keys(section, "/model", required=("type", "a", "b", "m"))
    a = _parse_real_matrix_spec(section["a"], lattice, "/model/a")
    b = _parse_real_matrix_spec(section["b"], lattice, "/model/b")
    m = _parse_lindblad_coefficients(section["m"], lattice, "/model/m")
    try:
        return HarmonicModel(lattice=lattice, a=a, b=b, m=m)
    except ValueError as exc:
        raise ConfigError("/model", str(exc)) from exc


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


def parse_config(data) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig; /time is read before /model."""
    _check_keys(data, "", required=("lattice", "eta"),
                optional=("model", "time", "observables", "pairs", "thresholds"))
    lattice = parse_lattice(data["lattice"])
    eta = _number(data["eta"], "/eta", strict_min=0.0)

    time_grid = None
    if "time" in data:
        section = _check_keys(data["time"], "/time", required=("t",),
                              optional=("r_points", "dt_points"))
        t = _number(section["t"], "/time/t", strict_min=0.0)
        if ("r_points" in section) == ("dt_points" in section):
            raise ConfigError("/time", "specify exactly one of r_points, dt_points")
        kind = "r" if "r_points" in section else "dt"
        points = _integer(section[f"{kind}_points"], f"/time/{kind}_points", minimum=2)
        time_grid = TimeGrid(t=t, points=points, kind=kind)

    spin_model = None
    harmonic_model = None
    if "model" in data:
        model_section = _require_mapping(data["model"], "/model")
        model_type = model_section.get("type")
        if model_type == "spin":
            # without a time grid the only time is 0, where every phase is finite
            t = time_grid.t if time_grid else 0.0
            spin_model = parse_spin_model(model_section, lattice, t)
        elif model_type == "harmonic":
            harmonic_model = parse_harmonic_model(model_section, lattice)
        else:
            raise ConfigError("/model/type", "expected 'spin' or 'harmonic'")

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
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite one is refused
            mat = _parse_operator_matrix(entry["operator"], len(sites), dim,
                                         f"{ep}/operator")
        if not np.isfinite(mat).all():
            raise ConfigError(ep, "the observable's operator leaves the float range;"
                                  " lower its entries")
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
    # tau(O_Y) O_X sums D products of modulus up to ||O_X|| ||O_Y|| each; a D
    # beyond the float range has no sweep (the memory guard refuses it)
    big_d = spin_model.hilbert_dim if spin_model is not None else 1
    for i, (ox, oy) in enumerate(pairs):
        bound = 2.0 * operator_norm(ox.matrix) * operator_norm(oy.matrix)
        if big_d <= sys.float_info.max and not math.isfinite(big_d * bound):
            raise ConfigError(f"/pairs/{i}" if isinstance(pairs_spec, list) else "/pairs",
                              "2 D ||O_X|| ||O_Y|| leaves the float range, with D the"
                              " Hilbert dimension; lower the observables' entries")

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
