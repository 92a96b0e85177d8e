"""Experiment orchestration: assumptions, spin/harmonic verification, light cones.

Each run computes everything first, renders every output file in memory, and
hands them to one writer, :func:`_write`. It checks every target before the
first byte is written, so a failing run leaves no partial output (a disk that
fills during the writes is not covered). Outputs are deterministic
byte-for-byte for a fixed config.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import harmonic as harm
from .config import ConfigError, RunConfig
from .lattice import assumption_constants
from .lindblad import commutator_norm_curves
from .operators import operator_norm

# Absorbs summation rounding in the fitted constants before certification.
SAFETY = 1.0 + 1e-12


def _json_text(payload) -> str:
    """Strict JSON: a NaN or an infinity raises ValueError instead of being written."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write(out_dir, files: dict[str, str]) -> None:
    """Write the rendered {name: text} files, refusing any non-file target first."""
    out_dir = Path(out_dir)
    for name in files:
        target = out_dir / name
        if target.exists() and not target.is_file():
            raise FileExistsError(f"{target} exists and is not a regular file")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, newline="")


def _lightcone(dt_grid, field, epsilon: float):
    """The summary's light-cone entries and lightcone.csv for per-distance curves."""
    arrivals = bnd.lightcone_arrivals(dt_grid, field, epsilon)
    text = _csv_text(("distance", "arrival"), [(repr(d), repr(a)) for d, a in arrivals])
    return [{"distance": d, "arrival": a} for d, a in arrivals], text


def _finite_range(slacks) -> tuple[float | None, float | None]:
    """(max, min) over the finite entries of slack arrays; None where there are none."""
    finite = np.concatenate([s[np.isfinite(s)] for s in slacks] + [np.empty(0)])
    if finite.size == 0:
        return None, None
    return float(finite.max()), float(finite.min())


def run_assumptions(config: RunConfig, out_dir) -> dict:
    """Emit the lattice decay constants as constants.json."""
    consts = assumption_constants(config.lattice, config.eta)
    payload = {
        "eta": consts.eta,
        "p0": consts.p0,
        "extensivity_sup": consts.extensivity_sup,
    }
    if consts.n_lambda is None:
        payload["note"] = (
            "n_lambda and p1 are undefined on a single-site lattice:"
            " the off-site kernel sum is empty"
        )
    else:
        payload["n_lambda"] = consts.n_lambda
        payload["p1"] = consts.p1
    _write(out_dir, {"constants.json": _json_text(payload)})
    return payload


def _spin_lhs(config: RunConfig, guard_dim: int | None):
    """Exact commutator-norm curves for every configured pair.

    ``guard_dim`` caps the Hilbert dimension before anything large is built.
    """
    if config.time is None or config.time.kind != "r":
        raise ConfigError("/time", "spin runs need a time section with r_points")
    if not config.pairs:
        raise ConfigError("/pairs", "no observable pairs configured")
    model = config.spin_model
    if guard_dim is not None and model.hilbert_dim > guard_dim:
        raise ValueError(f"Hilbert dimension {model.hilbert_dim} exceeds the guard"
                         f" {guard_dim}; raise --guard-dim to override")
    return commutator_norm_curves(model, [(ox, oy) for ox, oy, _ in config.pairs],
                                  config.time.t, config.time.points)


def _spin_lightcone(config: RunConfig, curves):
    """_lightcone of the per-distance max LHS over the dt grid."""
    dt_grid = [config.time.t - r for r in reversed(config.time.grid())]
    field: dict[float, np.ndarray] = {}
    for (_, _, d_xy), row in zip(config.pairs, curves):
        values = row[::-1]
        key = float(d_xy)
        field[key] = np.maximum(field[key], values) if key in field else values
    return _lightcone(dt_grid, field, config.epsilon)


_SPIN_COLUMNS = ("X", "Y", "d", "t", "r", "lhs", "rhs1", "rhs2", "rhs3",
                 "slack1", "slack2", "slack3", "flags")
_THEOREMS = ("thm1", "thm2", "thm3")


def _repr_list(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def run_verify_spin(config: RunConfig, out_dir, guard_dim: int | None = None) -> dict:
    """Certify Theorems 1-3 against exact spin dynamics; write report files."""
    if config.spin_model is None:
        raise ConfigError("/model", "verify-spin requires a spin model")
    model = config.spin_model
    eta = config.eta

    consts = assumption_constants(config.lattice, eta)
    fitted_lambda0 = bnd.lambda0_fit(model, eta)
    p0 = consts.p0 * SAFETY
    lambda0 = fitted_lambda0 * SAFETY
    n_lam = consts.n_lambda * SAFETY if consts.n_lambda is not None else None
    p1 = consts.p1 * SAFETY if consts.p1 is not None else None

    curves = _spin_lhs(config, guard_dim)
    t, r_grid = config.time.t, config.time.grid()

    try:
        jm = bnd.build_j_matrix(model, t)
    except ValueError:
        jm = None  # terms on three or more sites: matrix-exponential bound inapplicable
    dts = t - r_grid
    stacked = bnd.theorem3_matrix(jm, dts) if jm is not None else None

    rows = []  # report.csv rows, formatted
    counts = dict.fromkeys(_THEOREMS, 0)
    slacks = {name: [] for name in _THEOREMS}
    rhs_overflow = 0
    for (ox, oy, d_xy), lhs in zip(config.pairs, curves):
        ox_norm = operator_norm(ox.matrix)
        oy_norm = operator_norm(oy.matrix)
        sizes = len(ox.support), len(oy.support)
        rhs = {"thm1": bnd.theorem1_bound(lambda0, p0, 2.0 * ox_norm, oy_norm, *sizes,
                                          eta, dts, d_xy)}
        if n_lam is not None:
            rhs["thm2"] = bnd.theorem2_bound(lambda0, p1, n_lam, 2.0 * ox_norm, oy_norm,
                                             *sizes, eta, dts, d_xy)
        if jm is not None and sizes == (1, 1):
            rhs["thm3"] = bnd.theorem3_bound(stacked, 2.0 * ox_norm, oy_norm,
                                             ox.support[0], oy.support[0])
        blank = [""] * len(r_grid)  # an inapplicable theorem's column
        rhs_text, slack_text, hits = [], [], []
        for name in _THEOREMS:
            if name not in rhs:
                rhs_text.append(blank)
                slack_text.append(blank)
                continue
            slack, violated = bnd.certify(lhs, rhs[name])
            rhs_text.append(_repr_list(rhs[name]))
            slack_text.append(_repr_list(slack))
            hits.append(np.where(violated, name, ""))
            counts[name] += int(violated.sum())
            slacks[name].append(slack)
            rhs_overflow += int(np.isinf(rhs[name]).sum())
        flags = ["|".join(filter(None, names)) for names in zip(*hits)]
        rows.extend(zip(
            repeat(";".join(map(str, ox.support))),
            repeat(";".join(map(str, oy.support))),
            repeat(repr(d_xy)), repeat(repr(t)), _repr_list(r_grid), _repr_list(lhs),
            *rhs_text, *slack_text, flags,
        ))
    ranges = {name: _finite_range(v) for name, v in slacks.items()}
    lightcone, lightcone_csv = _spin_lightcone(config, curves)

    summary = {
        "mode": "verify-spin",
        "eta": eta,
        "constants": {
            "p0": consts.p0,
            "extensivity_sup": consts.extensivity_sup,
            "n_lambda": consts.n_lambda,
            "p1": consts.p1,
        },
        "lambda0": fitted_lambda0,
        "lambda0_basis": "certified_upper",
        "kappa": jm.kappa if jm is not None else None,
        "kappa_below_one": bool(jm is not None and jm.kappa < 1.0),
        "onsite_terms_excluded_from_j": bool(jm is not None and jm.onsite_excluded),
        "theorem3_applicable": jm is not None,
        "rows": len(rows),
        "violations": counts,
        "violation_count": sum(counts.values()),
        "rhs_overflow": rhs_overflow,
        "max_slack": {name: hi for name, (hi, _) in ranges.items()},
        "min_slack": {name: lo for name, (_, lo) in ranges.items()},
        "epsilon": config.epsilon,
        "lightcone": lightcone,
    }
    _write(out_dir, {"report.csv": _csv_text(_SPIN_COLUMNS, rows),
                     "summary.json": _json_text(summary),
                     "lightcone.csv": lightcone_csv})
    return summary


_HARMONIC_KINDS = ("QQ", "QP", "PQ", "PP")


def _pair_segments(dist: np.ndarray):
    """Off-diagonal site pairs sorted by distance, for a scatter-max.

    Returns the pairs' flat indices into an n x n block, the start of each
    equal-distance segment, and the distinct distances.
    """
    pairs = np.flatnonzero(~np.eye(dist.shape[0], dtype=bool))
    pairs = pairs[np.argsort(dist.ravel()[pairs], kind="stable")]
    pair_dist = dist.ravel()[pairs]
    starts = np.flatnonzero(np.diff(pair_dist, prepend=-np.inf))
    return pairs, starts, pair_dist[starts]


def _harmonic_sweep(config: RunConfig, pairs, starts):
    """Per grid point (dt, product, lhs, lhs_max), in one stepping pass.

    product is e^{S dt} sigma from harm.stepped_products on the model's
    kernel S; lhs gathers every kind's commutator norms |product| (rows in
    _HARMONIC_KINDS order) over the distance-sorted pairs of _pair_segments,
    one n x n block at a time to stay in cache; lhs_max is its per-kind,
    per-distance maximum. A grid on which e^{S dt} overflows is a
    configuration error.
    """
    if config.time is None or config.time.kind != "dt":
        raise ConfigError("/time", "harmonic runs need a time section with dt_points")
    t = config.time.t
    kernel = harm.build_kernel(config.harmonic_model)
    n = len(kernel) // 2
    try:
        for dt, product in harm.stepped_products(kernel, t, config.time.points):
            values = np.abs(product)
            lhs = np.stack([np.take(values[r:r + n, c:c + n], pairs)
                            for r in (0, n) for c in (0, n)])
            yield dt, product, lhs, np.maximum.reduceat(lhs, starts, axis=1)
    except OverflowError as exc:
        raise ConfigError(
            "/time/t", f"{exc}: e^(S dt) leaves the float range before t = {t!r};"
            " lower t"
        ) from exc


def _harmonic_lightcone(config: RunConfig, steps, distances: np.ndarray):
    """_lightcone of the per-distance maximum over all kinds.

    steps holds (dt, lhs_max) per grid point, as _harmonic_sweep yields them.
    """
    dt_grid = [dt for dt, _ in steps]
    field = np.array([lhs_max.max(axis=0) for _, lhs_max in steps])
    return _lightcone(dt_grid, dict(zip(distances.tolist(), field.T)), config.epsilon)


def run_verify_harmonic(config: RunConfig, out_dir) -> dict:
    """Certify the harmonic bound against the exact kernel dynamics."""
    if config.harmonic_model is None:
        raise ConfigError("/model", "verify-harmonic requires a harmonic model")
    model = config.harmonic_model
    lattice = config.lattice
    eta = config.eta
    eta_warning = eta <= lattice.ndim
    if eta_warning:
        print(
            f"warning: eta = {eta} is not above the lattice dimension"
            f" {lattice.ndim}; the kernel-decay assumption degrades",
            file=sys.stderr,
        )

    consts = assumption_constants(lattice, eta)
    p0 = consts.p0 * SAFETY
    fitted_c0 = harm.c0_fit(model, eta)
    c0 = fitted_c0 * SAFETY
    pairs, starts, distances = _pair_segments(lattice.dist)
    pair_counts = np.diff(starts, append=pairs.size)
    d_text = list(map(repr, distances.tolist()))

    rows = []  # report.csv rows, formatted
    slacks = []
    per_kind = {kind: 0 for kind in _HARMONIC_KINDS}
    rhs_overflow = 0
    steps = []  # (dt, lhs_max) per grid point
    closed = bool(np.all(model.m == 0))  # the flow must then preserve sigma
    defect = 0.0
    for dt, product, lhs, lhs_max in _harmonic_sweep(config, pairs, starts):
        if closed:
            defect = max(defect, harm.symplectic_defect(product))
        rhs = harm.theorem4_bound(c0, p0, eta, dt, distances)
        slack, violated = bnd.certify(lhs_max, np.broadcast_to(rhs, lhs_max.shape))
        cell_viol = np.zeros(lhs_max.shape, dtype=int)
        if violated.any():  # no segment violates unless its max does
            _, pair_viol = bnd.certify(lhs, np.broadcast_to(np.repeat(rhs, pair_counts),
                                                            lhs.shape))
            cell_viol = np.add.reduceat(pair_viol, starts, axis=1)
        rhs_text = _repr_list(rhs)
        for kind, kind_max, kind_slack, kind_viol in zip(
            _HARMONIC_KINDS, lhs_max.tolist(), slack.tolist(), cell_viol.tolist()
        ):
            rows.extend(zip(d_text, repeat(kind), repeat(repr(dt)), map(repr, kind_max),
                            rhs_text, map(repr, kind_slack), kind_viol))
            per_kind[kind] += sum(kind_viol)
        slacks.append(slack)
        rhs_overflow += len(_HARMONIC_KINDS) * int(np.isinf(rhs).sum())
        steps.append((dt, lhs_max))
    violation_count = sum(per_kind.values())
    max_slack, min_slack = _finite_range(slacks)
    lightcone, lightcone_csv = _harmonic_lightcone(config, steps, distances)

    summary = {
        "mode": "verify-harmonic",
        "eta": eta,
        "eta_above_lattice_dimension": not eta_warning,
        "constants": {"p0": consts.p0, "extensivity_sup": consts.extensivity_sup},
        "c0": fitted_c0,
        "growth_rate": harm.growth_rate(c0, p0),
        "sites": model.n_sites,
        "dt_points": len(steps),
        "rows": len(rows),
        "violation_count": violation_count,
        "violations": per_kind,
        "rhs_overflow": rhs_overflow,
        "max_slack": max_slack,
        "min_slack": min_slack,
        "epsilon": config.epsilon,
        "note": "x = y pairs are excluded: the bound is stated for distinct sites",
        "symplectic_defect": defect if closed else None,
        "lightcone": lightcone,
    }
    header = ("distance", "pair_kind", "dt", "lhs_max", "rhs", "slack_min", "violations")
    _write(out_dir, {"report.csv": _csv_text(header, rows),
                     "summary.json": _json_text(summary),
                     "lightcone.csv": lightcone_csv})
    return summary


def run_lightcone(config: RunConfig, out_dir, guard_dim: int | None = None) -> dict:
    """Emit threshold-arrival times for the configured model's exact dynamics."""
    if config.spin_model is not None:
        lightcone, text = _spin_lightcone(config, _spin_lhs(config, guard_dim))
    elif config.harmonic_model is not None:
        pairs, starts, distances = _pair_segments(config.lattice.dist)
        steps = [(dt, lhs_max) for dt, _, _, lhs_max
                 in _harmonic_sweep(config, pairs, starts)]
        lightcone, text = _harmonic_lightcone(config, steps, distances)
    else:
        raise ConfigError("/model", "the lightcone command requires a model")
    _write(out_dir, {"lightcone.csv": text})
    return {"mode": "lightcone", "epsilon": config.epsilon, "lightcone": lightcone}
