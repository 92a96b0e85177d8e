"""Experiment orchestration: lattice assumptions and spin/harmonic verification.

Each verify run certifies its report in one verdict pass on whole arrays: one
:func:`bounds.certify` call gives every report.csv slack and the spin flags.
The spin arrays are (theorem, pair, point), NaN where a theorem is
inapplicable; the harmonic ones are (point, kind, distance), and the sweep
loop counts the violating pairs behind each harmonic cell.

Each verify run also writes its model's light cone, lightcone.csv, by one
path for both engines: :func:`_by_distance` groups the run's curves into
equal-distance runs, their maxima form a (dt x distance) field, and
:func:`_lightcone` reads the arrivals off it.

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


def _by_distance(distance: np.ndarray):
    """Group a 1-D distance array into equal-distance runs, for a scatter-max.

    Returns the stable sort order, the start of each equal-distance run in
    sorted order and the distinct distances, ascending: per-distance maxima
    of rows ``values`` are ``np.maximum.reduceat(values[order], starts)``.
    """
    order = np.argsort(distance, kind="stable")
    ordered = distance[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-np.inf))
    return order, starts, ordered[starts]


def _lightcone(dt_grid, distances, field, epsilon: float):
    """The summary's light-cone entries and lightcone.csv of a (dt x distance) field."""
    arrivals = bnd.lightcone_arrivals(dt_grid, distances, field, epsilon)
    text = _csv_text(("distance", "arrival"), arrivals)
    return [{"distance": d, "arrival": a} for d, a in arrivals], text


def _flat(values, shape) -> list:
    """One report.csv column: ``values`` broadcast to ``shape``, in C order."""
    return np.broadcast_to(values, shape).ravel().tolist()


def _finite_range(slack: np.ndarray) -> tuple[float | None, float | None]:
    """(max, min) over the finite entries of a slack array; None where there are none."""
    finite = slack[np.isfinite(slack)]
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


_SPIN_COLUMNS = ("X", "Y", "d", "t", "r", "lhs", "rhs1", "rhs2", "rhs3",
                 "slack1", "slack2", "slack3", "flags")
_THEOREMS = ("thm1", "thm2", "thm3")


def run_verify_spin(config: RunConfig, out_dir) -> dict:
    """Certify Theorems 1-3 against exact spin dynamics; write report files."""
    if config.spin_model is None:
        raise ConfigError("/model", "verify-spin requires a spin model")
    model = config.spin_model
    eta = config.eta

    consts = assumption_constants(config.lattice, eta)
    if config.time is None or config.time.kind != "r":
        raise ConfigError("/time", "spin runs need a time section with r_points")
    if not config.pairs:
        raise ConfigError("/pairs", "no observable pairs configured")
    xs, ys, ds = zip(*config.pairs)  # per pair: O_X, O_Y and d(X, Y)
    t, r_grid = config.time.t, config.time.grid()
    curves = commutator_norm_curves(model, list(zip(xs, ys)), t, config.time.points)
    # a disjoint pair spans two sites, so n_lambda and p1 are defined
    p0, n_lam, p1 = (c * SAFETY for c in (consts.p0, consts.n_lambda, consts.p1))
    # after the sweep, which refuses a non-finite or too large generator first
    fitted_lambda0 = bnd.lambda0_fit(model, eta, t)
    lambda0 = fitted_lambda0 * SAFETY

    jm = bnd.build_j_matrix(model, t)  # None: the matrix-exponential bound is inapplicable
    dts = t - r_grid

    def column(values):  # one entry per pair, broadcast against the dt grid
        return np.array(values)[:, None]

    k_norm = column([2.0 * operator_norm(ox.matrix) for ox in xs])
    o_norm = column([operator_norm(oy.matrix) for oy in ys])
    size_x = column([len(ox.support) for ox in xs])
    size_y = column([len(oy.support) for oy in ys])
    d_xy = column(ds)
    norms_sizes = (k_norm, o_norm, size_x, size_y)
    rhs = np.full((len(_THEOREMS),) + curves.shape, np.nan)  # NaN: inapplicable
    rhs[0] = bnd.theorem1_bound(lambda0, p0, *norms_sizes, eta, dts, d_xy)
    rhs[1] = bnd.theorem2_bound(lambda0, p1, n_lam, *norms_sizes, eta, dts, d_xy)
    single = ((size_x == 1) & (size_y == 1))[:, 0]
    if jm is not None:
        sites = np.array([(ox.support[0], oy.support[0]) for ox, oy in zip(xs, ys)])
        rhs[2, single] = bnd.theorem3_bound(bnd.theorem3_matrix(jm, dts), k_norm[single],
                                            o_norm[single], *sites[single].T)
    slack, violated = bnd.certify(np.broadcast_to(curves, rhs.shape), rhs)

    flagged = np.where(violated, np.array(_THEOREMS)[:, None, None], "")
    flags = ["|".join(filter(None, names))
             for names in zip(*flagged.reshape(len(_THEOREMS), -1).tolist())]
    inapplicable = np.isnan(rhs)  # its rhs and slack cells are blank
    rhs_cells, slack_cells = (np.where(inapplicable, "", v.astype(object))
                              for v in (rhs, slack))
    labels = [column([";".join(map(str, op.support)) for op in ops]) for ops in (xs, ys)]
    columns = (*labels, d_xy, t, r_grid, curves, *rhs_cells, *slack_cells)
    rows = list(zip(*(_flat(c, curves.shape) for c in columns), flags))
    counts = dict(zip(_THEOREMS, violated.sum(axis=(1, 2)).tolist()))
    # a blank cell's slack is NaN or +inf, outside every range
    ranges = {name: _finite_range(s) for name, s in zip(_THEOREMS, slack)}
    order, starts, distances = _by_distance(d_xy[:, 0])
    field = np.maximum.reduceat(curves[order], starts).T[::-1]  # dt = t - r ascending
    lightcone, lightcone_csv = _lightcone(dts[::-1], distances, field, config.epsilon)

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
        "rhs_overflow": int(np.isinf(rhs).sum()),
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


def _harmonic_sweep(config: RunConfig, pairs, starts, closed: bool):
    """Per grid point (dt, lhs, lhs_max, defect), in one stepping pass.

    Each point's product e^{S dt} sigma comes from harm.stepped_products on
    the model's kernel S: one 2n x 2n product, the first a permutation of E.
    lhs holds every kind's commutator norms |product| (rows in
    _HARMONIC_KINDS order) over ``pairs``, flat indices into an n x n block
    sorted by distance, whose equal-distance runs begin at ``starts``; one
    np.take gathers them straight from the product. lhs_max is lhs's
    per-kind, per-distance maximum. defect is the product's symplectic
    defect (one 2n x n x 2n product) if ``closed``; it is 0 at dt = 0, where
    the product is sigma, and for a damped model. A grid on which e^{S dt} or
    the defect overflows is a configuration error.
    """
    if config.time is None or config.time.kind != "dt":
        raise ConfigError("/time", "harmonic runs need a time section with dt_points")
    t = config.time.t
    n = config.harmonic_model.n_sites
    flat = None
    try:
        for dt, product in harm.stepped_products(harm.build_kernel(config.harmonic_model),
                                                 t, config.time.points):
            if flat is None:  # after the exponential, not on top of its arrays
                # pair x n + y is entry x 2n + y, offset to each kind's block
                offsets = np.array([0, n, 2 * n * n, 2 * n * n + n])[:, None]
                flat = pairs + pairs // n * n + offsets
            lhs = np.take(product, flat)
            np.abs(lhs, out=lhs)
            defect = harm.symplectic_defect(product) if closed and dt > 0.0 else 0.0
            if not np.isfinite(defect):
                raise ConfigError(
                    "/time/t", f"P sigma P^T overflowed at dt = {dt!r}: the symplectic"
                    f" defect leaves the float range before t = {t!r}; lower t")
            yield dt, lhs, np.maximum.reduceat(lhs, starts, axis=1), defect
    except OverflowError as exc:
        raise ConfigError(
            "/time/t", f"{exc}: e^(S dt) leaves the float range before t = {t!r};"
            " lower t"
        ) from exc


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
    fitted_c0 = bnd.c0_fit(model, eta)
    c0 = fitted_c0 * SAFETY
    off = np.flatnonzero(~np.eye(lattice.n_sites, dtype=bool))  # x != y in n x n
    order, starts, distances = _by_distance(lattice.dist.ravel()[off])
    pairs = off[order]
    pair_counts = np.diff(starts, append=pairs.size)

    points = []  # per grid point: dt, lhs_max, its RHS and violating pairs per segment
    closed = bool(np.all(model.m == 0))  # the flow must then preserve sigma
    defect = 0.0
    for dt, lhs, lhs_max, point_defect in _harmonic_sweep(config, pairs, starts, closed):
        defect = max(defect, point_defect)
        rhs = bnd.theorem4_bound(c0, p0, eta, dt, distances)
        count = np.zeros(lhs_max.shape, dtype=int)
        if bnd.certify(lhs_max, np.broadcast_to(rhs, lhs_max.shape))[1].any():
            # a segment has a violating pair only where its max violates
            _, violated = bnd.certify(lhs, np.broadcast_to(np.repeat(rhs, pair_counts),
                                                           lhs.shape))
            count = np.add.reduceat(violated, starts, axis=1)
        points.append((dt, lhs_max, rhs, count))
    dts, maxima, rhs, counts = map(np.array, zip(*points))  # (point, kind, distance)
    rhs = np.broadcast_to(rhs[:, None, :], maxima.shape)
    slack, _ = bnd.certify(maxima, rhs)
    per_kind = dict(zip(_HARMONIC_KINDS, counts.sum(axis=(0, 2)).tolist()))
    max_slack, min_slack = _finite_range(slack)
    lightcone, lightcone_csv = _lightcone(dts, distances, maxima.max(axis=1),
                                          config.epsilon)
    rows = list(zip(*(_flat(c, maxima.shape) for c in (
        distances, np.array(_HARMONIC_KINDS)[:, None], dts[:, None, None], maxima, rhs,
        slack, counts))))

    summary = {
        "mode": "verify-harmonic",
        "eta": eta,
        "eta_above_lattice_dimension": not eta_warning,
        "constants": {"p0": consts.p0, "extensivity_sup": consts.extensivity_sup},
        "c0": fitted_c0,
        "growth_rate": bnd.growth_rate(c0, p0),
        "sites": model.n_sites,
        "dt_points": len(dts),
        "rows": len(rows),
        "violation_count": sum(per_kind.values()),
        "violations": per_kind,
        "rhs_overflow": int(np.isinf(rhs).sum()),
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
