"""Command-line runner: config ingestion, dispatch, report emission.

Exit status is 0 only when every certification requested by the command
passes; schema violations exit 2 with the offending key paths listed and
no partial outputs written; runtime failures exit 1 with a
machine-readable error JSON.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import flow, loop as loop_mod, magcurv, solve
from .config import load_config
from .errors import ConfigError, MaggeoError
from .io import dump_csv, dump_json


def _out_path(config, name):
    return os.path.join(config.output["dir"], name)


def _emit(config, stem, json_payload=None, csv_writer=None):
    written = []
    formats = config.output["formats"]
    if json_payload is not None and "json" in formats:
        path = _out_path(config, stem + ".json")
        dump_json(path, json_payload)
        written.append(path)
    if csv_writer is not None and "csv" in formats:
        path = _out_path(config, stem + ".csv")
        csv_writer(path)
        written.append(path)
    return written


def default_seed_state(sys, k, task):
    """Seed phase point on the energy level, from config or builtin defaults."""
    if "seed_x" in task:
        x = np.asarray(task["seed_x"], dtype=float)
    elif sys.name.startswith("round_sphere"):
        x = np.array([1.0, 0.0])
    else:
        x = np.zeros(sys.dim)
        if sys.name.startswith("hyperbolic"):
            x[-1] = 1.0
    if "seed_v" in task:
        v = np.asarray(task["seed_v"], dtype=float)
    elif sys.name.startswith("round_sphere"):
        v = np.array([0.0, 1.0])
    else:
        v = np.eye(sys.dim)[0]
    v = v * (np.sqrt(2.0 * k) / sys.norm(x, v))
    return flow.PhaseState(x, v)


def _default_t_guess(sys, k, task):
    if "t_guess" in task:
        return task["t_guess"]
    try:
        b = magcurv.field_strength(sys, default_seed_state(sys, k, task).x)
        if abs(b) > 1e-9:
            return 2.0 * np.pi / abs(b)
    except Exception:
        pass
    return 2.0 * np.pi / np.sqrt(2.0 * k)


def _find_orbit(config):
    sys_ = config.system
    task = config.task
    k = task["k"]
    state = default_seed_state(sys_, k, task)
    winding_target = None
    if task.get("contractible", True) and sys_.lattice is not None:
        winding_target = tuple(0 for _ in range(sys_.dim))
    record = solve.shoot(
        sys_, k, state, _default_t_guess(sys_, k, task),
        tol=task.get("tolerance", 1e-12),
        n_nodes=task.get("nodes", 512),
        mode_count=task.get("modes", 32),
        winding_target=winding_target,
    )
    return record


def cmd_integrate(config):
    sys_ = config.system
    task = config.task
    k = task["k"]
    state = default_seed_state(sys_, k, task)
    t_end = task.get("t_end", 4.0 * np.pi)
    orbit = flow.integrate(sys_, state, t_end,
                           tolerance=task.get("tolerance", 1e-10),
                           samples=task.get("samples", 513))
    _emit(config, "orbit", orbit.to_json(), orbit.to_csv)
    return 0


def cmd_curvature(config):
    sys_ = config.system
    task = config.task
    k = task["k"]
    n_samples = task.get("samples", 256)
    points, vs, ws = magcurv._sample_geometry(sys_, n_samples, task["seed"], None, pairs=True)
    points.riemann, points.nabla_omega   # on the stack, before the per-sample slices
    header = ([f"x{i+1}" for i in range(sys_.dim)]
              + [f"v{i+1}" for i in range(sys_.dim)] + ["k", "sec", "ric", "traceA"])
    rows = []
    for i, (v, w) in enumerate(zip(vs, ws)):
        cs = magcurv.curvature_sample(sys_, points[i], v, k, w=w)
        rows.append([float(c) for c in points.x[i]] + [float(c) for c in v]
                    + [k, cs.sec, cs.ric, cs.traceA])
    _emit(config, "curvature", {
        "schema_version": 1, "kind": "curvature_samples", "system": sys_.name,
        "k": k, "n_samples": n_samples, "seed": task["seed"],
        "min_sec": min(r[-3] for r in rows), "min_ric": min(r[-2] for r in rows),
        "min_traceA": min(r[-1] for r in rows),
    }, lambda path: dump_csv(path, header, rows))
    return 0


def cmd_scan_k0(config):
    task = config.task
    report = magcurv.positivity_scan(config.system, task["k_grid"],
                                     task.get("sample_budget", 128), task["seed"])
    _emit(config, "scan_k0", None, report.to_csv)
    if "json" in config.output["formats"]:
        report.to_json(_out_path(config, "scan_k0.json"))
    return 0


def cmd_theorem_b(config):
    task = config.task
    grid = task.get("grid", [24, 24])
    report = magcurv.theorem_b_scan(config.system, task["k0"],
                                    k_steps=task.get("k_steps", 8),
                                    grid_shape=tuple(grid))
    if "json" in config.output["formats"]:
        report.to_json(_out_path(config, "theorem_b.json"))
    if "csv" in config.output["formats"]:
        dump_csv(_out_path(config, "theorem_b.csv"), ["k", "min_sec", "positive"],
                 [[k, m, p] for k, m, p in zip(report.k_grid, report.min_sec, report.positive)])
    return 0


def cmd_find_orbit(config):
    record = _find_orbit(config)
    if isinstance(record, solve.SearchFailure):
        _emit(config, "orbit_record", record.to_json())
        return 1
    _emit(config, "orbit_record", record.to_json(), record.orbit.to_csv)
    return 0 if record.certified else 1


def cmd_index(config):
    record = _find_orbit(config)
    if isinstance(record, solve.SearchFailure):
        _emit(config, "orbit_record", record.to_json())
        return 1
    _emit(config, "index_report", record.index_report.to_json(),
          record.index_report.spectra_to_csv)
    return 0 if record.certified else 1


def cmd_transport(config):
    sys_ = config.system
    task = config.task
    k = task["k"]
    state = default_seed_state(sys_, k, task)
    t_end = task.get("t_end", 2.0 * np.pi)
    orbit = flow.integrate(sys_, state, t_end,
                           tolerance=task.get("tolerance", 1e-10))
    v0 = np.asarray(task.get("v0", np.eye(sys_.dim)[-1]), dtype=float)
    tf = flow.magnetic_transport(sys_, orbit, v0)
    g = sys_.metric_at(orbit.states[:, :sys_.dim])
    norms = np.einsum("mi,mij,mj->m", tf.values, g, tf.values)
    drift = float(np.max(np.abs(norms - norms[0])))
    _emit(config, "transport", {
        "schema_version": 1, "kind": "transport", "system": sys_.name,
        "k": k, "t_end": t_end, "norm_drift": drift,
        "end_value": [float(c) for c in tf.end_value],
    }, tf.to_csv)
    return 0 if drift < 1e-8 else 1


def cmd_bonnet_myers(config):
    sys_ = config.system
    task = config.task
    k_grid = task["k_grid"]
    config.task["k"] = k_grid[0]
    record = _find_orbit(config)
    if isinstance(record, solve.SearchFailure):
        _emit(config, "bonnet_myers", record.to_json())
        return 1
    family = [record]
    if len(k_grid) > 1:
        family += solve.continue_in_k(sys_, record, k_grid[1:],
                                      n_nodes=task.get("nodes", 512),
                                      mode_count=task.get("modes", 32))
    payload = {
        "schema_version": 1, "kind": "bonnet_myers_sweep", "system": sys_.name,
        "k_grid": [float(k) for k in k_grid],
        "records": [r.to_json() if isinstance(r, solve.OrbitRecord) else r.to_json()
                    for r in family],
    }
    _emit(config, "bonnet_myers", payload,
          lambda path: solve.family_to_csv(path, family))
    ok = all(isinstance(r, solve.OrbitRecord) and r.certified
             and r.checks.get("bonnet_myers_ok", False) for r in family)
    return 0 if ok else 1


def cmd_mane_bound(config):
    sys_ = config.system
    task = config.task
    center = np.asarray(task.get("center", np.zeros(sys_.dim)), dtype=float)
    if sys_.name.startswith("hyperbolic") and "center" not in task:
        center = np.array([0.0, 2.0])
    boxes = []
    for radius in task["radii"]:
        box = [(float(c - radius), float(c + radius)) for c in center]
        if sys_.name.startswith("hyperbolic"):
            box[1] = (max(box[1][0], 0.1), box[1][1])
        boxes.append(box)
    report = loop_mod.mane_upper_bound(sys_, boxes,
                                       n_samples=task.get("samples", 2048),
                                       seed=task["seed"])
    if "json" in config.output["formats"]:
        report.to_json(_out_path(config, "mane_bound.json"))
    if "csv" in config.output["formats"]:
        dump_csv(_out_path(config, "mane_bound.csv"), ["region", "sup_theta"],
                 [[i, s] for i, s in enumerate(report.sup_theta)])
    return 0


def cmd_report(config):
    sys_ = config.system
    record = _find_orbit(config)
    payload = {
        "schema_version": 1,
        "kind": "report",
        "system": sys_.name,
        "k": config.task["k"],
    }
    status = 1
    if isinstance(record, solve.OrbitRecord):
        payload["orbit"] = record.to_json()
        status = 0 if record.certified else 1
    else:
        payload["orbit"] = record.to_json()
    if sys_.primitive is not None:
        try:
            mane = loop_mod.mane_upper_bound(
                sys_, [[(-1.0, 1.0)] * sys_.dim], n_samples=512,
                seed=config.task["seed"])
            payload["mane_bound"] = mane.to_json()
        except MaggeoError:
            pass
    _emit(config, "report", payload)
    return status


_DISPATCH = {
    "integrate": cmd_integrate,
    "curvature": cmd_curvature,
    "scan-k0": cmd_scan_k0,
    "theorem-b": cmd_theorem_b,
    "find-orbit": cmd_find_orbit,
    "index": cmd_index,
    "transport": cmd_transport,
    "bonnet-myers": cmd_bonnet_myers,
    "mane-bound": cmd_mane_bound,
    "report": cmd_report,
}


def run(config, verbose=False):
    """Dispatch a validated config; returns the process exit status."""
    command = config.command
    if verbose:
        print(f"maggeo: running {command} on {config.system.name}", file=sys.stderr)
    try:
        return _DISPATCH[command](config)
    except (MaggeoError, ValueError) as exc:
        dump_json(_out_path(config, "error.json"), {
            "schema_version": 1, "kind": "error", "command": command,
            "error_type": type(exc).__name__, "message": str(exc),
        })
        if verbose:
            print(f"maggeo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="maggeo",
        description="Magnetic geodesics, magnetic curvature, and closed-orbit search.")
    parser.add_argument("--config", required=True, help="path to a run config file")
    parser.add_argument("--seed", type=int, default=None, help="override task seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--format", default=None, choices=("csv", "json"),
                        help="restrict output to one format")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.seed is not None:
        config.task["seed"] = args.seed
    if args.out is not None:
        config.output["dir"] = args.out
    if args.format is not None:
        config.output["formats"] = (args.format,)

    return run(config, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
