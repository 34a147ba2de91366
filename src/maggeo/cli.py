"""Command-line runner: config ingestion, dispatch, report emission.

Exit status is 0 only when every certification requested by the command
passes; schema violations exit 2 with the offending key paths listed and
no partial outputs written; runtime failures exit 1 with a
machine-readable error JSON.  A command reads its ``[task]`` keys with
their defaults filled in by ``config.COMMAND_KEYS`` and writes every
output through ``_emit``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import flow, loop as loop_mod, magcurv, solve
from .config import load_config
from .errors import ConfigError, MaggeoError
from .io import SCHEMA_VERSION, dump_csv, dump_json


def _out_path(config, name):
    return os.path.join(config.output["dir"], name)


def _emit(config, stem, payload, csv_writer=None):
    """Write ``payload`` to ``stem``.json and, through ``csv_writer(path)``,
    ``stem``.csv, each if its format is asked for."""
    formats = config.output["formats"]
    if "json" in formats:
        dump_json(_out_path(config, stem + ".json"), payload)
    if csv_writer is not None and "csv" in formats:
        csv_writer(_out_path(config, stem + ".csv"))


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


def _default_t_guess(sys, k, x, task):
    """The configured ``t_guess``; else, on a surface with field strength
    b != 0 at the seed point x, the cyclotron period 2 pi / |b|; else the
    time 2 pi / |v| of a unit-radius turn at speed |v| = sqrt(2k)."""
    if "t_guess" in task:
        return task["t_guess"]
    if sys.dim == 2:
        b = magcurv.field_strength(sys, x)
        if abs(b) > 1e-9:
            return 2.0 * np.pi / abs(b)
    return 2.0 * np.pi / np.sqrt(2.0 * k)


def _search_options(task):
    """Tolerance and index resolution of the orbit search, for ``find_orbit``
    and ``continue_in_k``."""
    return {"tol": task["tolerance"], "n_nodes": task["nodes"], "mode_count": task["modes"]}


def _find_orbit(sys_, task, k):
    state = default_seed_state(sys_, k, task)
    winding_target = None
    if task["contractible"] and sys_.lattice is not None:
        winding_target = tuple(0 for _ in range(sys_.dim))
    return solve.find_orbit(sys_, k, state, _default_t_guess(sys_, k, state.x, task),
                            winding_target=winding_target, **_search_options(task))


def cmd_integrate(config):
    sys_ = config.system
    task = config.task
    k = task["k"]
    state = default_seed_state(sys_, k, task)
    orbit = flow.integrate(sys_, state, task["t_end"], tolerance=task["tolerance"],
                           samples=task["samples"])
    _emit(config, "orbit", orbit.to_json(), orbit.to_csv)
    return 0


def cmd_curvature(config):
    sys_ = config.system
    task = config.task
    k = task["k"]
    points, vs, ws = magcurv._sample_geometry(sys_, task["samples"], task["seed"], pairs=True)
    cs = magcurv.curvature_sample(sys_, points, vs, k, w=ws)
    header = ([f"x{i+1}" for i in range(sys_.dim)]
              + [f"v{i+1}" for i in range(sys_.dim)] + ["k", "sec", "ric", "traceA"])
    rows = [x + v + [k] + values for x, v, *values in zip(
        points.x.tolist(), vs.tolist(), cs.sec.tolist(), cs.ric.tolist(), cs.traceA.tolist())]
    _emit(config, "curvature", {
        "schema_version": SCHEMA_VERSION, "kind": "curvature_samples", "system": sys_.name,
        "k": k, "n_samples": task["samples"], "seed": task["seed"],
        "min_sec": min(r[-3] for r in rows), "min_ric": min(r[-2] for r in rows),
        "min_traceA": min(r[-1] for r in rows),
    }, lambda path: dump_csv(path, header, rows))
    return 0


def cmd_scan_k0(config):
    task = config.task
    report = magcurv.positivity_scan(config.system, task["k_grid"], task["sample_budget"],
                                     task["seed"])
    _emit(config, "scan_k0", report.to_json(), report.to_csv)
    return 0


def cmd_theorem_b(config):
    task = config.task
    report = magcurv.theorem_b_scan(config.system, task["k0"], k_steps=task["k_steps"],
                                    grid_shape=tuple(task["grid"]))
    _emit(config, "theorem_b", report.to_json(), report.to_csv)
    return 0


def cmd_find_orbit(config):
    record = _find_orbit(config.system, config.task, config.task["k"])
    if isinstance(record, solve.SearchFailure):
        _emit(config, "orbit_record", record.to_json())
        return 1
    _emit(config, "orbit_record", record.to_json(), record.orbit.to_csv)
    return 0 if record.certified else 1


def cmd_index(config):
    record = _find_orbit(config.system, config.task, config.task["k"])
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
    t_end = task["t_end"]
    orbit = flow.integrate(sys_, state, t_end, tolerance=task["tolerance"])
    v0 = np.asarray(task["v0"], dtype=float) if "v0" in task else np.eye(sys_.dim)[-1]
    tf = flow.magnetic_transport(sys_, orbit, v0)
    g = sys_.metric_at(orbit.states[:, :sys_.dim])
    norms = np.einsum("mi,mij,mj->m", tf.values, g, tf.values)
    drift = float(np.max(np.abs(norms - norms[0])))
    _emit(config, "transport", {
        "schema_version": SCHEMA_VERSION, "kind": "transport", "system": sys_.name,
        "k": k, "t_end": t_end, "norm_drift": drift,
        "end_value": [float(c) for c in tf.end_value],
    }, tf.to_csv)
    return 0 if drift < 1e-8 else 1


def cmd_bonnet_myers(config):
    sys_ = config.system
    task = config.task
    k_grid = task["k_grid"]
    record = _find_orbit(sys_, task, k_grid[0])
    if isinstance(record, solve.SearchFailure):
        _emit(config, "bonnet_myers", record.to_json())
        return 1
    family = [record]
    if len(k_grid) > 1:
        family += solve.continue_in_k(sys_, record, k_grid[1:], **_search_options(task))
    payload = {
        "schema_version": SCHEMA_VERSION, "kind": "bonnet_myers_sweep", "system": sys_.name,
        "k_grid": [float(k) for k in k_grid], "records": [r.to_json() for r in family],
    }
    _emit(config, "bonnet_myers", payload,
          lambda path: solve.family_to_csv(path, family))
    ok = all(isinstance(r, solve.OrbitRecord) and r.certified
             and r.checks.get("bonnet_myers_ok", False) for r in family)
    return 0 if ok else 1


def cmd_mane_bound(config):
    sys_ = config.system
    task = config.task
    if "center" in task:
        center = np.asarray(task["center"], dtype=float)
    elif sys_.name.startswith("hyperbolic"):
        center = np.array([0.0, 2.0])
    else:
        center = np.zeros(sys_.dim)
    boxes = []
    for radius in task["radii"]:
        box = [(float(c - radius), float(c + radius)) for c in center]
        if sys_.name.startswith("hyperbolic"):
            box[1] = (max(box[1][0], 0.1), box[1][1])
        boxes.append(box)
    report = loop_mod.mane_upper_bound(sys_, boxes, n_samples=task["samples"],
                                       seed=task["seed"])
    _emit(config, "mane_bound", report.to_json(), report.to_csv)
    return 0


def cmd_report(config):
    sys_ = config.system
    record = _find_orbit(sys_, config.task, config.task["k"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "system": sys_.name,
        "k": config.task["k"],
        "orbit": record.to_json(),
    }
    status = 0 if isinstance(record, solve.OrbitRecord) and record.certified else 1
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
            "schema_version": SCHEMA_VERSION, "kind": "error", "command": command,
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
        if "seed" not in config.task:
            print(f"config error: --seed: not read by command {config.command!r}",
                  file=sys.stderr)
            return 2
        config.task["seed"] = args.seed
    if args.out is not None:
        config.output["dir"] = args.out
    if args.format is not None:
        config.output["formats"] = (args.format,)

    return run(config, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
