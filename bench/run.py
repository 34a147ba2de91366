"""Benchmark of the maggeo toolkit: end-to-end timings and per-layer traces.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload sweep|descent|scan --seed N --seconds S --trace 0|1

``--trace 0`` times set-up (fresh interpreters) and repeats the workload's
operation, each time on inputs drawn from (seed, operation number), until
``S`` seconds are used; it reports the end-to-end metrics, calibrated
against the machine's speed (see ``calibration.py``).  ``--trace 1``
runs one operation untraced and two traced with spans around every call
into the maggeo modules; it reports the per-layer metrics, the tracing
overhead, and any count that differs between the two traced runs.  Every
output is checked.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", "_work")

# single process, no worker threads, single-threaded BLAS: the operations
# are serial, and BLAS threads that wait on a busy second CPU add noise
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# calibration pieces run back to back before and after each set-up
SETUP_CALIBRATION_S = 0.05
# every run takes at least this many operations, so that no single one
# decides wall_s
MIN_OPERATIONS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "flow.integrations": "count", "flow.nfev": "count", "flow.s": "s",
    "flow.us_per_rhs": "us",
    "geom.field_evals": "count", "geom.field_s": "s", "geom.tensor_calls": "count",
    "geom.tensor_s": "s", "geom.us_per_tensor": "us",
    "expr.evals": "count", "expr.s": "s",
    "magcurv.calls": "count", "magcurv.s": "s",
    "loop.geometry_builds": "count", "loop.geometry_s": "s", "loop.index_s": "s",
    "loop.hessian_s": "s", "loop.gram_s": "s", "loop.eigh_s": "s",
    "loop.eta_evals": "count",
    "solve.shoot_calls": "count", "solve.shoot_residuals": "count",
    "solve.useful_ratio": "ratio", "solve.lm_nfev": "count", "solve.lm_s": "s",
    "solve.certify_s": "s",
    "cli.config_s": "s", "cli.emit_s": "s", "cli.bytes_out": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "trace.count_mismatches": "count",
}


def environment():
    import numpy
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "maggeo")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def time_setup(workload, calibration):
    """Median wall time of a fresh interpreter that imports maggeo and
    builds the workload's system (parsing its config for CLI workloads),
    raw and calibrated by the pieces run just before and after each."""
    from calibration import reference_seconds

    code = f"import sys\nsys.path.insert(0, {SRC!r})\n" + workload.setup_source()
    samples, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        pieces = calibration.sample(SETUP_CALIBRATION_S)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        pieces += calibration.sample(SETUP_CALIBRATION_S)
        calibrated.append(reference_seconds(samples[-1], pieces))
    return statistics.median(samples), statistics.median(calibrated)


class Runner:
    """Runs operations of one workload in a scratch directory of the checkout."""

    def __init__(self, name, seed, reference):
        self.name, self.seed, self.reference = name, seed, reference
        self.workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.count = 0
        self.calibration = None
        self.last_pieces = None

    def fresh_dir(self):
        self.count += 1
        path = os.path.join(self.workdir, f"op{self.count}")
        os.makedirs(path)
        return path

    def operation(self, workload, tracer=None):
        """Prepare (untimed), then time run + check.  Returns (seconds,
        outcome or None, problems, bytes written).  Untraced and with a
        calibration set, the calibration runs during run + check, its piece
        times are left in ``last_pieces`` and out of the seconds."""
        outdir = self.fresh_dir()
        calibrated = self.calibration is not None and tracer is None
        with tracer.installed() if tracer else contextlib.nullcontext():
            prepared = workload.prepare(outdir)
            with self.calibration.running() if calibrated else contextlib.nullcontext([]) \
                    as pieces:
                t0 = time.perf_counter()
                try:
                    outcome = workload.run(prepared, outdir)
                    problems = workload.check(outcome)
                except Exception as exc:  # a failed operation is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
                seconds = time.perf_counter() - t0 - sum(pieces)
        self.last_pieces = pieces if calibrated else None
        bytes_out = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
        shutil.rmtree(outdir)
        for problem in problems:
            print(f"check failed ({self.name}, op {self.count}): {problem}", file=sys.stderr)
        return seconds, outcome, problems, bytes_out

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass


def measure(runner, seconds):
    """Untraced: operations on fresh inputs until the time budget is used.
    Returns the operation times, raw and calibrated, and the failures."""
    from calibration import reference_seconds
    from workloads import draw

    samples, calibrated, failed = [], [], 0
    started = time.perf_counter()
    while True:
        workload = draw(runner.name, runner.seed, len(samples), runner.reference)
        elapsed, _, problems, _ = runner.operation(workload)
        samples.append(elapsed)
        if runner.last_pieces:
            calibrated.append(reference_seconds(elapsed, runner.last_pieces))
        failed += bool(problems)
        # start another operation only if it should end within the budget
        if (len(samples) >= MIN_OPERATIONS and
                time.perf_counter() - started + statistics.median(samples) > seconds):
            return samples, calibrated, failed


def layer_metrics(tracer, bytes_out):
    from spans import LM_RESIDUAL, bucket_of

    per = tracer.per_name()

    def calls(*names):
        return sum(per[name][0] for name in names if name in per)

    def bucket_calls(bucket):
        return sum(c for name, (c, _, _) in per.items() if bucket_of(name) == bucket)

    def self_s(bucket):
        return sum(s for name, (_, s, _) in per.items() if bucket_of(name) == bucket)

    nfev = tracer.extra["flow.nfev"]
    integrate_s = per.get("maggeo.flow:integrate", (0, 0.0, 0.0))[2]
    tensor_s, tensor_spans = tracer.outermost_inclusive("geom.tensor")
    shoots = calls("maggeo.solve:shoot")
    return {
        "flow.integrations": calls("maggeo.flow:integrate"),
        "flow.nfev": nfev,
        "flow.s": self_s("flow"),
        "flow.us_per_rhs": 1e6 * integrate_s / nfev if nfev else 0.0,
        "geom.field_evals": bucket_calls("geom.field"),
        "geom.field_s": self_s("geom.field"),
        "geom.tensor_calls": bucket_calls("geom.tensor"),
        "geom.tensor_s": self_s("geom.tensor"),
        "geom.us_per_tensor": 1e6 * tensor_s / tensor_spans if tensor_spans else 0.0,
        "expr.evals": calls("maggeo.expr:Expression.__call__"),
        "expr.s": self_s("expr"),
        "magcurv.calls": bucket_calls("magcurv"),
        "magcurv.s": self_s("magcurv"),
        "loop.geometry_builds": calls("maggeo.loop:_LoopGeometry.__init__"),
        "loop.geometry_s": self_s("loop.geometry"),
        "loop.index_s": self_s("loop.index"),
        "loop.hessian_s": self_s("loop.hessian"),
        "loop.gram_s": self_s("loop.gram"),
        "loop.eigh_s": self_s("loop.eigh"),
        "loop.eta_evals": calls("maggeo.loop:eta_k", "maggeo.loop:eta_norm"),
        "solve.shoot_calls": shoots,
        "solve.shoot_residuals": calls("maggeo.solve:_residual"),
        "solve.useful_ratio": tracer.extra["solve.certified"] / shoots if shoots else 0.0,
        "solve.lm_nfev": calls(LM_RESIDUAL),
        "solve.lm_s": self_s("solve.lm"),
        "solve.certify_s": self_s("solve.certify"),
        "cli.config_s": self_s("cli.config"),
        "cli.emit_s": self_s("cli.emit"),
        "cli.bytes_out": bytes_out,
        "trace.spans": tracer.spans(),
    }


def print_spans(tracer, limit=30):
    """The spans with the most self time, to standard error."""
    per = sorted(tracer.per_name().items(), key=lambda item: -item[1][1])
    print(f"{'span':<52} {'calls':>9} {'self_s':>9} {'total_s':>9} {'us/call':>9}",
          file=sys.stderr)
    for name, (calls, self_s, total_s) in per[:limit]:
        print(f"{name:<52} {calls:>9} {self_s:>9.3f} {total_s:>9.3f} "
              f"{1e6 * total_s / calls:>9.1f}", file=sys.stderr)


def traced(runner):
    """One untraced and two traced operations on the same inputs; the traced
    ones must write the same bytes as the untraced one and repeat every count."""
    from spans import Tracer
    from workloads import draw

    workload = draw(runner.name, runner.seed, 0, runner.reference)
    base_s, base, problems, _ = runner.operation(workload)
    failed = bool(problems)
    layers = []
    for _ in range(2):
        tracer = Tracer()
        wall_s, outcome, problems, bytes_out = runner.operation(workload, tracer)
        metrics = layer_metrics(tracer, bytes_out)
        metrics["trace.wall_s"] = wall_s
        extra = []
        if base is not None and outcome is not None and outcome.files != base.files:
            extra.append("output bytes differ from the untraced operation")
        if layers:
            first = layers[0]
            mismatched = [name for name, unit in PER_LAYER_UNITS.items()
                          if unit == "count" and name in metrics and first[name] != metrics[name]]
            extra += [f"count differs between traced runs: {name} {first[name]} != "
                      f"{metrics[name]}" for name in mismatched]
        else:
            print_spans(tracer)
        for problem in extra:
            print(f"check failed ({runner.name}, traced): {problem}", file=sys.stderr)
        failed += bool(problems or extra)
        layers.append(metrics)
    first = layers[0]
    first["trace.overhead_s"] = first["trace.wall_s"] - base_s
    first["trace.count_mismatches"] = len(mismatched)
    return first, 3, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "descent", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "maggeo", "__init__.py")):
        print(f"bench: no maggeo sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import maggeo
    from calibration import Calibration
    from workloads import draw, load_reference

    if os.path.dirname(os.path.abspath(maggeo.__file__)) != os.path.join(SRC, "maggeo"):
        print(f"bench: imported maggeo from {maggeo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    runner = Runner(args.workload, args.seed, load_reference())
    try:
        if args.trace:
            metrics, attempted, failed = traced(runner)
            units = PER_LAYER_UNITS
        else:
            runner.calibration = Calibration()
            setup_raw, setup_s = time_setup(draw(args.workload, args.seed, 0, runner.reference),
                                            runner.calibration)
            samples, calibrated, failed = measure(runner, args.seconds)
            attempted = len(samples)
            metrics = {
                "wall_s": statistics.median(calibrated),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            print(f"operation times, raw ({attempted}, median "
                  f"{statistics.median(samples):.3f}): " + ", ".join(f"{s:.3f}" for s in samples))
            print(f"calibrated: " + ", ".join(f"{s:.3f}" for s in calibrated))
            print(f"set-up, raw median: {setup_raw:.4f}")
    finally:
        runner.close()

    print(f"{'metric':<24} {'value':>14}  unit")
    for name, unit in units.items():
        print(f"{name:<24} {metrics[name]:>14.6g}  {unit}")
    print(f"{'failed_frac':<24} {failed / attempted:>14.6g}  ratio "
          f"({failed} of {attempted} operations failed a check)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
