"""Run configuration: a flat sectioned key = value text format.

Example::

    [system]
    builtin = flat_torus
    b = 1.0

    [task]
    command = find-orbit
    k = 0.5

    [output]
    dir = out
    formats = json, csv

Sections are ``[system]``, ``[task]`` and ``[output]``; values are
numbers, bare strings, booleans, or comma-separated lists.  ``#`` starts
a comment.  User-defined systems give metric entries ``g11, g12, ...``,
two-form entries ``sigma12, ...`` and optional primitive entries
``theta1, ...`` as arithmetic expressions in x1..xn; expression systems
get analytic derivative callbacks by symbolic differentiation unless
``derivatives = fd`` is requested.  Like every field callback, those of an
expression system evaluate a point or a stack of points in one call: each
entry is one numpy evaluation of its expression over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError
from .expr import parse_expression
from .geom import ChartedSystem
from .systems import BUILTINS

COMMANDS = (
    "integrate", "curvature", "scan-k0", "theorem-b", "find-orbit",
    "index", "transport", "bonnet-myers", "mane-bound", "report",
)

DEFAULT_SEED = 20240
DEFAULT_FORMATS = ("json", "csv")


def parse_sections(text):
    """Parse the sectioned key=value format into {section: {key: raw string}}."""
    sections = {}
    current = None
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                problems.append(f"line {lineno}: duplicate section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value")
            continue
        if current is None:
            problems.append(f"line {lineno}: key outside any section")
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        if key in sections[current]:
            problems.append(f"line {lineno}: duplicate key {current}.{key}")
        sections[current][key] = value.strip()
    if problems:
        raise ConfigError(problems)
    return sections


def _as_float(raw):
    return float(raw)


def _as_int(raw):
    value = float(raw)
    if value != int(value):
        raise ValueError("not an integer")
    return int(value)


def _as_bool(raw):
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError("not a boolean")


def _as_list(raw, conv=float):
    return [conv(part.strip()) for part in raw.split(",") if part.strip()]


@dataclass
class RunConfig:
    system: ChartedSystem
    task: dict
    output: dict
    sections: dict = field(default_factory=dict)

    @property
    def command(self):
        return self.task["command"]


def _expression_field(dim, rank, entries, transpose=None):
    """Field callback of an expression system: x -> (..., dim^rank) array
    whose entry [i, j, ...] is ``entries[(i, j, ...)]`` evaluated on the
    point or stack x, with [j, i, ...] set to ``transpose`` times it when
    given (symmetric or antisymmetric first index pair) and 0 elsewhere."""
    def field(x):
        out = np.zeros(x.shape[:-1] + (dim,) * rank)
        for key, expr in entries.items():
            value = expr(x)
            out[(Ellipsis,) + key] = value
            if transpose is not None:
                out[(Ellipsis, key[1], key[0]) + key[2:]] = transpose * value
        return out
    return field


def _build_expression_system(sysc, problems):
    dim = None
    if "dimension" in sysc:
        try:
            dim = _as_int(sysc["dimension"])
        except ValueError:
            problems.append("system.dimension: not an integer")
            return None
        if dim < 2:
            problems.append("system.dimension: must be >= 2")
            return None
    if dim is None:
        problems.append("system.dimension: required for expression systems")
        return None

    def grab(prefix, pairs):
        out = {}
        for key, raw in sysc.items():
            if not key.startswith(prefix):
                continue
            tail = key[len(prefix):]
            if not tail.isdigit():
                continue
            try:
                expr = parse_expression(raw)
            except ParseError as exc:
                problems.append(f"system.{key}: {exc}")
                continue
            if expr.max_coordinate() > dim:
                problems.append(f"system.{key}: references coordinate beyond dimension {dim}")
                continue
            if pairs:
                if len(tail) != 2:
                    problems.append(f"system.{key}: expected two indices like {prefix}12")
                    continue
                i, j = int(tail[0]), int(tail[1])
                if not (1 <= i <= dim and 1 <= j <= dim):
                    problems.append(f"system.{key}: index out of range")
                    continue
                out[(i - 1, j - 1)] = expr
            else:
                i = int(tail)
                if not (1 <= i <= dim):
                    problems.append(f"system.{key}: index out of range")
                    continue
                out[(i - 1,)] = expr
        return out

    g_entries = grab("g", pairs=True)
    s_entries = grab("sigma", pairs=True)
    t_entries = grab("theta", pairs=False)
    for i in range(dim):
        if (i, i) not in g_entries:
            problems.append(f"system.g{i+1}{i+1}: missing metric diagonal entry")
    if problems:
        return None

    scheme = sysc.get("derivatives", "analytic")
    if scheme not in ("analytic", "fd"):
        problems.append("system.derivatives: must be 'analytic' or 'fd'")
        return None
    fd_step = 1e-5
    if "fd_step" in sysc:
        try:
            fd_step = _as_float(sysc["fd_step"])
        except ValueError:
            problems.append("system.fd_step: not a number")
            return None
        if fd_step <= 0:
            problems.append("system.fd_step: must be positive")
            return None

    lattice = None
    if "lattice" in sysc:
        try:
            lattice = tuple(_as_list(sysc["lattice"]))
        except ValueError:
            problems.append("system.lattice: not a list of numbers")
            return None
        if len(lattice) != dim:
            problems.append("system.lattice: needs one period per coordinate")
            return None

    metric = _expression_field(dim, 2, g_entries, 1.0)
    two_form = _expression_field(dim, 2, s_entries, -1.0)
    primitive = _expression_field(dim, 1, t_entries) if t_entries else None
    kwargs = dict(dim=dim, metric=metric, two_form=two_form, primitive=primitive,
                  lattice=lattice, name="expression_system")
    if scheme == "fd":
        return ChartedSystem(scheme="fd", fd_step=fd_step, **kwargs)

    vars_ = [f"x{i+1}" for i in range(dim)]

    def diff(entries):
        """The coordinate derivatives of the entries, indexed last."""
        return {key + (a,): expr.diff(v) for key, expr in entries.items()
                for a, v in enumerate(vars_)}

    dg = diff(g_entries)
    dmetric = _expression_field(dim, 3, dg, 1.0)
    d2metric = _expression_field(dim, 4, diff(dg), 1.0)
    dtwo_form = _expression_field(dim, 3, diff(s_entries), -1.0)
    return ChartedSystem(scheme="analytic", dmetric=dmetric, d2metric=d2metric,
                         dtwo_form=dtwo_form, **kwargs)


def _build_system(sysc, problems):
    if "builtin" in sysc:
        name = sysc["builtin"]
        if name not in BUILTINS:
            problems.append(f"system.builtin: unknown builtin {name!r} "
                            f"(available: {sorted(BUILTINS)})")
            return None
        kwargs = {}
        for key in ("b", "base", "amp"):
            if key in sysc:
                try:
                    kwargs[key] = _as_float(sysc[key])
                except ValueError:
                    problems.append(f"system.{key}: not a number")
        try:
            return BUILTINS[name](**kwargs)
        except TypeError as exc:
            problems.append(f"system.builtin: {exc}")
            return None
    return _build_expression_system(sysc, problems)


_TASK_SPECS = {
    # key: (converter, required-for commands)
    "k": (_as_float, ("integrate", "curvature", "find-orbit", "index",
                      "transport", "report")),
    "k_grid": (lambda raw: _as_list(raw), ("scan-k0", "bonnet-myers")),
    "k0": (_as_float, ("theorem-b",)),
    "t_end": (_as_float, ()),
    "t_guess": (_as_float, ()),
    "tolerance": (_as_float, ()),
    "seed": (_as_int, ()),
    "seed_x": (lambda raw: _as_list(raw), ()),
    "seed_v": (lambda raw: _as_list(raw), ()),
    "v0": (lambda raw: _as_list(raw), ()),
    "nodes": (_as_int, ()),
    "modes": (_as_int, ()),
    "samples": (_as_int, ()),
    "sample_budget": (_as_int, ()),
    "k_steps": (_as_int, ()),
    "grid": (lambda raw: _as_list(raw, _as_int), ()),
    "contractible": (_as_bool, ()),
    "center": (lambda raw: _as_list(raw), ()),
    "radii": (lambda raw: _as_list(raw), ("mane-bound",)),
}

_POSITIVE_KEYS = ("k", "k0", "t_end", "t_guess", "tolerance", "nodes", "modes",
                  "samples", "sample_budget", "k_steps")


def _build_task(taskc, problems):
    if "command" not in taskc:
        problems.append("task.command: required")
        return None
    command = taskc["command"]
    if command not in COMMANDS:
        problems.append(f"task.command: unknown command {command!r} "
                        f"(available: {', '.join(COMMANDS)})")
        return None
    task = {"command": command}
    for key, raw in taskc.items():
        if key == "command":
            continue
        if key not in _TASK_SPECS:
            problems.append(f"task.{key}: unknown key")
            continue
        conv, _ = _TASK_SPECS[key]
        try:
            task[key] = conv(raw)
        except ValueError:
            problems.append(f"task.{key}: could not parse {raw!r}")
    for key, (_, required_for) in _TASK_SPECS.items():
        if command in required_for and key not in task:
            problems.append(f"task.{key}: required by command {command!r}")
    for key in _POSITIVE_KEYS:
        if key in task and task[key] <= 0:
            problems.append(f"task.{key}: must be positive")
    if "k_grid" in task:
        grid = task["k_grid"]
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] <= 0:
            problems.append("task.k_grid: must be strictly increasing and positive")
    task.setdefault("seed", DEFAULT_SEED)
    return task


def _build_output(outc, problems):
    output = {"dir": outc.get("dir", "out")}
    if "formats" in outc:
        formats = tuple(part.strip() for part in outc["formats"].split(",") if part.strip())
        bad = [f for f in formats if f not in ("csv", "json")]
        if bad:
            problems.append(f"output.formats: unsupported {bad} (use csv, json)")
        output["formats"] = formats
    else:
        output["formats"] = DEFAULT_FORMATS
    for key in outc:
        if key not in ("dir", "formats"):
            problems.append(f"output.{key}: unknown key")
    return output


def load_config(path):
    with open(path) as fh:
        text = fh.read()
    return parse_config(text)


def parse_config(text):
    sections = parse_sections(text)
    problems = []
    for name in sections:
        if name not in ("system", "task", "output"):
            problems.append(f"[{name}]: unknown section")
    if "system" not in sections:
        problems.append("[system]: required section")
    if "task" not in sections:
        problems.append("[task]: required section")
    if problems:
        raise ConfigError(problems)

    system = _build_system(dict(sections["system"]), problems)
    task = _build_task(dict(sections["task"]), problems)
    output = _build_output(dict(sections.get("output", {})), problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(system=system, task=task, output=output, sections=sections)


def serialize_config(config):
    """Canonical text rendering; parse(serialize(parse(text))) is stable."""
    lines = []
    for section in ("system", "task", "output"):
        body = config.sections.get(section)
        if body is None:
            continue
        lines.append(f"[{section}]")
        for key in sorted(body):
            lines.append(f"{key} = {body[key]}")
        lines.append("")
    return "\n".join(lines)
