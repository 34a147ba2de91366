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
``derivatives = fd`` is requested (with an optional ``fd_step``).  A
``[system]``, ``[task]`` or ``[output]`` key that the run would not read is
reported, the ``[task]`` keys of each command as ``COMMAND_KEYS`` lists
them; the task holds every optional key with its default filled in, but
for those whose default the run derives from the system.  Numbers must
be finite.  A point or vector key (``seed_x``, ``seed_v``, ``v0``, ``center``)
needs one entry per coordinate, and ``seed_v`` must be nonzero.  Like every
field callback, those of an expression system evaluate a point or a stack of
points in one call: each entry is one numpy evaluation of its expression
over the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError
from .expr import parse_expression
from .geom import ChartedSystem
from .systems import BUILTINS

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
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _as_int(raw):
    value = _as_float(raw)
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


def _as_list(raw, conv=_as_float):
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
            if _entry_prefix(key) != prefix:
                continue
            tail = key[len(prefix):]
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
            problems.append("system.fd_step: not a finite number")
            return None
        if fd_step <= 0:
            problems.append("system.fd_step: must be positive")
            return None

    lattice = None
    if "lattice" in sysc:
        try:
            lattice = tuple(_as_list(sysc["lattice"]))
        except ValueError:
            problems.append("system.lattice: not a list of finite numbers")
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


_BUILTIN_PARAMETERS = ("b", "base", "amp")
_BUILTIN_KEYS = ("builtin",) + _BUILTIN_PARAMETERS
_EXPRESSION_KEYS = ("dimension", "derivatives", "lattice")
_ENTRY_PREFIXES = ("g", "sigma", "theta")


def _entry_prefix(key):
    """The field of an expression-system entry key like g12, sigma13 or
    theta2, or None."""
    for prefix in _ENTRY_PREFIXES:
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            return prefix
    return None


def _unknown_system_keys(sysc):
    """The [system] keys the system build would not read, sorted."""
    if "builtin" in sysc:
        return sorted(set(sysc) - set(_BUILTIN_KEYS))
    known = set(_EXPRESSION_KEYS)
    if sysc.get("derivatives") == "fd":
        known.add("fd_step")
    return sorted(key for key in sysc if key not in known and _entry_prefix(key) is None)


def _build_system(sysc, problems):
    problems.extend(f"system.{key}: unknown key" for key in _unknown_system_keys(sysc))
    if "builtin" in sysc:
        name = sysc["builtin"]
        if name not in BUILTINS:
            problems.append(f"system.builtin: unknown builtin {name!r} "
                            f"(available: {sorted(BUILTINS)})")
            return None
        kwargs = {}
        for key in _BUILTIN_PARAMETERS:
            if key in sysc:
                try:
                    kwargs[key] = _as_float(sysc[key])
                except ValueError:
                    problems.append(f"system.{key}: not a finite number")
        try:
            return BUILTINS[name](**kwargs)
        except TypeError as exc:
            problems.append(f"system.builtin: {exc}")
            return None
    return _build_expression_system(sysc, problems)


_TASK_CONVERTERS = {
    "k": _as_float,
    "k_grid": _as_list,
    "k0": _as_float,
    "t_end": _as_float,
    "t_guess": _as_float,
    "tolerance": _as_float,
    "seed": _as_int,
    "seed_x": _as_list,
    "seed_v": _as_list,
    "v0": _as_list,
    "nodes": _as_int,
    "modes": _as_int,
    "samples": _as_int,
    "sample_budget": _as_int,
    "k_steps": _as_int,
    "grid": lambda raw: _as_list(raw, _as_int),
    "contractible": _as_bool,
    "center": _as_list,
    "radii": _as_list,
}

# the optional keys of the point-seed orbit search
_ORBIT_SEARCH_KEYS = {"seed_x": None, "seed_v": None, "t_guess": None, "tolerance": 1e-12,
                      "nodes": 512, "modes": 32, "contractible": True}
# command: (the [task] keys it requires, {optional key it reads: its default}),
# where a default of None is derived from the system by the run
COMMAND_KEYS = {
    "integrate": (("k",), {"seed_x": None, "seed_v": None, "t_end": 4.0 * math.pi,
                           "tolerance": 1e-10, "samples": 513}),
    "curvature": (("k",), {"samples": 256, "seed": DEFAULT_SEED}),
    "scan-k0": (("k_grid",), {"sample_budget": 128, "seed": DEFAULT_SEED}),
    "theorem-b": (("k0",), {"k_steps": 8, "grid": (24, 24)}),
    "find-orbit": (("k",), _ORBIT_SEARCH_KEYS),
    "index": (("k",), _ORBIT_SEARCH_KEYS),
    "transport": (("k",), {"seed_x": None, "seed_v": None, "t_end": 2.0 * math.pi,
                           "tolerance": 1e-10, "v0": None}),
    "bonnet-myers": (("k_grid",), _ORBIT_SEARCH_KEYS),
    "mane-bound": (("radii",), {"center": None, "samples": 2048, "seed": DEFAULT_SEED}),
    "report": (("k",), {**_ORBIT_SEARCH_KEYS, "seed": DEFAULT_SEED}),
}

_POSITIVE_KEYS = ("k", "k0", "t_end", "t_guess", "tolerance", "nodes", "modes",
                  "samples", "sample_budget", "k_steps")


def _build_task(taskc, problems):
    if "command" not in taskc:
        problems.append("task.command: required")
        return None
    command = taskc["command"]
    if command not in COMMAND_KEYS:
        problems.append(f"task.command: unknown command {command!r} "
                        f"(available: {', '.join(COMMAND_KEYS)})")
        return None
    required, optional = COMMAND_KEYS[command]
    task = {"command": command}
    for key, raw in taskc.items():
        if key == "command":
            continue
        if key not in _TASK_CONVERTERS:
            problems.append(f"task.{key}: unknown key")
        elif key not in required and key not in optional:
            problems.append(f"task.{key}: not read by command {command!r}")
        else:
            try:
                task[key] = _TASK_CONVERTERS[key](raw)
            except ValueError:
                problems.append(f"task.{key}: could not parse {raw!r}")
    problems.extend(f"task.{key}: required by command {command!r}"
                    for key in required if key not in taskc)
    for key in _POSITIVE_KEYS:
        if key in task and task[key] <= 0:
            problems.append(f"task.{key}: must be positive")
    if "k_grid" in task:
        grid = task["k_grid"]
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] <= 0:
            problems.append("task.k_grid: must be strictly increasing and positive")
    for key, default in optional.items():
        if default is not None:
            task.setdefault(key, default)
    return task


# [task] keys that hold a point or a vector of the chart
_VECTOR_KEYS = ("seed_x", "seed_v", "v0", "center")


def _check_vectors(task, dim, problems):
    """Each point or vector key of the task has one entry per coordinate,
    and the seed velocity is nonzero (it is scaled to the energy level)."""
    for key in _VECTOR_KEYS:
        if key in task and len(task[key]) != dim:
            problems.append(f"task.{key}: needs {dim} entries, one per coordinate, "
                            f"got {len(task[key])}")
    if len(task.get("seed_v", ())) == dim and not any(task["seed_v"]):
        problems.append("task.seed_v: must be nonzero")


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
    if system is not None and task is not None:
        _check_vectors(task, system.dim, problems)
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
