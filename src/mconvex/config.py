"""Declarative analysis configuration: YAML document, env overrides, schema.

One config drives one batch run. The document is a nested key/value
mapping; any key can be overridden from the environment with the
``MCONVEX_`` prefix, double underscores separating nesting levels
(``MCONVEX_BARRIER__M=2`` sets ``barrier.m``). ``SCHEMA`` is the one table
of keys: ``validate`` walks it, rejects every key it does not list for the
config's kind, and reports each violation with the offending field path.
docs/config.md documents the same table.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass
from typing import Any, Optional

import yaml

from . import barrier, discs, hyperbolicity, surfaces

ENV_PREFIX = "MCONVEX_"

FORMATS = ("json-lines", "csv-summary")

REQUIRED = object()


class ConfigError(ValueError):
    """Schema violation carrying the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Key:
    """One schema row. ``default`` is REQUIRED, None (absent unless given) or
    a value checked like a given one; ``range`` is an interval like ``"(0, 1]"``
    on a number or a list's length; ``choices`` may map each allowed value to
    the rows it brings; ``item`` (a Key, or a record of rows) checks list
    entries; ``given_with`` names a key required whenever this one is given;
    ``holds`` is a (predicate, message) pair the checked value must satisfy:
    the predicate returns True, or else False or the (path suffix, value) of
    the part at fault.
    """

    type: type
    default: Any = REQUIRED
    range: Optional[str] = None
    choices: Any = None
    item: Any = None
    given_with: Optional[str] = None
    holds: Optional[tuple] = None


POSITIVE, NONNEGATIVE, COUNT = "(0, inf)", "[0, inf)", "[1, inf)"
# a domain length: the catalog fields square coordinates, and the squares of
# points 10^4 such lengths out still stay finite
LENGTH = "(0, 1e150]"
_N = surfaces.AMBIENT_DIM


def _vector(default=REQUIRED, **rules) -> Key:
    return Key(list, default, f"[{_N}, {_N}]", item=Key(float), **rules)


# m of an m-convex domain in R^n: the curvature-sum and plurisubharmonicity order
_M = Key(int, REQUIRED, f"[1, {_N - 1}]")

_BARRIER = {
    "barrier.m": _M,
    "barrier.epsilon": Key(float, None, POSITIVE),
    "barrier.epsilon_fraction": Key(float, 0.8, "(0, 1]"),
    "barrier.alpha": Key(float, None, POSITIVE),
    "barrier.safety": Key(float, 0.99, "(0, 1)"),
    "barrier.ratios": Key(list, [0.9, 0.6, 0.3], "[3, 3]", item=Key(float, range="(0, 1)"),
                          holds=(lambda r: r[2] < r[1], "eps1/eps0 must lie below eps2/eps0")),
    "barrier.cap_degree": Key(int, 3, choices=tuple(barrier.CAP_POLYNOMIALS)),
    "barrier.psh_tol": Key(float, 1e-8, NONNEGATIVE),
    "barrier.levels": Key(int, 10, COUNT),
    "barrier.fd_checks": Key(int, 0, NONNEGATIVE),
}

_CHART = {
    "scale": Key(float, 1.0, POSITIVE),
    "shift": _vector([0.0, 0.0, 0.0]),
    "radius": Key(float, 0.5, POSITIVE),
}

_MAP_TYPES = {
    "affine": {"p": _vector(), "u": _vector(), "w": _vector(),
               "radius": Key(float, 1.0, POSITIVE), "name": Key(str, "affine")},
    **{name: _CHART for name in discs.CHART_MAPS},
    **{name: {**_CHART, "center": Key(float, 0.0)} for name in discs.WEIERSTRASS_DATA},
}

_FIXTURE = {
    "name": Key(str),
    "normals": Key(list, range=COUNT, item=Key(list, item=Key(float))),
    "constants": Key(list, item=Key(float)),
    # a 2-plane needs two dimensions
    "interior": Key(list, range="[2, inf)", item=Key(float)),
    "contains_plane": Key(bool, None),
}


def _fixture_shapes(fixtures):
    """True, or the field of the first fixture off the k x n normals, k
    constants and n interior shapes, n being the first normal's length."""
    for i, fx in enumerate(fixtures):
        k, n = len(fx["normals"]), len(fx["normals"][0])
        for field, fits in (("normals", all(len(row) == n for row in fx["normals"])),
                            ("interior", len(fx["interior"]) == n),
                            ("constants", len(fx["constants"]) == k)):
            if not fits:
                return f"[{i}].{field}", fx[field]
    return True


_IN_SLICE = (lambda x: x[2] == 0.0, "must lie in the z = 0 slice")

# the rows of each kind; a row's last path component names its ``params`` entry
_KINDS = {
    "curvature": {"curvature.m": _M,
                  "curvature.flat_tol": Key(float, None, NONNEGATIVE),
                  "curvature.r0": Key(float, 1.0, NONNEGATIVE)},
    "reach": {"reach.m": _M, "reach.probes": Key(int, 16, COUNT)},
    "barrier": _BARRIER,
    "verify": _BARRIER,
    "subharmonicity": {
        **_BARRIER,
        "subharmonicity.tol": Key(float, 1e-8, NONNEGATIVE),
        "subharmonicity.negative_control": Key(bool, True),
        "subharmonicity.maps": Key(list, None, COUNT, item={"type": Key(str, choices=_MAP_TYPES)}),
    },
    "metric": {
        "metric.pairs": Key(int, 100, COUNT),
        "metric.max_radius": Key(float, 0.9, POSITIVE),
        "metric.tolerance": Key(float, 0.01, NONNEGATIVE),
        "metric.point": _vector(None, given_with="metric.direction"),
        "metric.direction": _vector(None, given_with="metric.point"),
    },
    "omega-d": {
        "omega_d.slice": Key(str, "punctured-plane", choices=tuple(hyperbolicity.SLICES)),
        "omega_d.p": _vector([0.0, 0.0, 0.0], holds=_IN_SLICE),
        "omega_d.q": _vector([1.0, 0.0, 0.0], holds=_IN_SLICE),
        "omega_d.ks": Key(list, [10, 100, 1000, 10000], COUNT, item=Key(int, range="[2, inf)")),
        "omega_d.threshold": Key(float, 0.01, POSITIVE),
    },
    "convex-classify": {"convex.fixtures": Key(list, REQUIRED, COUNT, item=_FIXTURE, holds=(
                            _fixture_shapes, "normals must be k x n, constants k and interior n")),
                        "convex.trials": Key(int, 10000, COUNT)},
}

KINDS = tuple(_KINDS)

SCHEMA = {
    "kind": Key(str, choices=_KINDS),
    "seed": Key(int, 0, NONNEGATIVE),
    "workers": Key(int, 1, COUNT),
    "output.path": Key(str, None),
    "output.format": Key(str, "json-lines", choices=FORMATS),
    # the catalog builder's parameters, each a length
    "domain.name": Key(str, "sphere", choices={
        name: {f"domain.{arg}": Key(float, None, LENGTH)
               for arg in inspect.signature(build).parameters}
        for name, build in surfaces.DOMAIN_BUILDERS.items()}),
    "grid.interior": Key(int, 2000, COUNT),
    "grid.boundary": Key(int, 400, COUNT),
}


@dataclass
class AnalysisConfig:
    """Validated run description; defaults filled in."""

    kind: str
    seed: int
    out: Optional[str]
    fmt: str
    workers: int
    domain: dict
    grid: dict
    params: dict
    raw: dict


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> dict:
    """Read the YAML document and apply environment + explicit overrides."""
    data: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigError(path, f"not valid YAML: {exc}") from exc
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config document must be a mapping")
    env = {name[len(ENV_PREFIX):].lower().replace("__", "."): _env_value(text)
           for name, text in sorted(os.environ.items()) if name.startswith(ENV_PREFIX)}
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    for key, value in {**env, **given}.items():
        *sections, leaf = key.split(".")
        node = data
        for part in sections:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[leaf] = value
    return data


def _env_value(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text


def validate(data: dict) -> AnalysisConfig:
    """Check the document against ``SCHEMA`` and fill defaults.

    ``data`` stays as loaded: it is the report's config echo."""
    values = _record(SCHEMA, data, "")

    def section(prefix: str) -> dict:
        return {path[len(prefix):]: value for path, value in values.items()
                if path.startswith(prefix) and value is not None}

    return AnalysisConfig(
        kind=values["kind"],
        seed=values["seed"],
        out=values["output.path"],
        fmt=values["output.format"],
        workers=values["workers"],
        domain=section("domain."),
        grid=section("grid."),
        params={path.rsplit(".", 1)[1]: values[path] for path in _KINDS[values["kind"]]},
        raw=data,
    )


def _record(rows: dict, node, where: str) -> dict:
    """Check one mapping against its rows; return the value of every row."""
    rows = dict(rows)
    for path, key in list(rows.items()):
        if isinstance(key.choices, dict):
            leaf = _leaves(node, rows, where).get(path)
            rows.update(key.choices[_value(where + path, key, leaf)])
    leaves = _leaves(node, rows, where)
    for path, value in leaves.items():
        section = path not in rows and any(row.startswith(path + ".") for row in rows)
        if path not in rows and not (section and value is None):
            raise ConfigError(where + path, "expected a mapping" if section else "unknown key")
    values = {path: _value(where + path, key, leaves.get(path)) for path, key in rows.items()}
    for path, key in rows.items():
        if key.given_with and values[path] is not None and values[key.given_with] is None:
            raise ConfigError(where + key.given_with, f"required with {where}{path}")
    return values


def _leaves(node, rows: dict, where: str, prefix: str = "") -> dict:
    """Values by dotted path, descending only into the sections ``rows`` name."""
    if not isinstance(node, dict):
        raise ConfigError(where[:-1] or "<root>", f"expected a mapping, got {type(node).__name__}")
    leaves = {}
    for name, value in node.items():
        path = prefix + str(name)
        if isinstance(value, dict) and any(row.startswith(path + ".") for row in rows):
            leaves.update(_leaves(value, rows, where, path + "."))
        else:
            leaves[path] = value
    return leaves


def _value(path: str, key: Key, value):
    if value is None:
        if key.default is REQUIRED:
            raise ConfigError(path, "missing required field")
        if key.default is None:
            return None
        value = key.default
    if key.type is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, key.type) or (isinstance(value, bool) and key.type is not bool):
        raise ConfigError(path, f"expected {key.type.__name__}, got {type(value).__name__}")
    if key.type is float and not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    if key.choices is not None and value not in key.choices:
        raise ConfigError(path, f"must be one of {list(key.choices)}, got {value!r}")
    size = len(value) if key.type is list else value
    if key.range is not None and not _inside(size, key.range):
        what = "length" if key.type is list else "value"
        raise ConfigError(path, f"{what} must lie in {key.range}, got {size!r}")
    if isinstance(key.item, Key):
        value = [_value(f"{path}[{i}]", key.item, v) for i, v in enumerate(value)]
    elif key.item is not None:
        value = [_record(key.item, v, f"{path}[{i}].") for i, v in enumerate(value)]
    fault = True if key.holds is None else key.holds[0](value)
    if fault is not True:
        part, value = fault or ("", value)
        raise ConfigError(path + part, f"{key.holds[1]}, got {value!r}")
    return value


def _inside(x, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < x if interval[0] == "(" else lo <= x
    return above and (x < hi if interval[-1] == ")" else x <= hi)
