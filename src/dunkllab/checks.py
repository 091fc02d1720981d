"""The one registry of check kinds and the parameters each kind accepts.

A check is registered once, next to its body in ``kernels`` or ``harness``,
with ``register`` and a table of ``Param`` entries: the parameter's JSON
schema and either a constant default or a ``Derived`` note saying how the
check works the value out from the context or the kernel.  That table alone
yields the per-kind ``params`` schema, the unknown-key check, the defaults,
the type coercion and the catalog of ``dunkllab list-checks``.  The grid
keys and ``spec`` reuse the schemas of a config's ``grid`` and ``kernel``
sections.  This module imports only the package's errors, so every module
that defines checks can register here.
A parameter says what to compute, never how to judge it: each criterion
is a module constant, read when its check runs and recorded in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import jsonschema

from .errors import ConfigError

GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "box": {"type": "number", "exclusiveMinimum": 0},
        "n_half": {"type": "integer", "minimum": 8},
        "freq_box": {"type": "number", "exclusiveMinimum": 0},
        "freq_n_half": {"type": "integer", "minimum": 8},
    },
}

#: one number per axis of the system (``"vector"`` is this module's own
#: keyword: validation given the dimension holds the length to it)
VECTOR_SCHEMA = {"type": "array", "minItems": 1, "items": {"type": "number"},
                 "vector": True}
#: a nonempty list of points or directions
POINTS_SCHEMA = {"type": "array", "minItems": 1, "items": VECTOR_SCHEMA}

KERNEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "directions": {**POINTS_SCHEMA, "items": {
            **POINTS_SCHEMA["items"], "contains": {"not": {"const": 0}}}},
        "ell": {"type": "integer", "enum": [1, 2, 3]},
        "eps": {"type": "number", "minimum": 0},
        "t": {"type": "number", "exclusiveMinimum": 0},
    },
}

_BOUNDS = {"minimum": ">=", "exclusiveMinimum": ">", "maximum": "<=",
           "exclusiveMaximum": "<"}


def json_path(parts) -> str:
    """``checks[0].params.n`` from ``("checks", 0, "params", "n")``."""
    out = ""
    for p in parts:
        out += f"[{p}]" if isinstance(p, int) else f".{p}" if out else str(p)
    return out or "(top level)"


@lru_cache(maxsize=None)
def _validator(dim: int | None):
    """Draft 2020-12 validation that takes tuples as arrays (for Python
    callers) and, when ``dim`` is known, holds vectors to ``dim`` numbers."""
    def vector(validator, flag, instance, schema):
        if dim is not None and isinstance(instance, (list, tuple)) \
                and len(instance) != dim:
            yield jsonschema.ValidationError(
                f"{list(instance)} has {len(instance)} components; the "
                f"system has dimension {dim}")
    base = jsonschema.Draft202012Validator
    return jsonschema.validators.extend(
        base, validators={"vector": vector},
        type_checker=base.TYPE_CHECKER.redefine(
            "array", lambda _, value: isinstance(value, (list, tuple))))


def validate(value, schema: dict, where: tuple, dim: int | None = None):
    """Raise a ConfigError naming the config path of the first error."""
    error = jsonschema.exceptions.best_match(
        _validator(dim)(schema).iter_errors(value))
    if error is not None:
        raise ConfigError(
            f"config error at {json_path((*where, *error.absolute_path))}: "
            f"{error.message}")


def coerce(value, schema: dict):
    """A schema-valid JSON value as the Python type its schema names."""
    kind = schema.get("type")
    if kind == "array":
        return [coerce(v, schema["items"]) for v in value]
    return {"number": float, "integer": int}.get(kind, lambda v: v)(value)


def type_text(schema: dict) -> str:
    """Catalog text for a schema: ``number > 0``, ``list of number``, ..."""
    if "enum" in schema:
        return f"{schema['type']} in {{{', '.join(map(str, schema['enum']))}}}"
    if schema.get("vector"):
        return "vector (one number per axis)"
    if schema["type"] == "array":
        distinct = (f"at least {schema['minItems']} distinct "
                    if schema.get("uniqueItems") else "")
        return "list of " + distinct + type_text(schema["items"])
    if schema["type"] == "object":
        return "object {" + ", ".join(schema["properties"]) + "}"
    excluded = [f"!= {schema['not']['const']:g}"] if "not" in schema else []
    return ", ".join([schema["type"]] + [f"{op} {schema[key]:g}" for key, op
                                         in _BOUNDS.items() if key in schema]
                     + excluded)


class Derived(str):
    """A default the check works out from the context or the kernel; the
    string says how."""


@dataclass(frozen=True)
class Param:
    """One accepted parameter: its JSON schema and its default."""
    name: str
    schema: dict
    default: object

    def default_text(self) -> str:
        return self.default if isinstance(self.default, Derived) \
            else json.dumps(self.default)


def number(name: str, default, **bounds) -> Param:
    return Param(name, {"type": "number", **bounds}, default)


def integer(name: str, default, **bounds) -> Param:
    return Param(name, {"type": "integer", **bounds}, default)


def numbers(name: str, default, **bounds) -> Param:
    """A nonempty list of numbers, each within ``bounds``."""
    return Param(name, {"type": "array", "minItems": 1,
                        "items": {"type": "number", **bounds}}, default)


def grid_params(**defaults) -> tuple[Param, ...]:
    """Grid keys for a check's own context, with the config's grid schemas."""
    return tuple(Param(key, GRID_SCHEMA["properties"][key], default)
                 for key, default in defaults.items())


SPEC = Param("spec", KERNEL_SCHEMA,
             Derived("the config's kernel (the heat kernel when absent)"))


@dataclass(frozen=True)
class Check:
    """A registered kind.  ``run(ctx, spec, params)`` returns its
    VerificationReport; ``params`` holds every declared parameter
    (``resolve``), as ``runner.run_check`` passes them."""
    kind: str
    run: Callable
    description: str
    params: tuple[Param, ...]

    @property
    def schema(self) -> dict:
        """The JSON schema of this kind's ``params``."""
        return {"type": "object", "additionalProperties": False,
                "properties": {p.name: p.schema for p in self.params}}

    def validate(self, params: dict, where: tuple = ("params",),
                 dim: int | None = None) -> None:
        """Reject undeclared keys and values outside their schemas (vectors
        of another length than ``dim``, when given); the error names the
        config path ``where`` plus the key."""
        accepted = sorted(p.name for p in self.params)
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ConfigError(
                f"config error at {json_path((*where, unknown[0]))}: "
                f"{self.kind!r} does not accept {unknown}; accepted: "
                f"{accepted}")
        validate(params, self.schema, where, dim)

    def resolve(self, params: dict | None = None,
                dim: int | None = None) -> dict:
        """Every declared parameter: given ones validated and coerced, the
        rest at their defaults, None for a derived one.  A given None counts
        as not given, so a resolved dict resolves to itself."""
        given = {k: v for k, v in (params or {}).items() if v is not None}
        self.validate(given, dim=dim)
        values = {p.name: given.get(p.name, p.default) for p in self.params}
        return {p.name: None if isinstance(values[p.name], Derived)
                else coerce(values[p.name], p.schema) for p in self.params}


CHECKS: dict[str, Check] = {}


def register(kind: str, description: str, *params: Param):
    """Decorator entering ``fn(ctx, spec, params)`` as the check ``kind``."""
    def enter(fn):
        CHECKS[kind] = Check(kind, fn, description, params)
        return fn
    return enter
