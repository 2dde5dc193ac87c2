"""Scenario documents: the JSON contract consumed by the simulator and CLI.

A scenario fixes the model (k-NN or ABC), the initial configuration, the
update schedule, optional timed add/remove events, and the stopping rules.
Randomness is explicit: the initial generator, the schedule and the event
opinions each carry their own seed, so a scenario document is a complete,
reproducible description of a run.

Example document:

    {
      "name": "two-clusters",
      "model": {"kind": "knn", "k": 5},
      "initial": {"kind": "uniform_random", "n": 20,
                  "low": 0.0, "high": 1.0, "seed": 7},
      "schedule": {"kind": "uniform_random", "seed": 42},
      "events": [{"kind": "add", "step": 2,
                  "opinion": {"kind": "uniform_random", "low": 0, "high": 1}}],
      "event_seed": 11,
      "max_steps": 100000,
      "tol": 1e-9,
      "record_every": 1
    }

Each kind of object declares its fields and defaults once, as rows
`{key: (parse, default)}` in its spec class's FIELDS (SCENARIO_FIELDS at the
top level, GROUP_FIELDS for a clusters group, RANDOM_OPINION_FIELDS for an
add event's random opinion, ROBUSTNESS_FIELDS for a robustness document of
each mode); parsing and to_dict read them in row order.
validate_scenario gives a spec built in code a document's checks by
re-parsing its to_dict(), and simulate runs that re-parse.

The CLI's other documents parse here too: parse_configuration (classify),
parse_robustness (robustness add|remove) and parse_grid (sweep). Every
object in every document is checked for unknown keys, so a misspelt field
is an error (`initial.hgih: is not a known field`), not its default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Optional

from .dynamics import Configuration
from .numerics import FLOAT, BackendError, backend_of, format_scalar, parse_scalar
from .rng import SeededRng

DEFAULT_MAX_STEPS = 10**6
DEFAULT_TOL = 1e-9
ROBUSTNESS_MAX_STEPS = 10**5   # the step cap of a robustness run
ADDITION_TOL = 1e-12   # an addition run's tol; a removal run's is DEFAULT_TOL
REQUIRED = object()   # the default of a row whose key must be present


class ScenarioError(ValueError):
    """Invalid scenario document; message names the offending field."""


def _require(cond, field_name, message):
    if not cond:
        raise ScenarioError(f"{field_name}: {message}")


def _fields(raw: dict, rows: dict, where: str, known=("kind",)) -> dict:
    """{key: parse(value or default, name)} over `rows`, after rejecting a
    key outside `known` and the rows, so that a misspelt optional field
    cannot silently fall back to its default. An absent REQUIRED key is an
    error; `where` prefixes every field name in messages."""
    for key in raw:
        if key not in rows and key not in known:
            raise ScenarioError(f"{where}{key}: is not a known field")
    out = {}
    for key, (parse, default) in rows.items():
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ScenarioError(f"{where}{key}: is required")
        out[key] = parse(value, where + key)
    return out


def _string(value, field_name):
    _require(isinstance(value, str), field_name, "must be a string")
    return value


def _int_field(least, message):
    """The row parse of an integer field >= least. JSON true/false parse as
    Python bools, which are ints too, and are rejected."""
    def parse(value, field_name):
        _require(isinstance(value, int) and not isinstance(value, bool) and value >= least,
                 field_name, message)
        return value
    return parse


_positive = _int_field(1, "must be a positive integer")
_agent_id = _int_field(1, "must be a positive agent id")
_step = _int_field(0, "must be a nonnegative integer")


def _seed(value, field_name):
    """A SeededRng seed: an int, not a bool, or a str."""
    _require(isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)),
             field_name, "must be an integer or a string")
    return value


def parse_scalar_field(raw, field_name):
    """parse_scalar, with any rejection reported against field_name."""
    try:
        return parse_scalar(raw)
    except (ValueError, BackendError) as exc:
        raise ScenarioError(f"{field_name}: {exc}") from None


def _one_backend(values, field_name) -> tuple:
    """Parsed scalars (floats and Fractions) as a tuple; a mix of the two is
    rejected."""
    _require(len({type(v) for v in values}) == 1, field_name,
             "cannot mix exact and float scalars")
    return tuple(values)


def _finite_float(raw, field_name) -> float:
    """A JSON number as a float. Python's json also reads NaN, Infinity and
    ints too large for a float; all three are rejected."""
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    _require(number and abs(raw) <= sys.float_info.max, field_name,
             "must be a finite number")
    return float(raw)


def _tol(raw, field_name) -> float:
    tol = _finite_float(raw, field_name)
    _require(tol > 0, field_name, "must be a finite positive number")
    return tol


def _abc_d(value, field_name):
    _require(value is not None, field_name, "is required for the abc model")
    d = parse_scalar_field(value, field_name)
    _require(d >= 0, field_name, "must be >= 0")
    return d


def _opinions(values, field_name) -> tuple:
    """A non-empty list of scalars of one backend; errors name the index."""
    _require(isinstance(values, list) and values, field_name, "must be a non-empty list")
    try:
        parsed = list(map(parse_scalar, values))
    except (ValueError, BackendError):   # name the first bad entry
        parsed = [parse_scalar_field(v, f"{field_name}[{i}]") for i, v in enumerate(values)]
    return _one_backend(parsed, field_name)


GROUP_FIELDS = {"opinion": (parse_scalar_field, REQUIRED), "size": (_positive, REQUIRED)}


def _groups(groups, field_name) -> tuple:
    """A non-empty list of group objects as (opinion, size) pairs."""
    _require(isinstance(groups, list) and groups, field_name, "must be a non-empty list")
    parsed = []
    for i, g in enumerate(groups):
        entry = f"{field_name}[{i}]"
        _require(isinstance(g, dict) and "opinion" in g and "size" in g,
                 entry, "needs opinion and size")
        parsed.append(tuple(_fields(g, GROUP_FIELDS, f"{entry}.", known=()).values()))
    _one_backend([op for op, _ in parsed], field_name)
    return tuple(parsed)


def _list(value, field_name) -> list:
    _require(isinstance(value, list), field_name, "must be a list")
    return value


def _agents(agents, field_name) -> tuple:
    return tuple(_agent_id(a, f"{field_name}[{i}]")
                 for i, a in enumerate(_list(agents, field_name)))


RANDOM_OPINION_FIELDS = {"low": (_finite_float, 0.0), "high": (_finite_float, 1.0)}


def _event_opinion(op, field_name):
    """A scalar, or a descriptor kept as ("uniform_random", low, high)."""
    _require(op is not None, field_name, "is required")
    if not isinstance(op, dict):
        return parse_scalar_field(op, field_name)
    _require(op.get("kind") == "uniform_random", f"{field_name}.kind",
             "must be uniform_random")
    low, high = _fields(op, RANDOM_OPINION_FIELDS, f"{field_name}.").values()
    _require(low <= high, f"{field_name}.low", "must not exceed opinion.high")
    _require(math.isfinite(high - low), f"{field_name}.high",
             "must not exceed opinion.low by more than the largest float")
    return ("uniform_random", low, high)


def _kinded(cls, raw, field_name):
    """A spec of class `cls` from the object `raw`, whose kind picks its rows
    in cls.FIELDS; messages name its fields under field_name, if not ""."""
    _require(isinstance(raw, dict), field_name, "must be an object")
    where = f"{field_name}." if field_name else ""
    kind = raw.get("kind")
    rows = cls.FIELDS.get(kind) if isinstance(kind, str) else None
    if rows is None:
        raise ScenarioError(f"{where}kind: {cls.KIND_ERROR}")
    return cls(kind=kind, **_fields(raw, rows, where))


def _json(value):
    """A parsed value as a document writes it: a spec, random opinion or
    clusters group as its object, a Fraction as "p/q", a tuple as a list."""
    if isinstance(value, (float, int, str)):   # before the slower Fraction check
        return value
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, _Spec):
        return value.to_dict()
    if not isinstance(value, (tuple, list)):
        return value
    if value[:1] == ("uniform_random",):   # a list slice never equals a tuple
        return dict(zip(("kind", *RANDOM_OPINION_FIELDS), value))
    if value and isinstance(value[0], (tuple, dict)):   # clusters groups; a dict is written as is
        return [dict(zip(GROUP_FIELDS, map(_json, g))) if isinstance(g, tuple) else g
                for g in value]
    return list(map(_json, value))


class _Spec:
    """The one to_dict of the spec classes: kind, the fields of its kind's
    rows (an unknown kind has none), then any other field off its default,
    which a re-parse reports as a document's unknown key."""

    def to_dict(self) -> dict:
        kind = getattr(self, "kind", None)   # a ScenarioSpec has none
        rows = self.FIELDS.get(kind, {}) if kind is None or isinstance(kind, str) else {}
        out = {"kind": kind} if hasattr(self, "kind") else {}
        for key in rows:
            out[key] = _json(getattr(self, key))
        for f in fields(self):
            if f.name not in out and getattr(self, f.name) != f.default:
                out[f.name] = _json(getattr(self, f.name))
        return out


@dataclass(frozen=True)
class ModelSpec(_Spec):
    kind: str                 # "knn" | "abc"
    k: Optional[int] = None
    d: Optional[object] = None

    FIELDS = {"knn": {"k": (_positive, REQUIRED)}, "abc": {"d": (_abc_d, None)}}
    KIND_ERROR = "must be 'knn' or 'abc'"


@dataclass(frozen=True)
class InitialSpec(_Spec):
    kind: str                 # "uniform_random" | "explicit" | "clusters"
    n: Optional[int] = None
    low: float = 0.0
    high: float = 1.0
    seed: Optional[object] = None
    opinions: Optional[tuple] = None
    groups: Optional[tuple] = None   # of (opinion, size)

    FIELDS = {"uniform_random": {"n": (_positive, None), "low": (_finite_float, 0.0),
                                 "high": (_finite_float, 1.0), "seed": (_seed, REQUIRED)},
              "explicit": {"opinions": (_opinions, None)},
              "clusters": {"groups": (_groups, None)}}
    KIND_ERROR = "must be uniform_random, explicit or clusters"

    def size(self) -> int:
        return self.n if self.kind == "uniform_random" else len(self.fixed_opinions())

    def backend(self) -> str:
        """The run's backend: FLOAT for a random state, else the first parsed
        opinion's, as _one_backend has made them all floats or all Fractions."""
        return FLOAT if self.kind == "uniform_random" else backend_of(self.fixed_opinions()[0])

    def fixed_opinions(self) -> list:
        """The opinions of an explicit or clusters state, in agent order."""
        if self.kind == "explicit":
            return list(self.opinions)
        return [op for op, size in self.groups for _ in range(size)]


@dataclass(frozen=True)
class ScheduleSpec(_Spec):
    kind: str                 # "uniform_random" | "explicit" | "shrink"
    seed: Optional[object] = None
    agents: Optional[tuple] = None

    FIELDS = {"uniform_random": {"seed": (_seed, REQUIRED)},
              "explicit": {"agents": (_agents, None)}, "shrink": {}}
    KIND_ERROR = "must be uniform_random, explicit or shrink"


@dataclass(frozen=True)
class EventSpec(_Spec):
    kind: str                 # "add" | "remove"
    step: int
    opinion: Optional[object] = None   # scalar or ("uniform_random", lo, hi)
    agent: Optional[int] = None

    FIELDS = {"add": {"step": (_step, None), "opinion": (_event_opinion, None)},
              "remove": {"step": (_step, None), "agent": (_agent_id, None)}}
    KIND_ERROR = "must be 'add' or 'remove'"


def _event_step(raw, where) -> None:
    """An event's object and step are checked before its kind and keys."""
    _require(isinstance(raw, dict), where, "must be an object")
    _step(raw.get("step"), f"{where}.step")


def _events(raw, field_name) -> tuple:
    out = []
    for i, entry in enumerate(_list(raw, field_name)):
        _event_step(entry, f"{field_name}[{i}]")
        out.append(_kinded(EventSpec, entry, f"{field_name}[{i}]"))
    return tuple(out)


def _only_add(value, field_name) -> str:
    _require(value == "add", field_name, "must be 'add'")
    return value


# an addition of a robustness document may leave out its kind
ADDITION_FIELDS = {"kind": (_only_add, "add"), **EventSpec.FIELDS["add"]}


SCENARIO_FIELDS = {
    "name": (_string, "scenario"),
    "model": (partial(_kinded, ModelSpec), None),
    "initial": (partial(_kinded, InitialSpec), None),
    "schedule": (partial(_kinded, ScheduleSpec), None),
    "events": (_events, []),
    "event_seed": (_seed, 0),
    "max_steps": (_step, DEFAULT_MAX_STEPS),
    "tol": (_tol, DEFAULT_TOL),
    "record_every": (_positive, 1),
}


@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    model: ModelSpec
    initial: InitialSpec
    schedule: ScheduleSpec
    events: tuple = ()
    event_seed: object = 0
    max_steps: int = DEFAULT_MAX_STEPS
    tol: float = DEFAULT_TOL
    record_every: int = 1
    name: str = "scenario"

    FIELDS = {None: SCENARIO_FIELDS}

    def to_json(self) -> str:
        return json_text(self.to_dict())


def parse_scenario(raw: dict) -> ScenarioSpec:
    _require(isinstance(raw, dict), "scenario", "must be a JSON object")
    spec = ScenarioSpec(**_fields(raw, SCENARIO_FIELDS, "", known=()))
    _cross_checks(spec)
    return spec


def parse_grid(raw) -> list:
    """A sweep grid: a JSON array of scenario documents. An entry's error
    names its index, as in `[1].model.k: ...`."""
    _require(isinstance(raw, list), "grid", "must be a JSON array of scenarios")
    specs = []
    for i, entry in enumerate(raw):
        try:
            specs.append(parse_scenario(entry))
        except ScenarioError as exc:
            raise ScenarioError(f"[{i}].{exc}") from None
    return specs


def parse_configuration(raw, where="") -> Configuration:
    """A JSON array of opinions, or an object with one of `opinions` and
    `groups`, parsed as an explicit or clusters initial state; `where`
    prefixes the field names in error messages ("base." for a robustness
    base)."""
    if isinstance(raw, list):
        raw = {"opinions": raw}
    _require(isinstance(raw, dict) and ("opinions" in raw) != ("groups" in raw),
             where[:-1] or "configuration",
             "must be a JSON array or an object with one of 'opinions' and 'groups'")
    _fields(raw, {}, where, known=("opinions", "groups"))
    kind = "clusters" if "groups" in raw else "explicit"
    return Configuration(_kinded(InitialSpec, dict(raw, kind=kind), where[:-1]).fixed_opinions())


_ROBUSTNESS_SHARED = {
    "base": (lambda raw, field_name: parse_configuration(raw, f"{field_name}."), REQUIRED),
    "k": (_positive, REQUIRED),
    "abc_d": (lambda d, field_name: None if d is None else _abc_d(d, field_name), None),
    "schedule_seed": (_seed, 0),
    "max_steps": (_step, ROBUSTNESS_MAX_STEPS),
}
ROBUSTNESS_FIELDS = {
    "add": {**_ROBUSTNESS_SHARED, "tol": (_tol, ADDITION_TOL),
            "addition_seed": (_seed, 0), "additions": (_list, [])},
    "remove": {**_ROBUSTNESS_SHARED, "tol": (_tol, DEFAULT_TOL), "remove": (_agent_id, REQUIRED)},
}


def _parse_additions(raw_additions, seed, max_steps) -> list:
    """(step, float opinion) pairs; uniform_random opinions are drawn here,
    in list order, from the seed's "additions" substream."""
    rng = SeededRng(seed).derive("additions")
    additions = []
    for i, entry in enumerate(raw_additions):
        _event_step(entry, f"additions[{i}]")
        event = EventSpec(**_fields(entry, ADDITION_FIELDS, f"additions[{i}].", known=()))
        # a run applies one event per step
        _require(not additions or event.step > additions[-1][0], f"additions[{i}].step",
                 "must be greater than the step of the addition before it")
        _require(event.step <= max_steps, f"additions[{i}].step",
                 f"step {event.step} is past max_steps={max_steps}; it would never fire")
        value = event.opinion
        if isinstance(value, tuple):   # ("uniform_random", low, high)
            value = rng.uniform(value[1], value[2])
        additions.append((event.step, float(value)))
    return additions


def parse_robustness(raw, mode) -> dict:
    """A `robustness add|remove` document, read by the rows of
    ROBUSTNESS_FIELDS[mode], as the keyword arguments of
    harness.robustness_addition (mode "add") or robustness_removal
    ("remove"). Whether the base is clustered is left to those two."""
    _require(isinstance(raw, dict), "robustness document", "must be a JSON object")
    kwargs = _fields(raw, ROBUSTNESS_FIELDS[mode], "", known=())
    n, k = kwargs["base"].n, kwargs["k"]
    _require(k <= n, "k", f"exceeds the base's agent count n={n}")
    if mode == "add":
        kwargs["additions"] = _parse_additions(kwargs["additions"], kwargs.pop("addition_seed"),
                                               kwargs["max_steps"])
    else:
        remove = kwargs["remove_id"] = kwargs.pop("remove")
        _require(remove <= n, "remove", f"agent {remove} is not in the base (n={n})")
        _require(k < n, "k", f"must be below n={n}: the removal leaves n-1 agents")
    return kwargs


def load_json(path):
    """The JSON document in the file at `path`. A document json cannot read
    (malformed, nested past the recursion limit, or an integer past Python's
    digit limit) raises a ScenarioError that names the path. JSON is UTF-8
    (RFC 8259), whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"{path}: {exc}") from None


def json_text(payload) -> str:
    """The one JSON writer: `payload` indented by 2, with a final newline.
    NaN and infinities are rejected (ValueError), since they are not JSON.
    The bytes are json.dumps(payload, indent=2, allow_nan=False)'s, laid out here."""
    return _indented(payload, "") + "\n"


# json indents only in its pure-Python encoder; a list whose entries share
# one of these exact types is written by one C-level join instead
_LIST_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: float.__repr__}


def _indented(value, pad) -> str:
    """`value` in json's indent=2 layout, each line after the first under `pad`."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{_json_key(k)}: {_indented(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and value:
        kind = type(value[0])
        if (kind in _LIST_TEXT and set(map(type, value)) == {kind}
                and (kind is not float or math.isfinite(sum(value)))):
            items = map(_LIST_TEXT[kind], value)
        else:   # json writes each entry; a non-finite float raises
            items = [_indented(v, inner) for v in value]
        brackets = "[]"
    else:   # a scalar or an empty container
        return json.dumps(value, allow_nan=False)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _json_key(key) -> str:
    """A dict key as json writes it: a str as is, an int, float, bool or None as its text."""
    if key is None or isinstance(key, (int, float)):
        key = json.dumps(key, allow_nan=False)
    elif not isinstance(key, str):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.encoder.encode_basestring_ascii(key)


def load_scenario(path) -> ScenarioSpec:
    return parse_scenario(load_json(path))


def validate_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """The spec a run reads: a spec built or changed in code (a CLI override,
    a library caller) re-parsed from its to_dict(). It gets a document's exact
    checks and messages, and a document's dict in place of a sub-spec, event,
    random opinion or clusters group runs as the spec that dict describes."""
    return parse_scenario(spec.to_dict())


def _cross_checks(spec: ScenarioSpec) -> None:
    """The rules that tie fields together: initial low <= high a finite float
    apart, k <= n, shrink needs knn, and the timeline. Event steps strictly
    increase (one per step) up to max_steps; an exact run adds only integers
    and "p/q"; a removal names a present agent, not the last, and keeps k <= n.
    Added agents get ids n+1, n+2, ... in event order, never reused in a run."""
    if spec.initial.kind == "uniform_random":
        low, high = spec.initial.low, spec.initial.high
        _require(low <= high, "initial.low", "must not exceed initial.high")
        _require(math.isfinite(high - low), "initial.high",
                 "must not exceed initial.low by more than the largest float")
    n0 = spec.initial.size()
    k = spec.model.k if spec.model.kind == "knn" else 1   # ABC: 1 <= n holds throughout
    _require(k <= n0, "model.k", f"k={k} exceeds initial agent count n={n0}")
    if spec.schedule.kind == "shrink":
        _require(spec.model.kind == "knn", "schedule",
                 "shrink schedule requires the knn model")

    steps = [e.step for e in spec.events]
    _require(all(a < b for a, b in zip(steps, steps[1:])),
             "events", "steps must be strictly increasing")
    ids = set(range(1, n0 + 1))
    next_id = n0 + 1
    backend = None   # the initial state's, worked out at the first addition that needs it
    for pos, event in enumerate(spec.events):
        _require(event.step <= spec.max_steps, f"events[{pos}].step",
                 f"step {event.step} is past max_steps={spec.max_steps}; it would never fire")
        if event.kind == "add":
            if isinstance(event.opinion, (tuple, float)):
                backend = backend or spec.initial.backend()
                _require(backend == FLOAT, f"events[{pos}].opinion",
                         "an exact run adds only integers and 'p/q'")
            ids.add(next_id)
            next_id += 1
        else:
            _require(event.agent in ids, f"events[{pos}].agent",
                     f"agent {event.agent} not present at step {event.step}")
            ids.remove(event.agent)
            _require(len(ids) >= 1, f"events[{pos}]", "cannot remove the last agent")
            _require(k <= len(ids), f"events[{pos}]", f"removal leaves fewer than k={k} agents")
