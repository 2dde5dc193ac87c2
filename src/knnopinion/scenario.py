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

initial kinds: uniform_random {n, low, high, seed}; explicit {opinions:
[number | "p/q", ...]}; clusters {groups: [{opinion, size}, ...]}.
schedule kinds: uniform_random {seed}; explicit {agents: [id, ...]};
shrink {} (k-NN only; repeats the 2k-2 step mu/M pattern).
event kinds: add {step, opinion: number | "p/q" | uniform_random descriptor};
remove {step, agent}.

The CLI's other documents parse here too: parse_configuration (classify),
parse_robustness (robustness add|remove) and parse_grid (sweep). Every
object in every document is checked for unknown keys, so a misspelt field
is an error (`initial.hgih: is not a known field`), not its default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dynamics import Configuration
from .numerics import FLOAT, BackendError, coerce_all, format_scalar, parse_scalar
from .rng import SeededRng

DEFAULT_MAX_STEPS = 10**6
DEFAULT_TOL = 1e-9


class ScenarioError(ValueError):
    """Invalid scenario document; message names the offending field."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str                 # "knn" | "abc"
    k: Optional[int] = None
    d: Optional[object] = None

    def to_dict(self) -> dict:
        if self.kind == "knn":
            return {"kind": "knn", "k": self.k}
        return {"kind": "abc", "d": _scalar_to_json(self.d)}


@dataclass(frozen=True)
class InitialSpec:
    kind: str                 # "uniform_random" | "explicit" | "clusters"
    n: Optional[int] = None
    low: float = 0.0
    high: float = 1.0
    seed: Optional[object] = None
    opinions: Optional[tuple] = None
    groups: Optional[tuple] = None   # of (opinion, size)

    def size(self) -> int:
        if self.kind == "uniform_random":
            return self.n
        if self.kind == "explicit":
            return len(self.opinions)
        return sum(size for _, size in self.groups)

    def backend(self) -> str:
        """FLOAT for a random state, else the one backend of the fixed opinions."""
        if self.kind == "uniform_random":
            return FLOAT
        return coerce_all(self.fixed_opinions())[1]

    def fixed_opinions(self) -> list:
        """The opinions of an explicit or clusters state, in agent order."""
        if self.kind == "explicit":
            return list(self.opinions)
        return [op for op, size in self.groups for _ in range(size)]

    def to_dict(self) -> dict:
        if self.kind == "uniform_random":
            return {"kind": "uniform_random", "n": self.n, "low": self.low,
                    "high": self.high, "seed": self.seed}
        if self.kind == "explicit":
            return {"kind": "explicit",
                    "opinions": [_scalar_to_json(v) for v in self.opinions]}
        return {"kind": "clusters",
                "groups": [{"opinion": _scalar_to_json(op), "size": size}
                           for op, size in self.groups]}


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str                 # "uniform_random" | "explicit" | "shrink"
    seed: Optional[object] = None
    agents: Optional[tuple] = None

    def to_dict(self) -> dict:
        if self.kind == "uniform_random":
            return {"kind": "uniform_random", "seed": self.seed}
        if self.kind == "explicit":
            return {"kind": "explicit", "agents": list(self.agents)}
        return {"kind": "shrink"}


@dataclass(frozen=True)
class EventSpec:
    kind: str                 # "add" | "remove"
    step: int
    opinion: Optional[object] = None   # scalar or ("uniform_random", lo, hi)
    agent: Optional[int] = None

    def to_dict(self) -> dict:
        if self.kind == "add":
            if isinstance(self.opinion, tuple) and self.opinion[0] == "uniform_random":
                op = {"kind": "uniform_random",
                      "low": self.opinion[1], "high": self.opinion[2]}
            else:
                op = _scalar_to_json(self.opinion)
            return {"kind": "add", "step": self.step, "opinion": op}
        return {"kind": "remove", "step": self.step, "agent": self.agent}


@dataclass(frozen=True)
class ScenarioSpec:
    model: ModelSpec
    initial: InitialSpec
    schedule: ScheduleSpec
    events: tuple = ()
    event_seed: object = 0
    max_steps: int = DEFAULT_MAX_STEPS
    tol: float = DEFAULT_TOL
    record_every: int = 1
    name: str = "scenario"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model.to_dict(),
            "initial": self.initial.to_dict(),
            "schedule": self.schedule.to_dict(),
            "events": [e.to_dict() for e in self.events],
            "event_seed": self.event_seed,
            "max_steps": self.max_steps,
            "tol": self.tol,
            "record_every": self.record_every,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _scalar_to_json(value):
    if isinstance(value, Fraction):
        return format_scalar(value)
    return value


def _require(cond, field_name, message):
    if not cond:
        raise ScenarioError(f"{field_name}: {message}")


def _known_fields(raw: dict, fields, where="") -> None:
    """Rejects a key of `raw` outside `fields`, so that a misspelt optional
    field cannot silently fall back to its default."""
    for key in raw:
        _require(key in fields, f"{where}{key}", "is not a known field")


def int_at_least(value, least) -> bool:
    """True for an integer >= least. JSON true/false parse as Python bools,
    which are ints too, and are rejected."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _seed(raw: dict, key: str, where: str = ""):
    """raw[key] (default 0) as a SeededRng seed: an int, not a bool, or a str."""
    value = raw.get(key, 0)
    _require(isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)),
             f"{where}{key}", "must be an integer or a string")
    return value


def parse_scalar_field(raw, field_name):
    """parse_scalar, with any rejection reported against field_name."""
    try:
        return parse_scalar(raw)
    except (ValueError, BackendError) as exc:
        raise ScenarioError(f"{field_name}: {exc}") from None


def parse_scalar_list(values, field_name) -> tuple:
    """parse_scalar over a list; a rejection names field_name[index]."""
    out = []
    try:
        for v in values:
            out.append(parse_scalar(v))
    except (ValueError, BackendError) as exc:
        raise ScenarioError(f"{field_name}[{len(out)}]: {exc}") from None
    return tuple(out)


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


def _parse_model(raw) -> ModelSpec:
    _require(isinstance(raw, dict), "model", "must be an object")
    kind = raw.get("kind")
    if kind == "knn":
        _known_fields(raw, ("kind", "k"), "model.")
        k = raw.get("k")
        _require(int_at_least(k, 1), "model.k", "must be a positive integer")
        return ModelSpec(kind="knn", k=k)
    if kind == "abc":
        _known_fields(raw, ("kind", "d"), "model.")
        d = raw.get("d")
        _require(d is not None, "model.d", "is required for the abc model")
        d = parse_scalar_field(d, "model.d")
        _require(d >= 0, "model.d", "must be >= 0")
        return ModelSpec(kind="abc", d=d)
    raise ScenarioError("model.kind: must be 'knn' or 'abc'")


def parse_initial(raw, where="initial.") -> InitialSpec:
    """An initial-state object; `where` prefixes every field name in error
    messages ("base." for a robustness base, "" for a classify document)."""
    _require(isinstance(raw, dict), where[:-1], "must be an object")
    kind = raw.get("kind")
    if kind == "uniform_random":
        _known_fields(raw, ("kind", "n", "low", "high", "seed"), where)
        n = raw.get("n")
        _require(int_at_least(n, 1), f"{where}n", "must be a positive integer")
        _require("seed" in raw, f"{where}seed", "is required")
        return InitialSpec(kind=kind, n=n,
                           low=_finite_float(raw.get("low", 0.0), f"{where}low"),
                           high=_finite_float(raw.get("high", 1.0), f"{where}high"),
                           seed=_seed(raw, "seed", where))
    if kind == "explicit":
        _known_fields(raw, ("kind", "opinions"), where)
        ops = raw.get("opinions")
        _require(isinstance(ops, list) and ops, f"{where}opinions", "must be a non-empty list")
        opinions = parse_scalar_list(ops, f"{where}opinions")
        return InitialSpec(kind=kind, opinions=_one_backend(opinions, f"{where}opinions"))
    if kind == "clusters":
        _known_fields(raw, ("kind", "groups"), where)
        groups = raw.get("groups")
        _require(isinstance(groups, list) and groups, f"{where}groups", "must be a non-empty list")
        parsed = []
        for i, g in enumerate(groups):
            entry = f"{where}groups[{i}]"
            _require(isinstance(g, dict) and "opinion" in g and "size" in g,
                     entry, "needs opinion and size")
            _known_fields(g, ("opinion", "size"), f"{entry}.")
            _require(int_at_least(g["size"], 1),
                     f"{entry}.size", "must be a positive integer")
            parsed.append((parse_scalar_field(g["opinion"], f"{entry}.opinion"), g["size"]))
        _one_backend([op for op, _ in parsed], f"{where}groups")
        return InitialSpec(kind=kind, groups=tuple(parsed))
    raise ScenarioError(f"{where}kind: must be uniform_random, explicit or clusters")


def _parse_schedule(raw) -> ScheduleSpec:
    _require(isinstance(raw, dict), "schedule", "must be an object")
    kind = raw.get("kind")
    if kind == "uniform_random":
        _known_fields(raw, ("kind", "seed"), "schedule.")
        _require("seed" in raw, "schedule.seed", "is required")
        return ScheduleSpec(kind=kind, seed=_seed(raw, "seed", "schedule."))
    if kind == "explicit":
        _known_fields(raw, ("kind", "agents"), "schedule.")
        agents = raw.get("agents")
        _require(isinstance(agents, list), "schedule.agents", "must be a list")
        for i, a in enumerate(agents):
            _require(int_at_least(a, 1), f"schedule.agents[{i}]", "must be a positive agent id")
        return ScheduleSpec(kind=kind, agents=tuple(agents))
    if kind == "shrink":
        _known_fields(raw, ("kind",), "schedule.")
        return ScheduleSpec(kind="shrink")
    raise ScenarioError("schedule.kind: must be uniform_random, explicit or shrink")


def _event_step(raw, where) -> int:
    _require(isinstance(raw, dict), where, "must be an object")
    step = raw.get("step")
    _require(int_at_least(step, 0), f"{where}.step",
             "must be a nonnegative integer")
    return step


def parse_add_event(raw, where) -> EventSpec:
    """An add event's `step` and `opinion` (a number, "p/q" or a
    uniform_random descriptor); error messages name fields under `where`."""
    step = _event_step(raw, where)
    _known_fields(raw, ("kind", "step", "opinion"), f"{where}.")
    _require(raw.get("kind", "add") == "add", f"{where}.kind", "must be 'add'")
    op = raw.get("opinion")
    _require(op is not None, f"{where}.opinion", "is required")
    if isinstance(op, dict):
        _require(op.get("kind") == "uniform_random", f"{where}.opinion.kind",
                 "must be uniform_random")
        _known_fields(op, ("kind", "low", "high"), f"{where}.opinion.")
        opinion = ("uniform_random",
                   _finite_float(op.get("low", 0.0), f"{where}.opinion.low"),
                   _finite_float(op.get("high", 1.0), f"{where}.opinion.high"))
        _require(opinion[1] <= opinion[2], f"{where}.opinion.low",
                 "must not exceed opinion.high")
    else:
        opinion = parse_scalar_field(op, f"{where}.opinion")
    return EventSpec(kind="add", step=step, opinion=opinion)


def _parse_event(raw, pos) -> EventSpec:
    where = f"events[{pos}]"
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind == "add":
        return parse_add_event(raw, where)
    step = _event_step(raw, where)
    if kind == "remove":
        _known_fields(raw, ("kind", "step", "agent"), f"{where}.")
        agent = raw.get("agent")
        _require(int_at_least(agent, 1), f"{where}.agent",
                 "must be a positive agent id")
        return EventSpec(kind="remove", step=step, agent=agent)
    raise ScenarioError(f"{where}.kind: must be 'add' or 'remove'")


def parse_scenario(raw: dict) -> ScenarioSpec:
    _require(isinstance(raw, dict), "scenario", "must be a JSON object")
    _known_fields(raw, ("name", "model", "initial", "schedule", "events", "event_seed",
                        "max_steps", "tol", "record_every"))
    model = _parse_model(raw.get("model"))
    initial = parse_initial(raw.get("initial"))
    schedule = _parse_schedule(raw.get("schedule"))
    events = raw.get("events", [])
    _require(isinstance(events, list), "events", "must be a list")
    events = tuple(_parse_event(e, i) for i, e in enumerate(events))

    spec = ScenarioSpec(
        model=model, initial=initial, schedule=schedule, events=events,
        event_seed=_seed(raw, "event_seed"),
        max_steps=raw.get("max_steps", DEFAULT_MAX_STEPS),
        tol=_finite_float(raw.get("tol", DEFAULT_TOL), "tol"),
        record_every=raw.get("record_every", 1),
        name=raw.get("name", "scenario"),
    )
    validate_scenario(spec)
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
    _known_fields(raw, ("opinions", "groups"), where)
    kind = "clusters" if "groups" in raw else "explicit"
    return Configuration(parse_initial(dict(raw, kind=kind), where).fixed_opinions())


def _count(raw, name, default, least):
    value = raw.get(name, default)
    _require(int_at_least(value, least), name, f"must be an integer >= {least}")
    return value


def _parse_additions(raw_additions, seed, max_steps) -> list:
    """(step, float opinion) pairs; uniform_random opinions are drawn here,
    in list order, from the seed's "additions" substream."""
    _require(isinstance(raw_additions, list), "additions", "must be a list")
    rng = SeededRng(seed).derive("additions")
    additions = []
    for i, entry in enumerate(raw_additions):
        event = parse_add_event(entry, f"additions[{i}]")
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
    """A `robustness add|remove` document as the keyword arguments of
    harness.robustness_addition (mode "add") or robustness_removal
    ("remove"). Whether the base is clustered is left to those two."""
    _require(isinstance(raw, dict), "robustness document", "must be a JSON object")
    _known_fields(raw, ("base", "k", "abc_d", "schedule_seed", "max_steps", "tol")
                  + (("additions", "addition_seed") if mode == "add" else ("remove",)))
    _require("base" in raw, "base", "is required")
    base = parse_configuration(raw["base"], "base.")
    k = _count(raw, "k", None, 1)
    _require(k <= base.n, "k", f"exceeds the base's agent count n={base.n}")
    abc_d = raw.get("abc_d")
    if abc_d is not None:
        abc_d = parse_scalar_field(abc_d, "abc_d")
        _require(abc_d >= 0, "abc_d", "must be >= 0")
    max_steps = _count(raw, "max_steps", 10**5, 0)
    tol = _finite_float(raw.get("tol", 1e-12 if mode == "add" else 1e-9), "tol")
    _require(tol > 0, "tol", "must be positive")
    kwargs = dict(base=base, k=k, abc_d=abc_d, schedule_seed=_seed(raw, "schedule_seed"),
                  max_steps=max_steps, tol=tol)
    if mode == "add":
        kwargs["additions"] = _parse_additions(raw.get("additions", []),
                                               _seed(raw, "addition_seed"), max_steps)
    else:
        remove = _count(raw, "remove", None, 1)
        _require(remove <= base.n, "remove", f"agent {remove} is not in the base (n={base.n})")
        _require(k < base.n, "k", f"must be below n={base.n}: the removal leaves n-1 agents")
        kwargs["remove_id"] = remove
    return kwargs


def load_json(path):
    """The JSON document in the file at `path`. A document json cannot read
    (malformed, nested past the recursion limit, or an integer past Python's
    digit limit) raises a ScenarioError that names the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"{path}: {exc}") from None


def load_scenario(path) -> ScenarioSpec:
    return parse_scenario(load_json(path))


def validate_scenario(spec: ScenarioSpec) -> None:
    """Checks on the whole spec, so that fields set after parsing (a CLI
    override, a library caller) are checked too: value ranges, the k <= n
    constraint at every point of the event timeline, event steps that
    strictly increase (a run applies one event per step) and that the run
    reaches, additions an exact run can hold exactly (an integer or "p/q"),
    and removal ids that exist when the event fires. Added agents
    get ids n+1, n+2, ... in event order; ids are never reused within a run."""
    _require(int_at_least(spec.max_steps, 0), "max_steps",
             "must be a nonnegative integer")
    _require(int_at_least(spec.record_every, 1), "record_every",
             "must be a positive integer")
    _require(math.isfinite(spec.tol) and spec.tol > 0, "tol",
             "must be a finite positive number")
    if spec.initial.kind == "uniform_random":
        _require(spec.initial.low <= spec.initial.high, "initial.low",
                 "must not exceed initial.high")
    n0 = spec.initial.size()
    if spec.model.kind == "knn":
        _require(spec.model.k <= n0, "model.k",
                 f"k={spec.model.k} exceeds initial agent count n={n0}")
    if spec.schedule.kind == "shrink":
        _require(spec.model.kind == "knn", "schedule",
                 "shrink schedule requires the knn model")

    steps = [e.step for e in spec.events]
    _require(all(a < b for a, b in zip(steps, steps[1:])),
             "events", "steps must be strictly increasing")
    ids = set(range(1, n0 + 1))
    next_id = n0 + 1
    for pos, event in enumerate(spec.events):
        _require(event.step <= spec.max_steps, f"events[{pos}].step",
                 f"step {event.step} is past max_steps={spec.max_steps}; it would never fire")
        if event.kind == "add":
            if isinstance(event.opinion, tuple):
                _require(event.opinion[1] <= event.opinion[2], f"events[{pos}].opinion.low",
                         "must not exceed opinion.high")
            if isinstance(event.opinion, (tuple, float)):
                _require(spec.initial.backend() == FLOAT, f"events[{pos}].opinion",
                         "an exact run adds only integers and 'p/q'")
            ids.add(next_id)
            next_id += 1
        else:
            _require(event.agent in ids, f"events[{pos}].agent",
                     f"agent {event.agent} not present at step {event.step}")
            ids.remove(event.agent)
            _require(len(ids) >= 1, f"events[{pos}]", "cannot remove the last agent")
            if spec.model.kind == "knn":
                _require(spec.model.k <= len(ids), f"events[{pos}]",
                         f"removal leaves fewer than k={spec.model.k} agents")
