import inspect
import math
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnopinion import harness, numerics
from knnopinion.convergence import run_shrink_schedule
from knnopinion.dynamics import Configuration, OpinionIndex
from knnopinion.export import trajectory_to_csv
from knnopinion.harness import (
    CLASS_CONSENSUS,
    STOP_CONVERGED,
    STOP_EQUILIBRIUM,
    STOP_MAX_STEPS,
    NotClusteredError,
    batch_sweep,
    figure_runs,
    monte_carlo_consensus,
    robustness_addition,
    robustness_removal,
    simulate,
)
from knnopinion.rng import SeededRng
from knnopinion.scenario import (
    EventSpec,
    InitialSpec,
    ModelSpec,
    ScenarioError,
    ScenarioSpec,
    ScheduleSpec,
    parse_robustness,
    parse_scenario,
    validate_scenario,
)
from builders import build_clustered
from reference_sim import reference_simulate
from test_fuzz_documents import ROBUSTNESS
from test_reference_sim import run

F = Fraction


def knn_spec(**kw):
    base = dict(
        model=ModelSpec(kind="knn", k=2),
        initial=InitialSpec(kind="explicit", opinions=(0.0, 0.5, 1.0)),
        schedule=ScheduleSpec(kind="uniform_random", seed=1),
        max_steps=10000,
    )
    base.update(kw)
    return ScenarioSpec(**base)


def test_initial_consensus_stops_immediately():
    rec = simulate(knn_spec(initial=InitialSpec(kind="explicit", opinions=(0.3, 0.3, 0.3))))
    assert rec.stop_reason == STOP_CONVERGED
    assert rec.total_steps == 0
    assert rec.classification == CLASS_CONSENSUS


def test_exact_backend_detects_equilibrium():
    spec = knn_spec(
        model=ModelSpec(kind="knn", k=3),
        initial=InitialSpec(kind="explicit", opinions=(F(0), F(1), F(0), F(1), F(0), F(1), F(1, 2))),
    )
    rec = simulate(ScenarioSpec(**{**spec.__dict__, "model": ModelSpec(kind="knn", k=3)}))
    assert rec.stop_reason == STOP_EQUILIBRIUM
    assert rec.backend == "exact"


@pytest.mark.parametrize("opinions, k, probes, stop", [
    ((F(0), F(1), F(3)), 2, 1, STOP_MAX_STEPS),  # agent 1 moves by 1/2 and ends the probe
    ((F(0), F(1), F(0), F(1), F(0), F(1), F(1, 2)), 3, 7, STOP_EQUILIBRIUM),
])
def test_exact_probe_stops_at_the_first_agent_that_moves(monkeypatch, opinions, k, probes, stop):
    calls = []
    real = harness._update_map

    def counted(index, model, backend):
        update = real(index, model, backend)
        return lambda idx: calls.append(idx) or update(idx)

    monkeypatch.setattr(harness, "_update_map", counted)
    spec = knn_spec(model=ModelSpec(kind="knn", k=k), max_steps=0,
                    initial=InitialSpec(kind="explicit", opinions=opinions))
    assert simulate(spec).stop_reason == stop
    assert calls == list(range(probes))


@pytest.mark.parametrize("model", [ModelSpec(kind="knn", k=2), ModelSpec(kind="abc", d=0.6)],
                         ids=["knn", "abc"])
def test_update_map_is_bound_once_and_again_per_index_rebuild(monkeypatch, model):
    sizes = []
    real = harness._update_map

    def counted(index, model, backend):
        sizes.append(len(index.opinions))
        return real(index, model, backend)

    monkeypatch.setattr(harness, "_update_map", counted)
    rec = simulate(knn_spec(model=model,
                            initial=InitialSpec(kind="explicit", opinions=(0.0, 0.5, 1.0, 0.25)),
                            events=(EventSpec(kind="add", step=1, opinion=0.75),
                                    EventSpec(kind="remove", step=2, agent=1))))
    assert [e["kind"] for e in rec.events_log] == ["add", "remove"]
    assert sizes == [4, 5, 4]


NO_ORACLE_RUNS = [   # (model, opinions, added opinion); agents 1 and 2 make a group of k = 2
    (ModelSpec(kind="knn", k=2), (F(0), F(0), F(1, 4), F(3, 4), F(1)), F(1, 2)),
    (ModelSpec(kind="abc", d=F(1, 4)), (F(0), F(0), F(1, 4), F(3, 4), F(1)), F(1, 2)),
    (ModelSpec(kind="knn", k=2), (0.0, 0.0, 0.25, 0.75, 1.0), 0.5),
    (ModelSpec(kind="abc", d=0.25), (0.0, 0.0, 0.25, 0.75, 1.0), 0.5),
]


@pytest.mark.parametrize("model, opinions, added", NO_ORACLE_RUNS,
                         ids=["exact-knn", "exact-abc", "float-knn", "float-abc"])
def test_the_engine_calls_no_oracle(monkeypatch, model, opinions, added):
    # knn_indices and abc_indices are the literal rules the update map is
    # tested against; simulate itself must not call them
    def oracle(*args):
        raise AssertionError("simulate called an oracle")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "knnopinion":
            for rule in ("knn_indices", "abc_indices"):
                if hasattr(module, rule):
                    monkeypatch.setattr(module, rule, oracle)
                    patched.add(name)
    assert "knnopinion.dynamics" in patched
    rec = simulate(knn_spec(model=model, max_steps=60,
                            initial=InitialSpec(kind="explicit", opinions=opinions),
                            events=(EventSpec(kind="add", step=1, opinion=added),
                                    EventSpec(kind="remove", step=2, agent=3))))
    assert [e["kind"] for e in rec.events_log] == ["add", "remove"]
    assert rec.total_steps > 2


def test_a_seeded_knn_run_stops_at_its_pinned_step_with_its_pinned_update_count(monkeypatch):
    # 1880 steps make 1880 calls; the probes make the other 240, each starting
    # where the run's previous probe found a move >= tol
    calls = []
    real = harness._update_map

    def counted(index, model, backend):
        update = real(index, model, backend)
        return lambda idx: calls.append(idx) or update(idx)

    monkeypatch.setattr(harness, "_update_map", counted)
    rec = simulate(parse_scenario({
        "model": {"kind": "knn", "k": 5},
        "initial": {"kind": "uniform_random", "n": 20, "seed": 0},
        "schedule": {"kind": "uniform_random", "seed": 0},
        "tol": 1e-9, "record_every": 100000,
    }))
    assert (rec.stop_reason, rec.total_steps, len(calls)) == (STOP_CONVERGED, 1880, 2120)


def test_a_step_moves_the_index_only_when_its_update_is_a_new_object(monkeypatch):
    # an update that returns the agent's own object leaves its slot holding
    # that object, which the snapshots (record_every 1) keep; 723 of the
    # run's 1880 updates do
    moves = []
    real = OpinionIndex.move
    monkeypatch.setattr(OpinionIndex, "move",
                        lambda self, idx, value: moves.append(idx) or real(self, idx, value))
    spec = parse_scenario({
        "model": {"kind": "knn", "k": 5},
        "initial": {"kind": "uniform_random", "n": 20, "seed": 0},
        "schedule": {"kind": "uniform_random", "seed": 0},
        "tol": 1e-9, "record_every": 1,
    })
    rec = simulate(spec)
    states = [ops for _, ops in rec.snapshots]
    same = sum(after[agent - 1] is before[agent - 1]
               for agent, before, after in zip(rec.updaters, states, states[1:]))
    assert (rec.stop_reason, rec.total_steps, same) == (STOP_CONVERGED, 1880, 723)
    assert len(moves) == rec.total_steps - same
    monkeypatch.undo()
    assert run(simulate, spec) == run(reference_simulate, spec)


@pytest.mark.parametrize("model, probes", [({"kind": "knn", "k": 5}, 95),
                                           ({"kind": "abc", "d": 0.3}, 26)])
def test_the_float_probe_returns_a_bool(monkeypatch, model, probes):
    # perfbench's harness.probe span counts the results that are `True`, so a
    # truthy non-bool would read as a probe that never found the stop
    results = []
    real = harness._float_converged
    monkeypatch.setattr(harness, "_float_converged",
                        lambda *args: results.append(real(*args)) or results[-1])
    rec = simulate(parse_scenario({
        "model": model,
        "initial": {"kind": "uniform_random", "n": 20, "seed": 0},
        "schedule": {"kind": "uniform_random", "seed": 0},
        "tol": 1e-9, "record_every": 100000,
    }))
    assert rec.stop_reason == STOP_CONVERGED and len(results) == probes
    assert all(r is True or r is False for r in results)
    assert results[-1] is True


def test_an_agent_at_zero_still_moves_to_a_negative_zero():
    # agent 2's two nearest hold 0.0, so its update is the first such pair's
    # object, agent 1's -0.0: equal to its own value, but not the same object
    rec = simulate(parse_scenario({
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "explicit", "opinions": [-0.0, 0.0, 0.0]},
        "schedule": {"kind": "explicit", "agents": [2, 3]},
        "events": [{"kind": "add", "step": 2, "opinion": 0.5}],   # no probe before it
        "max_steps": 2,
    }))
    assert [v.hex() for v in rec.final_opinions] == ["-0x0.0p+0"] * 3 + ["0x1.0000000000000p-1"]


def test_shrink_schedule_spec_matches_library_run():
    from knnopinion.convergence import run_shrink_schedule

    x0 = (F(0), F(1, 3), F(1))
    spec = knn_spec(
        initial=InitialSpec(kind="explicit", opinions=x0),
        schedule=ScheduleSpec(kind="shrink"),
        max_steps=2,  # T = 2k-2 with k=2
        record_every=1,
    )
    rec = simulate(spec)
    run = run_shrink_schedule(Configuration(list(x0)), 2)
    got = [ops for _, ops in rec.snapshots]
    want = [s.opinions for s in run.states]
    assert got == want
    assert rec.updaters == run.updaters


def test_reproducibility_bit_identical_csv():
    spec = parse_scenario({
        "model": {"kind": "knn", "k": 3},
        "initial": {"kind": "uniform_random", "n": 8, "low": 0.0, "high": 1.0, "seed": 12},
        "schedule": {"kind": "uniform_random", "seed": 34},
        "max_steps": 5000,
    })
    a = trajectory_to_csv(simulate(spec))
    b = trajectory_to_csv(simulate(spec))
    assert a == b


def test_monotone_envelope_and_hull():
    spec = parse_scenario({
        "model": {"kind": "knn", "k": 4},
        "initial": {"kind": "uniform_random", "n": 10, "low": 0.0, "high": 1.0, "seed": 5},
        "schedule": {"kind": "uniform_random", "seed": 6},
        "max_steps": 3000,
        "record_every": 1,
    })
    rec = simulate(spec)
    for a, b in zip(rec.maxs, rec.maxs[1:]):
        assert b <= a
    for a, b in zip(rec.mins, rec.mins[1:]):
        assert b >= a
    lo0, hi0 = rec.mins[0], rec.maxs[0]
    for _, ops in rec.snapshots:
        assert all(lo0 <= v <= hi0 for v in ops)


def test_addition_event_extends_ids():
    spec = knn_spec(
        initial=InitialSpec(kind="explicit", opinions=(0.4,) * 5),
        model=ModelSpec(kind="knn", k=2),
        events=(EventSpec(kind="add", step=2, opinion=0.9),),
        max_steps=2000,
        record_every=1,
    )
    rec = simulate(spec)
    assert rec.events_log == [{"step": 2, "kind": "add", "agent": 6}]
    assert 6 in rec.final_ids


def test_removal_event_drops_agent():
    spec = knn_spec(
        initial=InitialSpec(kind="explicit", opinions=(0.0, 0.0, 1.0, 1.0)),
        model=ModelSpec(kind="knn", k=2),
        events=(EventSpec(kind="remove", step=1, agent=3),),
        max_steps=2000,
    )
    rec = simulate(spec)
    assert 3 not in rec.final_ids
    assert len(rec.final_ids) == 3


def test_invalid_removal_rejected_before_execution():
    with pytest.raises(ScenarioError):
        parse_scenario({
            "model": {"kind": "knn", "k": 2},
            "initial": {"kind": "explicit", "opinions": [0.1, 0.9, 0.5]},
            "schedule": {"kind": "uniform_random", "seed": 0},
            "events": [{"kind": "remove", "step": 0, "agent": 9}],
        })


def test_simulate_rejects_an_absent_removal_before_any_step(monkeypatch):
    def never(initial):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "_build_initial", never)
    spec = knn_spec(events=(EventSpec(kind="remove", step=0, agent=9),))
    with pytest.raises(ScenarioError) as info:
        simulate(spec)
    assert str(info.value) == "events[0].agent: agent 9 not present at step 0"


@st.composite
def event_timelines(draw):
    """A small explicit scenario with a random add/remove timeline, on either
    backend and either model; removals may name absent or removed agents."""
    exact = draw(st.booleans())
    scalar = Fraction if exact else float
    n0 = draw(st.integers(1, 4))
    opinions = tuple(scalar(draw(st.integers(0, 4))) for _ in range(n0))
    model = (ModelSpec(kind="knn", k=draw(st.integers(1, 3))) if draw(st.booleans())
             else ModelSpec(kind="abc", d=scalar(1) / 2))
    steps = sorted(draw(st.sets(st.integers(0, 12), max_size=5)))
    events = []
    for step in steps:
        if draw(st.booleans()):
            events.append(EventSpec(kind="remove", step=step, agent=draw(st.integers(1, 8))))
        elif not exact and draw(st.booleans()):
            events.append(EventSpec(kind="add", step=step, opinion=("uniform_random", 0.0, 1.0)))
        else:
            events.append(EventSpec(kind="add", step=step, opinion=scalar(draw(st.integers(0, 4)))))
    return ScenarioSpec(
        model=model,
        initial=InitialSpec(kind="explicit", opinions=opinions),
        schedule=ScheduleSpec(kind="uniform_random", seed=draw(st.integers(0, 3))),
        events=tuple(events),
        max_steps=12,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(event_timelines())
def test_every_validated_timeline_runs(spec):
    """simulate keeps no presence check of its own: every spec that
    validate_scenario accepts runs, and removes exactly the agents it names."""
    try:
        validate_scenario(spec)
    except ScenarioError:
        return
    rec = simulate(spec)
    ids = list(range(1, spec.initial.size() + 1))
    next_id = len(ids) + 1   # ids are never reused within a run
    for event in spec.events:
        if event.kind == "add":
            ids.append(next_id)
            next_id += 1
        else:
            ids.remove(event.agent)
    assert list(rec.final_ids) == ids
    assert len(rec.events_log) == len(spec.events)


# the values a field is set to; "bogus" doubles as an unknown kind
MUTATIONS = (None, -1, 0, True, "x", math.nan, 2.5, (), "bogus")


@st.composite
def specs_changed_in_code(draw):
    """An event timeline, perhaps with another initial or schedule kind, with
    one field (at the top level or inside model, initial, schedule or one
    event) set by dataclasses.replace to a value from MUTATIONS."""
    spec = draw(event_timelines())
    n0 = spec.initial.size()
    spec = replace(
        spec,
        initial=draw(st.sampled_from([
            spec.initial, InitialSpec(kind="uniform_random", n=n0, seed=0),
            InitialSpec(kind="clusters", groups=((spec.initial.opinions[0], n0),))])),
        schedule=draw(st.sampled_from([
            spec.schedule, ScheduleSpec(kind="explicit", agents=(1, 1, 2)),
            ScheduleSpec(kind="shrink")])))
    where = draw(st.sampled_from([None, "model", "initial", "schedule",
                                  *range(len(spec.events))]))
    part = spec if where is None else (
        spec.events[where] if isinstance(where, int) else getattr(spec, where))
    name = draw(st.sampled_from([f.name for f in fields(part)]))
    part = replace(part, **{name: draw(st.sampled_from(MUTATIONS))})
    if where is None:
        return part
    if isinstance(where, int):
        return replace(spec, events=spec.events[:where] + (part,) + spec.events[where + 1:])
    return replace(spec, **{where: part})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(specs_changed_in_code())
def test_a_spec_changed_in_code_runs_or_raises_a_scenario_error(spec):
    """validate_scenario re-parses the spec, so a value no document could
    hold is a ScenarioError, never another exception inside the run."""
    try:
        rec = simulate(spec)
    except ScenarioError:
        return
    assert rec.total_steps <= spec.max_steps


BUILT_IN_CODE = [   # (spec, the message of the same document)
    (knn_spec(schedule=ScheduleSpec(kind="bogus")),
     "schedule.kind: must be uniform_random, explicit or shrink"),
    (knn_spec(initial=InitialSpec(kind="bogus")),
     "initial.kind: must be uniform_random, explicit or clusters"),
    (knn_spec(model=ModelSpec(kind="bogus")), "model.kind: must be 'knn' or 'abc'"),
    (knn_spec(initial=InitialSpec(kind="explicit", opinions=None)),
     "initial.opinions: must be a non-empty list"),
    (knn_spec(schedule=ScheduleSpec(kind="explicit", agents=None)),
     "schedule.agents: must be a list"),
    (knn_spec(events=None), "events: must be a list"),
    (knn_spec(events=(EventSpec(kind="add", step=1, opinion="abc"),)),
     "events[0].opinion: 'abc' is not an integer or 'p/q' rational"),
    (knn_spec(initial=InitialSpec(kind="clusters", groups=((0.1, 0), (0.5, 3)))),
     "initial.groups[0].size: must be a positive integer"),
    (knn_spec(schedule=ScheduleSpec(kind="uniform_random", seed=None)),
     "schedule.seed: must be an integer or a string"),
    (knn_spec(name=3), "name: must be a string"),
    (knn_spec(event_seed=1.5), "event_seed: must be an integer or a string"),
    (knn_spec(events=(EventSpec(kind="bogus", step=1),)),
     "events[0].kind: must be 'add' or 'remove'"),
    (knn_spec(model=ModelSpec(kind="abc", d=0.5, k="x")), "model.k: is not a known field"),
    (knn_spec(tol=math.nan), "tol: must be a finite number"),
]


@pytest.mark.parametrize("spec, message", BUILT_IN_CODE,
                         ids=[message.split(":")[0] for _, message in BUILT_IN_CODE])
def test_a_spec_built_in_code_gets_the_parser_message(spec, message):
    with pytest.raises(ScenarioError) as info:
        simulate(spec)
    assert str(info.value) == message


DOCUMENT_SHAPED = [   # (a document's dict where a spec or tuple belongs, the spec it describes)
    (knn_spec(model={"kind": "knn", "k": 3}), knn_spec(model=ModelSpec(kind="knn", k=3))),
    (knn_spec(initial={"kind": "explicit", "opinions": [0.0, 0.25, 1.0]}),
     knn_spec(initial=InitialSpec(kind="explicit", opinions=(0.0, 0.25, 1.0)))),
    (knn_spec(schedule={"kind": "uniform_random", "seed": 2}),
     knn_spec(schedule=ScheduleSpec(kind="uniform_random", seed=2))),
    (knn_spec(events=({"kind": "add", "step": 1, "opinion": 0.5},)),
     knn_spec(events=(EventSpec(kind="add", step=1, opinion=0.5),))),
    (knn_spec(events=[EventSpec(kind="add", step=1, opinion=0.5),
                      {"kind": "remove", "step": 2, "agent": 1}]),
     knn_spec(events=(EventSpec(kind="add", step=1, opinion=0.5),
                      EventSpec(kind="remove", step=2, agent=1)))),
    (knn_spec(events=(EventSpec(kind="add", step=1,
                                opinion={"kind": "uniform_random", "low": 0.2, "high": 0.4}),)),
     knn_spec(events=(EventSpec(kind="add", step=1, opinion=("uniform_random", 0.2, 0.4)),))),
    (knn_spec(initial=InitialSpec(kind="clusters", groups=({"opinion": 0.5, "size": 3},))),
     knn_spec(initial=InitialSpec(kind="clusters", groups=((0.5, 3),)))),
    (knn_spec(initial=InitialSpec(kind="clusters",
                                  groups=((0.1, 2), {"opinion": 0.5, "size": 3}))),
     knn_spec(initial=InitialSpec(kind="clusters", groups=((0.1, 2), (0.5, 3))))),
    (knn_spec(initial=InitialSpec(kind="clusters",
                                  groups=({"opinion": 0.5, "size": 3}, (0.1, 2)))),
     knn_spec(initial=InitialSpec(kind="clusters", groups=((0.5, 3), (0.1, 2))))),
]


def record_fields(rec) -> list:
    """Every field of a record by repr, so 1 == 1.0 == Fraction(1) and
    0.0 == -0.0 cannot hide a change of type or sign."""
    return [repr(getattr(rec, f.name)) for f in fields(rec)]


# the name is kept from when such a spec was rejected, so its test ids stay stable
@pytest.mark.parametrize("spec, twin", DOCUMENT_SHAPED, ids=[
    "model", "initial", "schedule", "events[0]", "events[1]", "events[0].opinion",
    "initial.groups[0]", "initial.groups[1]", "initial.groups[0]"])
def test_a_document_shaped_dict_in_a_spec_is_a_scenario_error(spec, twin):
    """simulate runs the spec validate_scenario re-parses, so a document's
    dict in place of a sub-spec, event, random opinion or clusters group
    runs as the spec it describes."""
    assert record_fields(simulate(spec)) == record_fields(simulate(twin))


@pytest.mark.parametrize("initial", [
    InitialSpec(kind="uniform_random", n=0, seed=0),
    InitialSpec(kind="explicit", opinions=()),
    InitialSpec(kind="clusters", groups=()),
])
def test_an_initial_state_without_agents_is_rejected(initial):
    spec = ScenarioSpec(model=ModelSpec(kind="abc", d=0.5), initial=initial,
                        schedule=ScheduleSpec(kind="uniform_random", seed=0))
    with pytest.raises(ScenarioError) as info:
        simulate(spec)
    assert str(info.value) == {"uniform_random": "initial.n: must be a positive integer",
                               "explicit": "initial.opinions: must be a non-empty list",
                               "clusters": "initial.groups: must be a non-empty list"}[initial.kind]


def test_event_steps_must_increase():
    with pytest.raises(ScenarioError):
        parse_scenario({
            "model": {"kind": "knn", "k": 1},
            "initial": {"kind": "explicit", "opinions": [0.1, 0.9]},
            "schedule": {"kind": "uniform_random", "seed": 0},
            "events": [
                {"kind": "add", "step": 3, "opinion": 0.5},
                {"kind": "add", "step": 3, "opinion": 0.6},
            ],
        })


def test_k_larger_than_n_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario({
            "model": {"kind": "knn", "k": 4},
            "initial": {"kind": "explicit", "opinions": [0.1, 0.9]},
            "schedule": {"kind": "uniform_random", "seed": 0},
        })
    assert "model.k" in str(err.value)


def test_monte_carlo_single_agent():
    stats = monte_carlo_consensus(1, 1, runs=3, seed=0)
    assert stats.converged == 3
    assert stats.hitting_times == [0, 0, 0]


def test_monte_carlo_two_agents():
    stats = monte_carlo_consensus(2, 2, runs=10, seed=4, max_steps=10**5)
    assert stats.all_converged
    assert stats.hull_violations == 0


def test_monte_carlo_counts_a_consensus_outside_the_initial_hull(monkeypatch):
    # a faulty engine whose envelope collapses onto 5.0, outside [0, 1]
    def escaped(spec):
        return harness.TrajectoryRecord(name=spec.name, backend="float",
                                        mins=[0.0, 0.5, 5.0], maxs=[1.0, 0.9, 5.0])

    monkeypatch.setattr(harness, "simulate", escaped)
    stats = monte_carlo_consensus(2, 2, runs=1, seed=0)
    assert (stats.hitting_times, stats.consensus_values, stats.hull_violations) == ([2], [5.0], 1)


def test_monte_carlo_hit_is_first_step_below_tol():
    # each run is one simulate call on a k-NN spec seeded "<seed>:mc:<run>";
    # rerunning it must give the first step whose diameter is below tol
    n, k, tol, max_steps = 5, 3, 1e-9, 10**5
    stats = monte_carlo_consensus(n, k, runs=4, seed="mc-check", max_steps=max_steps, tol=tol)
    assert stats.all_converged and stats.hull_violations == 0
    for r, hit in enumerate(stats.hitting_times):
        run_seed = f"mc-check:mc:{r}"
        rec = simulate(ScenarioSpec(
            model=ModelSpec(kind="knn", k=k),
            initial=InitialSpec(kind="uniform_random", n=n, seed=run_seed),
            schedule=ScheduleSpec(kind="uniform_random", seed=run_seed),
            max_steps=max_steps, tol=tol, record_every=max_steps,
        ))
        diameters = rec.diameters
        assert hit > 0 and diameters[hit] < tol
        assert all(d >= tol for d in diameters[:hit])
        assert stats.consensus_values[r] == (rec.mins[hit] + rec.maxs[hit]) / 2


def test_monte_carlo_guards_large_n():
    with pytest.raises(Exception):
        monte_carlo_consensus(10, 3, runs=1, seed=0)
    monte_carlo_consensus(10, 3, runs=1, seed=0, max_steps=100, allow_large_n=True)


@pytest.mark.parametrize("mode, document", ROBUSTNESS)
def test_robustness_arguments_bind_to_their_harness_call(mode, document):
    # so that no row of ROBUSTNESS_FIELDS names a key the harness does not take
    experiment = robustness_addition if mode == "add" else robustness_removal
    inspect.signature(experiment).bind(**parse_robustness(document, mode))


def test_robustness_addition_requires_clustered_base():
    with pytest.raises(NotClusteredError):
        robustness_addition(Configuration([F(0), F(1)]), 2, [], schedule_seed=0)


def test_robustness_addition_originals_frozen():
    base = build_clustered([(F(2, 5), 10)])
    rng = SeededRng(77)
    adds = [(s, rng.uniform(0.0, 1.0)) for s in (2, 3, 4, 5)]
    report = robustness_addition(base, 5, adds, schedule_seed=78, abc_d=0.25)
    assert report.knn.originals_untouched
    assert all(v == 0.4 for v in report.knn.final_original_opinions)
    assert all(abs(v - 0.4) < 1e-9 for v in report.knn.final_added_opinions)
    # the metric model lets the newcomers drag the cluster away
    assert report.abc is not None


def test_robustness_addition_rejects_two_additions_at_one_step():
    # simulate applies one event per step, so the second would be dropped
    base = Configuration([F(2, 5)] * 6)
    with pytest.raises(ScenarioError, match="events: steps must be strictly increasing"):
        robustness_addition(base, 5, [(3, 0.7), (3, 0.9)], schedule_seed=3)


def test_robustness_addition_new_cluster_when_k_join():
    base = build_clustered([(F(0), 5)])
    adds = [(i + 1, 100.0) for i in range(5)]  # far away, enough to self-sustain
    report = robustness_addition(base, 5, adds, schedule_seed=3)
    assert report.knn.originals_untouched
    assert report.knn.classification == "clustered"
    added = report.knn.final_added_opinions
    # the newcomers settle into their own cluster strictly away from the base
    assert max(added) - min(added) < 1e-9
    assert min(added) > 1.0


def test_robustness_addition_compares_as_its_scenario_twin():
    # the float of 1/10 is above 1/10, so the added agent at 0.1 is out of reach
    kwargs = parse_robustness({"base": {"groups": [{"opinion": "0", "size": 3}]}, "k": 3,
                               "additions": [{"step": 1, "opinion": 0.1}],
                               "schedule_seed": 3, "abc_d": "1/10"}, "add")
    report = robustness_addition(**kwargs).abc
    twin = simulate(parse_scenario({
        "name": "robustness-addition", "model": {"kind": "abc", "d": "1/10"},
        "initial": {"kind": "explicit", "opinions": [0.0, 0.0, 0.0]},
        "schedule": {"kind": "uniform_random", "seed": 3},
        "events": [{"kind": "add", "step": 1, "opinion": 0.1}],
        "max_steps": kwargs["max_steps"], "tol": kwargs["tol"]}))
    assert (report.classification, report.total_steps) == ("clustered", twin.total_steps)
    assert twin.classification == "clustered"
    assert report.final_original_opinions + report.final_added_opinions \
        == twin.final_opinions == (0.0, 0.0, 0.0, 0.1)


def test_robustness_removal_cases():
    k = 5
    tight = build_clustered([(F(0), k), (F(1), k)])
    for victim in (1, k + 1):
        rep = robustness_removal(tight, k, victim)
        assert not rep.still_equilibrium and not rep.expected_equilibrium
        assert rep.resumed_classification is not None
    slack = build_clustered([(F(0), k + 1), (F(1), k)])
    rep = robustness_removal(slack, k, 1)
    assert rep.still_equilibrium and rep.expected_equilibrium
    assert rep.resumed_classification is None


def test_robustness_removal_abc_inert():
    k = 5
    base = build_clustered([(F(0), k), (F(1), k)])
    rep = robustness_removal(base, k, 1, abc_d=F(1, 4))
    assert rep.abc_unchanged is True


def test_batch_sweep_trivial_consensus():
    spec = knn_spec(initial=InitialSpec(kind="explicit", opinions=(0.5, 0.5, 0.5)))
    result = batch_sweep([spec])
    assert result.classifications == {CLASS_CONSENSUS: 1}
    assert result.hitting_times == [0]


def test_batch_sweep_collects_errors_without_aborting():
    bad = knn_spec(model=ModelSpec(kind="knn", k=9))  # k > n fails at run time
    good = knn_spec(initial=InitialSpec(kind="explicit", opinions=(0.5, 0.5, 0.5)))
    result = batch_sweep([bad, good])
    assert 0 in result.errors
    assert result.classifications == {CLASS_CONSENSUS: 1}


def test_batch_sweep_records_a_backend_error_by_index():
    mixed = knn_spec(initial=InitialSpec(kind="explicit", opinions=(0.5, F(1, 2))))
    good = knn_spec(initial=InitialSpec(kind="explicit", opinions=(0.5, 0.5, 0.5)))
    result = batch_sweep([good, mixed])
    assert result.to_jsonable()["errors"] == {
        "1": "initial.opinions: cannot mix exact and float scalars"}
    assert result.classifications == {CLASS_CONSENSUS: 1}


def test_batch_sweep_lets_a_program_fault_propagate(monkeypatch):
    def faulty(spec):
        raise TypeError("a program fault")

    monkeypatch.setattr(harness, "simulate", faulty)
    with pytest.raises(TypeError, match="a program fault"):
        batch_sweep([knn_spec()])


def test_batch_sweep_without_a_converged_run_has_no_quantiles():
    result = batch_sweep([knn_spec(max_steps=1)])
    assert result.classifications == {"not_converged": 1}
    assert result.to_jsonable()["hitting_time_quantiles"] == {
        "p50": None, "p90": None, "p100": None}


def test_batch_sweep_parallel_matches_serial():
    specs = [
        parse_scenario({
            "model": {"kind": "knn", "k": 3},
            "initial": {"kind": "uniform_random", "n": 6, "low": 0, "high": 1, "seed": s},
            "schedule": {"kind": "uniform_random", "seed": s},
            "max_steps": 50000,
        })
        for s in range(4)
    ]
    serial = batch_sweep(specs, jobs=1)
    parallel = batch_sweep(specs, jobs=2)
    assert serial.to_jsonable() == parallel.to_jsonable()


def test_batch_sweep_starts_no_more_workers_than_entries(monkeypatch):
    import concurrent.futures

    built = []

    class SerialPool:
        """Records the worker count it is asked for and maps in process."""

        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    spec = knn_spec(initial=InitialSpec(kind="explicit", opinions=(0.5, 0.5, 0.5)))
    assert batch_sweep([spec, spec], jobs=64).classifications == {CLASS_CONSENSUS: 2}
    assert built == [2]
    assert batch_sweep([spec], jobs=64).classifications == {CLASS_CONSENSUS: 1}
    assert batch_sweep([], jobs=64).total == 0
    assert built == [2]
    # nor more than there are CPUs; an unknown CPU count runs in process
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert batch_sweep([spec] * 5, jobs=64).classifications == {CLASS_CONSENSUS: 5}
    assert built == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert batch_sweep([spec] * 5, jobs=64).classifications == {CLASS_CONSENSUS: 5}
    assert built == [2, 3]


EXACT_SWEEP = [
    # the n=7, k=3 tie counterexample: a non-clustered equilibrium
    {"model": {"kind": "knn", "k": 3},
     "initial": {"kind": "explicit",
                 "opinions": ["0/1", "1/1", "0/1", "1/1", "0/1", "1/1", "1/2"]}},
    # groups of exactly k and k+1 after an add at step 0
    {"model": {"kind": "knn", "k": 3},
     "initial": {"kind": "clusters", "groups": [{"opinion": "1/3", "size": 3},
                                                {"opinion": "2/3", "size": 3}]},
     "events": [{"kind": "add", "step": 0, "opinion": "2/3"}]},
    {"model": {"kind": "knn", "k": 2},
     "initial": {"kind": "clusters", "groups": [{"opinion": "1/2", "size": 4}]}},
    # k = 1: every value is a group, values one numerator apart included
    {"model": {"kind": "knn", "k": 1},
     "initial": {"kind": "explicit", "opinions": ["0/1", "1/7", "2/7", "2/7"]}},
    {"model": {"kind": "abc", "d": "1/4"},
     "initial": {"kind": "explicit", "opinions": ["0/1", "0/1", "1/2", "1/1"]}},
    # still moving at max_steps: no group count
    {"model": {"kind": "knn", "k": 2},
     "initial": {"kind": "explicit", "opinions": ["0/1", "1/3", "1/1"]}, "max_steps": 9},
]


def test_exact_sweep_counts_distinct_final_opinions():
    specs = [parse_scenario({"schedule": {"kind": "uniform_random", "seed": 1},
                             "max_steps": 100, **doc}) for doc in EXACT_SWEEP]
    result = batch_sweep(specs)
    assert result.errors == {}
    counts = {}
    for spec in specs:
        rec = simulate(spec)
        assert rec.backend == numerics.EXACT
        if rec.stop_reason == STOP_EQUILIBRIUM:
            distinct = len(set(rec.final_opinions))
            counts[distinct] = counts.get(distinct, 0) + 1
    assert result.cluster_count_histogram == counts == {3: 3, 2: 1, 1: 1}
    assert result.classifications == {"non_clustered_numerical": 1, "clustered": 3,
                                      CLASS_CONSENSUS: 1, "not_converged": 1}


@pytest.fixture
def coerce_all_calls(monkeypatch):
    """Counts coerce_all calls, wrapped in every knnopinion namespace that
    binds it (a `from .numerics import coerce_all` binds it in the caller)."""
    original = numerics.coerce_all
    calls = []

    def counted(values):
        calls.append(len(values))
        return original(values)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "knnopinion" or name.startswith("knnopinion.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize("model", [{"kind": "knn", "k": 5}, {"kind": "abc", "d": 0.2}])
def test_simulate_decides_the_backend_once(coerce_all_calls, model):
    counts, steps = [], []
    for max_steps in (100, 1000):
        spec = parse_scenario({
            "model": model,
            "initial": {"kind": "uniform_random", "n": 20, "low": 0.0, "high": 1.0, "seed": 5},
            "schedule": {"kind": "uniform_random", "seed": 6},
            "max_steps": max_steps, "tol": 1e-12, "record_every": max_steps,
        })
        coerce_all_calls.clear()
        steps.append(simulate(spec).total_steps)
        counts.append(len(coerce_all_calls))
    assert steps[0] == 100 < steps[1]
    assert counts[0] == counts[1]


def test_validate_scenario_decides_the_backend_once(coerce_all_calls):
    adds = [EventSpec(kind="add", step=s, opinion=0.5 if s % 2 else ("uniform_random", 0.0, 1.0))
            for s in range(40)]
    initial = InitialSpec(kind="explicit", opinions=tuple(i / 60 for i in range(60)))
    spec = knn_spec(initial=initial, events=tuple(adds))
    coerce_all_calls.clear()
    validate_scenario(spec)
    # the parser types every opinion, so the backend is the first one's type
    assert coerce_all_calls == []


def test_shrink_schedule_on_a_built_configuration_never_coerces(coerce_all_calls):
    rng = SeededRng("coerce-once")
    config = Configuration([F(rng.randbelow(97), rng.randbelow(11) + 1) for _ in range(9)])
    coerce_all_calls.clear()
    run = run_shrink_schedule(config, 7)
    assert len(run.states) == 13
    assert coerce_all_calls == []


def test_figure_runs_finds_both_limits_in_the_default_range():
    runs, notes = figure_runs(120, 200000, 7)
    assert [stem for stem, _, _ in runs] == [
        "fig_clustered", "fig_non_clustered", "fig_addition_knn", "fig_addition_abc"]
    assert notes == {"clustered_seed": 0, "non_clustered_seed": 49}


def test_figure_runs_falls_back_to_the_exact_construction():
    runs, notes = figure_runs(10, 200000, 7)
    assert notes["non_clustered_seed"] is None
    assert "exact 20-agent construction" in notes["non_clustered_fallback"]
    stem, _, record = runs[1]
    assert stem == "fig_non_clustered"
    assert (record.backend, record.stop_reason, record.total_steps) == (
        "exact", STOP_EQUILIBRIUM, 0)
