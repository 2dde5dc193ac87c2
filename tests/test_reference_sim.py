"""`simulate` against the literal reference simulator in `reference_sim`.

Hypothesis draws small scenario documents (n <= 12): float and exact,
k-NN and ABC, uniform, explicit and shrink schedules, add and remove
events. Opinions come from pools with exact ties, signed zeros and values
whose distances collapse under rounding (from 1.0, both 0.0 and 2**-60 are
at 1.0). Every field of the two records must agree bit for bit, the sign
of zero included.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from knnopinion.dynamics import Configuration
from knnopinion.equilibria import is_equilibrium
from knnopinion.harness import STOP_EQUILIBRIUM, simulate
from knnopinion.scenario import ScenarioError, parse_scenario
from reference_sim import reference_simulate

FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, 0.75, 1.5, 2.0, 0.1, 0.2, 0.3,
          2.0 ** -59, 2.0 ** -60, 2.0 ** -61]
RATIONALS = ["0/1", "1/1", "-1/1", "1/2", "-1/2", "1/3", "2/3", "1/4", "3/4", "1/5", 2]


def opinion_lists(exact, n):
    pool = st.sampled_from(RATIONALS) if exact else (
        st.sampled_from(FLOATS) | st.floats(-1, 1, allow_subnormal=False))
    return st.lists(pool, min_size=n, max_size=n)


@st.composite
def documents(draw):
    exact = draw(st.booleans())
    n = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["explicit", "clusters"] + ([] if exact else ["uniform_random"])))
    if kind == "explicit":
        initial = {"kind": "explicit", "opinions": draw(opinion_lists(exact, n))}
    elif kind == "clusters":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        ops = draw(opinion_lists(exact, len(sizes)))
        initial = {"kind": "clusters",
                   "groups": [{"opinion": op, "size": s} for op, s in zip(ops, sizes)]}
        n = sum(sizes)
    else:
        initial = {"kind": "uniform_random", "n": n, "low": -1.0, "high": 1.0,
                   "seed": draw(st.integers(0, 99))}

    knn = draw(st.sampled_from([True, True, False]))
    k = draw(st.integers(1, n))
    model = {"kind": "knn", "k": k} if knn else {
        "kind": "abc", "d": draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, "1/4", "1/2", 0.0]))}
    max_steps = draw(st.integers(0, 40) | st.sampled_from([120, 300] if not exact else [60]))

    events, present, next_id = [], list(range(1, n + 1)), n + 1
    steps = sorted(draw(st.sets(st.integers(0, max_steps), max_size=3)))
    for step in steps:
        if len(present) > (k if knn else 1) and draw(st.booleans()):
            agent = draw(st.sampled_from(present))
            present.remove(agent)
            events.append({"kind": "remove", "step": step, "agent": agent})
            continue
        if exact:
            opinion = draw(st.sampled_from(RATIONALS))
        else:
            opinion = draw(st.sampled_from(FLOATS + ["1/3", {"kind": "uniform_random",
                                                              "low": -0.5, "high": 1.0}]))
        present.append(next_id)
        next_id += 1
        events.append({"kind": "add", "step": step, "opinion": opinion})

    schedule = draw(st.sampled_from(["uniform_random", "explicit"] + (["shrink"] if knn else [])))
    if schedule == "uniform_random":
        schedule = {"kind": "uniform_random", "seed": draw(st.integers(0, 99))}
    elif schedule == "explicit":
        agents = st.integers(1, next_id - 1)
        schedule = {"kind": "explicit", "agents": draw(st.lists(agents, max_size=30))}
    else:
        schedule = {"kind": "shrink"}
    return {"model": model, "initial": initial, "schedule": schedule, "events": events,
            "event_seed": draw(st.integers(0, 99)), "max_steps": max_steps,
            "tol": draw(st.sampled_from([1e-9, 1e-3, 0.05, 1e-12])),
            "record_every": draw(st.integers(1, 4))}


def bits(value):
    """A comparison key that tells -0.0 from 0.0 and a float from a Fraction."""
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    return value.hex() if isinstance(value, float) else (type(value).__name__, value)


FIELDS = ("recorded_steps", "snapshots", "updaters", "mins", "maxs", "events_log",
          "stop_reason", "total_steps", "classification", "final_ids", "final_opinions")


def run(simulator, spec):
    try:
        record = simulator(spec)
    except ScenarioError as exc:   # an explicit schedule names a removed agent
        return str(exc)
    return {name: bits(getattr(record, name)) for name in FIELDS}


def explicit_doc(model, opinions, schedule, max_steps=300, events=()):
    return {"model": model, "initial": {"kind": "explicit", "opinions": opinions},
            "schedule": schedule, "events": list(events), "event_seed": 4,
            "max_steps": max_steps, "tol": 1e-9, "record_every": 3}


# steps run in blocks that end at the next multiple of n, event step or
# max_steps; these runs end blocks at each of them, and mid-block
FIVE = [0.0, 0.2, 0.45, 0.7, 1.0]
KNN2, UNIFORM = {"kind": "knn", "k": 2}, {"kind": "uniform_random", "seed": 3}


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(documents())
@example(explicit_doc(KNN2, FIVE, UNIFORM, events=[{"kind": "add", "step": 3, "opinion": 0.3},
                                                   {"kind": "remove", "step": 8, "agent": 2}]))
@example(explicit_doc(KNN2, FIVE, {"kind": "explicit", "agents": [1, 5, 2, 4, 3, 1, 5]}))
@example(explicit_doc(KNN2, FIVE, UNIFORM, max_steps=13))
@example(explicit_doc({"kind": "knn", "k": 3}, FIVE, {"kind": "shrink"}, max_steps=17))
@example(explicit_doc({"kind": "abc", "d": 0.3}, FIVE, UNIFORM,
                      events=[{"kind": "add", "step": 7, "opinion": {"kind": "uniform_random"}}]))
def test_simulate_matches_the_reference_simulator(doc):
    try:
        spec = parse_scenario(doc)
    except ScenarioError:
        assume(False)
    got = run(simulate, spec)
    assert got == run(reference_simulate, spec)
    if isinstance(got, dict) and got["stop_reason"] == STOP_EQUILIBRIUM \
            and spec.model.kind == "knn":
        final = Configuration([v for _, v in got["final_opinions"]])
        assert is_equilibrium(final, spec.model.k).is_equilibrium

