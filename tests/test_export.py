"""The exporters against the literal ones in `reference_export`, and the
route `write_run_outputs` takes through them.

Records are built the way `simulate` builds them: one mutable state, each
snapshot a tuple of it, so an opinion nobody moved is the same object in
consecutive snapshots. Hypothesis draws float and exact records with moves,
add and remove events (the ids change mid-run), record_every 1 to 3 and
opinions from pools that hold both zeros, so an opinion can flip between
0.0 and -0.0, which are equal but print differently. Named records add the
block boundaries the exporters split on (an agent removed, an agent added
and then left still, ids changing only at the last snapshot) and two
`simulate` records, one float at n=300 and one exact with a remove event.
The CSV and SVG must match the literal writers byte for byte.
"""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnopinion import export
from knnopinion.harness import TrajectoryRecord, simulate
from knnopinion.numerics import EXACT, FLOAT
from knnopinion.scenario import parse_scenario
from reference_export import reference_csv, reference_svg

FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, 0.1, 0.3, 2.0 ** -60]
RATIONALS = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(1, 4)]


def record_of(backend, states, record_every=1):
    """A record of consecutive (ids, opinions) states, snapshotted every
    `record_every` steps and at the last one."""
    record = TrajectoryRecord(name="drawn", backend=backend)
    last = len(states) - 1
    for step, (ids, opinions) in enumerate(states):
        if step % record_every == 0 or step == last:
            record.recorded_steps.append(step)
            record.snapshots.append((tuple(ids), tuple(opinions)))
    return record


@st.composite
def records(draw):
    exact = draw(st.booleans())
    pool = st.sampled_from(RATIONALS) if exact else (
        st.sampled_from(FLOATS) | st.floats(-2, 2, allow_nan=False))
    n = draw(st.integers(1, 6))
    ids, opinions = list(range(1, n + 1)), draw(st.lists(pool, min_size=n, max_size=n))
    next_id = n + 1
    states = [(list(ids), list(opinions))]
    for _ in range(draw(st.integers(0, 30))):
        event = draw(st.sampled_from([None] * 4 + ["add", "remove"]))
        if event == "add":
            ids.append(next_id)
            next_id += 1
            opinions.append(draw(pool))
        elif event == "remove" and len(ids) > 1:
            pos = draw(st.integers(0, len(ids) - 1))
            del ids[pos], opinions[pos]
        opinions[draw(st.integers(0, len(ids) - 1))] = draw(pool)
        states.append((list(ids), list(opinions)))
    # states share their opinion objects, as simulate's snapshots do
    return record_of(EXACT if exact else FLOAT, states, draw(st.sampled_from([1, 1, 2, 3])))


def run_of(backend, opinions, steps, record_every=1):
    """A record of one mutable state, as `simulate` keeps it. Agents start
    as 1..n; each step may add an agent ("add": its opinion) or remove one
    ("remove": its position), then moves positions ("move": {pos: value})."""
    ids, opinions = list(range(1, len(opinions) + 1)), list(opinions)
    states = [(list(ids), list(opinions))]
    for step in steps:
        if "add" in step:
            ids.append(ids[-1] + 1)
            opinions.append(step["add"])
        if "remove" in step:
            del ids[step["remove"]], opinions[step["remove"]]
        for pos, value in step.get("move", {}).items():
            opinions[pos] = value
        states.append((list(ids), list(opinions)))
    return record_of(backend, states, record_every)


FLIPPING_ZERO = record_of(FLOAT, [([1, 2], [0.5, 0.0]), ([1, 2], [0.5, -0.0]),
                                  ([1, 2], [0.5, 0.0]), ([1, 2], [-0.0, 0.0])])
CONSTANT = record_of(EXACT, [([1, 2, 3], [F(1, 3)] * 3)] * 4)
# the first zero in snapshot order is -0.0, but agent 1's 0.0 comes first
# agent by agent, and the range label keeps that one's sign
ZERO_LOW = record_of(FLOAT, [([1, 2], [0.5, -0.0]), ([1, 2], [0.0, -0.0])])
ZERO_HIGH = record_of(FLOAT, [([1, 2], [-0.5, -0.0]), ([1, 2], [0.0, -0.0])])


# agent 2 leaves at step 3, while the others keep moving
REMOVED_MID_RUN = run_of(FLOAT, [0.1, 0.4, 0.6, 0.9], [
    {"move": {0: 0.2}}, {"move": {3: 0.8}}, {"remove": 1, "move": {0: 0.3}},
    {"move": {2: 0.5}}, {"move": {0: -0.0}}, {"move": {1: 0.55}}])
# agent 4 joins at step 2 and then never moves, over five more snapshots
ADDED_THEN_STILL = run_of(EXACT, [F(0), F(1, 3), F(1)], [
    {"move": {0: F(1, 4)}}, {"add": F(1, 2), "move": {1: F(1, 2)}},
    *({"move": {i % 3: F(i, 7)}} for i in range(1, 11))], record_every=2)
# the ids change only at the last snapshot, a block of its own
IDS_CHANGE_AT_LAST = run_of(FLOAT, [0.0, 0.25, 1.0], [
    {"move": {0: 0.125}}, {"move": {2: 0.75}}, {"move": {1: 0.5}},
    {"remove": 0, "move": {0: 0.625}}])


def simulated(document):
    return simulate(parse_scenario(document))


FLOAT_SIMULATE = simulated({
    "model": {"kind": "knn", "k": 10},
    "initial": {"kind": "uniform_random", "n": 300, "low": -1.0, "high": 1.0, "seed": 5},
    "schedule": {"kind": "uniform_random", "seed": 6},
    "max_steps": 150,
    "record_every": 7,
})
EXACT_SIMULATE = simulated({
    "model": {"kind": "knn", "k": 2},
    "initial": {"kind": "explicit", "opinions": ["0", "1/3", "1/2", "2/3", "3/4", "1"]},
    "schedule": {"kind": "uniform_random", "seed": 2},
    "events": [{"kind": "remove", "step": 5, "agent": 3}],
    "max_steps": 16,
    "record_every": 2,
})
NAMED = {"removed-mid-run": REMOVED_MID_RUN, "added-then-still": ADDED_THEN_STILL,
         "ids-change-at-last": IDS_CHANGE_AT_LAST, "float-simulate": FLOAT_SIMULATE,
         "exact-simulate": EXACT_SIMULATE}


@pytest.mark.parametrize("name", NAMED)
def test_named_records_match_the_literal_writers(name):
    record = NAMED[name]
    assert export.trajectory_to_csv(record) == reference_csv(record)
    assert export.trajectory_to_svg(record) == reference_svg(record)


def test_the_named_records_reach_the_cases_they_name():
    def agents_at(record):
        return [ids for ids, _ in record.snapshots]

    assert [2 in ids for ids in agents_at(REMOVED_MID_RUN)] == [True] * 3 + [False] * 4
    still = [(ids, opinions) for ids, opinions in ADDED_THEN_STILL.snapshots if 4 in ids]
    assert len(still) == 6 and all(ids == still[0][0] for ids, _ in still)
    assert all(opinions[3] is still[0][1][3] for _, opinions in still)
    ids = agents_at(IDS_CHANGE_AT_LAST)
    assert len(set(ids[:-1])) == 1 and ids[-1] != ids[-2]
    assert len(FLOAT_SIMULATE.final_ids) == 300 and FLOAT_SIMULATE.backend == FLOAT
    assert FLOAT_SIMULATE.recorded_steps[:3] == [0, 7, 14]
    assert EXACT_SIMULATE.backend == EXACT
    assert EXACT_SIMULATE.events_log[0]["kind"] == "remove"
    assert len(set(agents_at(EXACT_SIMULATE))) == 2


@settings(max_examples=400, deadline=None, derandomize=True)
@given(records())
@example(FLIPPING_ZERO)
@example(CONSTANT)
@example(ZERO_LOW)
@example(ZERO_HIGH)
def test_exporters_match_the_literal_writers(record):
    assert export.trajectory_to_csv(record) == reference_csv(record)
    assert export.trajectory_to_svg(record) == reference_svg(record)


def test_the_examples_reach_the_cases_they_name():
    assert export.trajectory_to_csv(FLIPPING_ZERO).splitlines()[1:] == [
        "0,1,0.5", "0,2,0", "1,1,0.5", "1,2,-0", "2,1,0.5", "2,2,0", "3,1,-0", "3,2,0"]
    assert "opinion [-0.167, 0.833]" in export.trajectory_to_svg(CONSTANT)
    assert "opinion [0, 0.5]" in export.trajectory_to_svg(ZERO_LOW)
    assert "opinion [-0.5, 0]" in export.trajectory_to_svg(ZERO_HIGH)


def test_write_run_outputs_goes_through_both_exporters(tmp_path, monkeypatch):
    """perfbench times export.trajectory_to_csv and export.trajectory_to_svg
    by wrapping them, so write_run_outputs must call them by module name."""
    calls = Counter()
    for name in ("trajectory_to_csv", "trajectory_to_svg"):
        def counted(record, *args, _name=name, _original=getattr(export, name)):
            calls[_name] += 1
            return _original(record, *args)
        monkeypatch.setattr(export, name, counted)
    spec = parse_scenario({
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "explicit", "opinions": [0.0, 0.5, 1.0]},
        "schedule": {"kind": "uniform_random", "seed": 1},
        "max_steps": 6,
    })
    export.write_run_outputs(simulate(spec), str(tmp_path / "run"), spec)
    assert calls == {"trajectory_to_csv": 1, "trajectory_to_svg": 1}


def test_write_run_outputs_scans_the_snapshots_once(tmp_path, monkeypatch):
    """Both writers take the blocks of one _blocks scan; alone, each scans."""
    calls = []
    scan = export._blocks
    monkeypatch.setattr(export, "_blocks", lambda record: calls.append(record) or scan(record))
    spec = parse_scenario({
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "explicit", "opinions": [0.0, 0.5, 1.0]},
        "schedule": {"kind": "uniform_random", "seed": 1},
        "max_steps": 6,
    })
    record = simulate(spec)
    export.write_run_outputs(record, str(tmp_path / "run"), spec)
    assert calls == [record]
    blocks = scan(record)
    before = [(b.ids, list(b.steps), list(b.opinions), [list(c) for c in b.changed])
              for b in blocks]
    assert export.trajectory_to_csv(record, blocks) == export.trajectory_to_csv(record)
    assert export.trajectory_to_svg(record, blocks) == export.trajectory_to_svg(record)
    assert len(calls) == 3   # the two writers called with the record alone
    assert [(b.ids, b.steps, b.opinions, b.changed) for b in blocks] == before
