"""A literal reference simulator, the oracle for `harness.simulate`.

It runs a scenario the slow, literal way. Each step builds a
`Configuration` and applies `knn_update` or `abc_update`, so k-NN
neighbours come from the sort-based `knn_indices`. The stop check moves
every agent by the same update map. The envelope is Python's min() and
max() over the whole state. What it shares with `simulate` is the
contract: the same `SeededRng` substreams drawn in the same order, events
that fire before the update of their step, a stop check every n steps
once the last event has fired, and the two-stage thresholds of the float
stop rule.
"""

from fractions import Fraction

from knnopinion.convergence import MU, shrink_schedule
from knnopinion.dynamics import Configuration, abc_update, knn_update
from knnopinion.equilibria import single_linkage_groups
from knnopinion.harness import (CLASS_NOT_CONVERGED, STOP_CONVERGED, STOP_EQUILIBRIUM,
                                STOP_MAX_STEPS, STOP_SCHEDULE_EXHAUSTED, TrajectoryRecord,
                                _limit_class)
from knnopinion.numerics import FLOAT
from knnopinion.rng import SeededRng
from knnopinion.scenario import ScenarioError


def updated(opinions, pos, model):
    """The opinion the agent at 0-based `pos` moves to."""
    config = Configuration(opinions)
    if model.kind == "knn":
        return knn_update(config, pos + 1, model.k).opinions[pos]
    return abc_update(config, pos + 1, model.d).opinions[pos]


def stopped(opinions, model, tol, backend):
    """Exact runs stop at a fixed point. Float runs stop when every move is
    below tol and either the tol-groups are well formed or the largest move
    has stalled near roundoff (the thresholds of `_float_converged`)."""
    if backend != FLOAT:
        return all(updated(opinions, i, model) == x for i, x in enumerate(opinions))
    move = max(abs(updated(opinions, i, model) - x) for i, x in enumerate(opinions))
    if move >= tol:
        return False
    groups = single_linkage_groups(opinions, tol)
    tight = all(max(opinions[j] for j in g) - min(opinions[j] for j in g) < tol for g in groups)
    if tight and (len(groups) == 1 or model.kind == "abc"
                  or all(len(g) >= model.k for g in groups)):
        return True
    return move < max(tol * 1e-4, 4e-16)


def reference_simulate(spec) -> TrajectoryRecord:
    init, model, schedule = spec.initial, spec.model, spec.schedule
    if init.kind == "uniform_random":
        rng_init = SeededRng(init.seed).derive("init")
        opinions = [rng_init.uniform(init.low, init.high) for _ in range(init.n)]
    else:
        opinions = list(Configuration(init.fixed_opinions()).opinions)
    backend = Configuration(opinions).backend
    ids = list(range(1, len(opinions) + 1))
    next_id = len(opinions) + 1
    events = {e.step: e for e in spec.events}
    rng_events = SeededRng(spec.event_seed).derive("events")
    rng_sched = SeededRng(schedule.seed).derive("schedule")
    tags = shrink_schedule(model.k) if schedule.kind == "shrink" else []

    rec = TrajectoryRecord(name=spec.name, backend=backend)
    rec.recorded_steps.append(0)
    rec.snapshots.append((tuple(ids), tuple(opinions)))
    rec.mins.append(min(opinions))
    rec.maxs.append(max(opinions))
    t = 0
    while True:
        event = events.get(t)
        if event is not None and event.kind == "add":
            op = event.opinion
            if isinstance(op, tuple):   # ("uniform_random", low, high)
                value = rng_events.uniform(op[1], op[2])
            else:
                value = float(op) if backend == FLOAT else Fraction(op)
            ids.append(next_id)
            opinions.append(value)
            rec.events_log.append({"step": t, "kind": "add", "agent": next_id})
            next_id += 1
        elif event is not None:
            del opinions[ids.index(event.agent)]
            ids.remove(event.agent)
            rec.events_log.append({"step": t, "kind": "remove", "agent": event.agent})

        if t >= max(events, default=-1) and t % len(ids) == 0 \
                and stopped(opinions, model, spec.tol, backend):
            rec.stop_reason = STOP_CONVERGED if backend == FLOAT else STOP_EQUILIBRIUM
            break
        if t >= spec.max_steps:
            rec.stop_reason = STOP_MAX_STEPS
            break
        if schedule.kind == "uniform_random":
            pos = rng_sched.randbelow(len(ids))
        elif schedule.kind == "explicit":
            if t >= len(schedule.agents):
                rec.stop_reason = STOP_SCHEDULE_EXHAUSTED
                break
            agent = schedule.agents[t]
            if agent not in ids:
                raise ScenarioError(f"schedule: agent {agent} not present at step {t}")
            pos = ids.index(agent)
        elif not tags:
            rec.stop_reason = STOP_SCHEDULE_EXHAUSTED
            break
        else:   # shrink: the first lowest (MU) or first highest agent
            pick = min if tags[t % len(tags)] == MU else max
            pos = pick(range(len(opinions)), key=opinions.__getitem__)

        opinions[pos] = updated(opinions, pos, model)
        rec.updaters.append(ids[pos])
        rec.mins.append(min(opinions))
        rec.maxs.append(max(opinions))
        t += 1
        if t % spec.record_every == 0:
            rec.recorded_steps.append(t)
            rec.snapshots.append((tuple(ids), tuple(opinions)))

    # the record ends with the final state, events of the stop step included
    rec.total_steps, rec.final_ids, rec.final_opinions = t, tuple(ids), tuple(opinions)
    rec.mins[-1], rec.maxs[-1] = min(opinions), max(opinions)
    if rec.recorded_steps[-1] == t:
        rec.snapshots[-1] = (rec.final_ids, rec.final_opinions)
    else:
        rec.recorded_steps.append(t)
        rec.snapshots.append((rec.final_ids, rec.final_opinions))
    if rec.stop_reason in (STOP_CONVERGED, STOP_EQUILIBRIUM):
        groups = single_linkage_groups(opinions, spec.tol if backend == FLOAT else 0)
        rec.classification = _limit_class([len(g) for g in groups], model.k)
    else:
        rec.classification = CLASS_NOT_CONVERGED
    return rec
