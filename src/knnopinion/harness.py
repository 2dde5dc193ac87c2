"""Seeded stochastic simulation, convergence detection, Monte Carlo consensus
statistics, and the addition/removal robustness experiments.

A run is a single-threaded sequential process; parallelism only ever comes
from running independent scenarios (batch_sweep). Events fire before the
update of their step, and the agent sampler includes agents added at that
step from that step on.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain, count, cycle, islice
from typing import Optional

from .convergence import MU, shrink_schedule
from .dynamics import (
    Configuration,
    OpinionIndex,
    ParameterError,
    _check_k,
    abc_update,
)
from .equilibria import (build_example1, is_clustered, is_equilibrium, quantize_clusters,
                         single_linkage_groups)
from .numerics import (EXACT, FLOAT, BackendError, common_numerators, format_scalar,
                       mean_exact, mean_float)
from .rng import SeededRng
from .scenario import (
    ADDITION_TOL,
    DEFAULT_MAX_STEPS,
    DEFAULT_TOL,
    ROBUSTNESS_MAX_STEPS,
    EventSpec,
    InitialSpec,
    ModelSpec,
    ScenarioError,
    ScenarioSpec,
    ScheduleSpec,
    validate_scenario,
)

STOP_CONVERGED = "converged"
STOP_EQUILIBRIUM = "equilibrium_detected"
STOP_MAX_STEPS = "max_steps"
STOP_SCHEDULE_EXHAUSTED = "schedule_exhausted"

CLASS_CONSENSUS = "consensus"
CLASS_CLUSTERED = "clustered"
CLASS_NON_CLUSTERED = "non_clustered_numerical"
CLASS_NOT_CONVERGED = "not_converged"

# what a bad document or parameter raises; any other exception is a program fault
USAGE_ERRORS = (ScenarioError, ParameterError, BackendError)


@dataclass
class TrajectoryRecord:
    name: str
    backend: str
    recorded_steps: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # (ids tuple, opinions tuple)
    updaters: list = field(default_factory=list)    # agent id per executed step
    mins: list = field(default_factory=list)        # per state, length steps+1
    maxs: list = field(default_factory=list)
    events_log: list = field(default_factory=list)
    stop_reason: str = STOP_MAX_STEPS
    total_steps: int = 0
    classification: Optional[str] = None
    cluster_count: Optional[int] = None   # groups of a converged final state
    final_ids: tuple = ()
    final_opinions: tuple = ()

    @property
    def diameters(self) -> list:
        return [hi - lo for lo, hi in zip(self.mins, self.maxs)]


def _build_initial(spec: InitialSpec) -> list:
    if spec.kind != "uniform_random":
        return spec.fixed_opinions()
    rng = SeededRng(spec.seed).derive("init")
    return [rng.uniform(spec.low, spec.high) for _ in range(spec.n)]


def _update_map(index: OpinionIndex, model: ModelSpec, backend: str):
    """The run's update map, idx -> agent idx's new opinion: the mean of its
    neighbours under `model`. The backend picks only the mean; each model has
    one rule. It holds `index`, so a rebuilt index needs a new map. When k
    pairs hold x = opinions[idx], the k-NN neighbours are the first k of them
    by position, and the map returns the first, pairs[a][0]: mean_float's
    object (equal values, 0.0 and -0.0 too, sort by position), and the exact
    mean of k copies of x. ABC reads abc_indices' opinions in one pass; a float
    run compares with the largest float <= d, which gives d's verdicts."""
    opinions = index.opinions
    mean = mean_float if backend == FLOAT else lambda vs: mean_exact(*common_numerators(vs))
    if model.kind == "abc":
        d = model.d
        if backend == FLOAT and not isinstance(d, float):
            d = float(d) if float(d) <= d else math.nextafter(float(d), -math.inf)

        def update(idx):
            x = opinions[idx]
            return mean([v for v in opinions if abs(v - x) <= d])
        return update
    knn, k, pairs = index.knn, model.k, index.pairs
    last = len(pairs) - k   # the highest a with k pairs from a on

    def update(idx):
        x = opinions[idx]
        a = bisect_left(pairs, (x,))
        if a <= last and pairs[a + k - 1][0] == x:
            return pairs[a][0]
        return mean([opinions[j] for j in knn(idx, k)])
    return update


def _float_converged(update, opinions: list, k, tol: float, start: list) -> bool:
    """Two-stage stop rule for float runs, with `update` the run's update
    map and `k` its k-NN k (None under ABC).

    Limits are approached asymptotically, so a bare probe test cannot tell a
    slow transit from a limit. A run stops when every probe update moves less
    than tol AND either (a) the tol-groups make a consensus or clustered
    limit by _limit_class and each spans less than tol, or (b) probe moves
    have stalled near roundoff, the signature of a genuine non-clustered
    equilibrium rather than a state still drifting toward a cluster merge.

    The sweep starts at start[0], where the run's previous probe found a
    move >= tol, and wraps around; the answer does not depend on the order.
    Probes run after the run's last event, so positions stay put between them.
    """
    worst = 0.0
    first = start[0]
    for idx in chain(range(first, len(opinions)), range(first)):
        move = abs(update(idx) - opinions[idx])
        if move >= tol:
            start[0] = idx
            return False
        if move > worst:
            worst = move
    groups = single_linkage_groups(opinions, tol)
    # each group comes sorted by opinion, so it spans its last minus its first
    if _limit_class([len(g) for g in groups], k) != CLASS_NON_CLUSTERED and all(
        opinions[g[-1]] - opinions[g[0]] < tol for g in groups
    ):
        return True
    return worst < max(tol * 1e-4, 4e-16)


def _limit_class(sizes, k) -> str:
    """The label of a limit state from its group sizes, under the k-NN model
    with this k, or under ABC when k is None (an ABC ModelSpec's k). Every
    group has >= k members exactly when every agent's k nearest neighbours
    share its opinion, so on an exact state this agrees with is_clustered."""
    if len(sizes) == 1:
        return CLASS_CONSENSUS
    if k is not None and min(sizes) < k:
        return CLASS_NON_CLUSTERED
    return CLASS_CLUSTERED


def simulate(spec: ScenarioSpec) -> TrajectoryRecord:
    """Run one scenario to convergence, equilibrium, schedule end or the
    step cap. Deterministic: identical spec -> bit-identical record. Steps
    run in blocks up to the next multiple of n, event step or max_steps, the
    only steps where an event, probe or the cap can act. It runs the spec
    validate_scenario returns, so only parsed values reach the loop."""
    spec = validate_scenario(spec)
    opinions, backend = _build_initial(spec.initial), spec.initial.backend()
    k, tol, record_every = spec.model.k, spec.tol, spec.record_every
    ids = list(range(1, len(opinions) + 1))
    new_ids = count(len(opinions) + 1)

    events = iter(spec.events)   # steps strictly increase
    event = next(events, None)
    last_event_step = spec.events[-1].step if spec.events else -1
    rng_events = SeededRng(spec.event_seed).derive("events")
    take = _updater_positions(spec, ids, opinions)
    probe_start = [0]

    # k-NN neighbours, the probe and the envelope all read the sorted index;
    # positions shift on add/remove, so events rebuild it and its update map
    index = OpinionIndex(opinions)
    update = _update_map(index, spec.model, backend)
    record = TrajectoryRecord(name=spec.name, backend=backend)
    updaters, mins, maxs = record.updaters, record.mins, record.maxs
    record.recorded_steps.append(0)
    record.snapshots.append((tuple(ids), tuple(opinions)))
    mins.append(index.min())
    maxs.append(index.max())

    t = 0
    while True:
        if event is not None and event.step == t:
            _apply_event(event, ids, opinions, new_ids, backend, rng_events, record)
            event = next(events, None)
            index = OpinionIndex(opinions)
            update = _update_map(index, spec.model, backend)

        n = len(ids)
        if t >= last_event_step and t % n == 0:
            if backend == EXACT:
                if all(update(idx) == x for idx, x in enumerate(opinions)):
                    record.stop_reason = STOP_EQUILIBRIUM
                    break
            elif _float_converged(update, opinions, k, tol, probe_start):
                record.stop_reason = STOP_CONVERGED
                break

        if t >= spec.max_steps:
            record.stop_reason = STOP_MAX_STEPS
            break

        end = min(t - t % n + n, spec.max_steps, event.step if event is not None else t + n)
        move, pairs = index.move, index.pairs
        for pos in take(end - t):
            new = update(pos)
            if new is not opinions[pos]:   # an equal value, -0.0 for 0.0 too, still moves
                move(pos, new)
            updaters.append(ids[pos])
            # index.min() and index.max(), read without two calls per step
            mins.append(pairs[0][0])
            maxs.append(pairs[bisect_left(pairs, (pairs[-1][0],))][0])
            t += 1
            if t % record_every == 0:
                record.recorded_steps.append(t)
                record.snapshots.append((tuple(ids), tuple(opinions)))
        if t < end:
            record.stop_reason = STOP_SCHEDULE_EXHAUSTED
            break

    # the record ends with the final state, events of the stop step included
    record.total_steps = t
    final = record.final_ids, record.final_opinions = tuple(ids), tuple(opinions)
    mins[-1], maxs[-1] = index.min(), index.max()
    if record.recorded_steps[-1] == t:
        record.snapshots[-1] = final
    else:
        record.recorded_steps.append(t)
        record.snapshots.append(final)
    if record.stop_reason in (STOP_CONVERGED, STOP_EQUILIBRIUM):
        groups = single_linkage_groups(opinions, tol if backend == FLOAT else 0)
        record.cluster_count = len(groups)
        record.classification = _limit_class([len(g) for g in groups], k)
    else:
        record.classification = CLASS_NOT_CONVERGED
    return record


def _apply_event(event, ids, opinions, new_ids, backend, rng_events, record):
    if event.kind == "add":
        # a parsed opinion is a float, a Fraction or ("uniform_random", low, high);
        # validate_scenario admits the first and the last in float runs only
        if isinstance(event.opinion, tuple):
            value = rng_events.uniform(event.opinion[1], event.opinion[2])
        else:
            value = float(event.opinion) if backend == FLOAT else event.opinion
        agent = next(new_ids)
        ids.append(agent)
        opinions.append(value)
    else:
        # validate_scenario has checked that the agent is present
        agent = event.agent
        pos = bisect_left(ids, agent)
        del ids[pos]
        del opinions[pos]
    record.events_log.append({"step": event.step, "kind": event.kind, "agent": agent})


def _updater_positions(spec: ScenarioSpec, ids: list, opinions: list):
    """The schedule as a block source: take(count) -> the updater positions
    of the next `count` steps, fewer when it runs out, read from the run's
    live `ids` and `opinions`. A uniform block is one randbelow_many call
    (randbelow's getrandbits calls); explicit and shrink blocks are lazy, so
    a shrink step reads the state its previous step left."""
    schedule = spec.schedule
    if schedule.kind == "uniform_random":
        rng = SeededRng(schedule.seed).derive("schedule")
        return lambda count: rng.randbelow_many(len(ids), count)
    if schedule.kind == "explicit":
        positions = _explicit_positions(schedule.agents, ids)
    else:
        # shrink: repeat the 2k-2 tag pattern (empty at k=1), recomputing the
        # extremal agent from the current state at every step
        positions = (opinions.index((min if tag == MU else max)(opinions))
                     for tag in cycle(shrink_schedule(spec.model.k)))
    return lambda count: islice(positions, count)


def _explicit_positions(agents, ids: list):
    for t, agent in enumerate(agents):
        pos = bisect_left(ids, agent)
        if pos >= len(ids) or ids[pos] != agent:
            raise ScenarioError(f"schedule: agent {agent} not present at step {t}")
        yield pos


@dataclass
class MonteCarloStats:
    hitting_times: list      # one per run, None where the run never converged
    consensus_values: list   # one per converged run
    hull_violations: int

    @property
    def converged(self) -> int:
        return len(self.consensus_values)

    @property
    def all_converged(self) -> bool:
        return self.converged == len(self.hitting_times)


def monte_carlo_consensus(
    n: int,
    k: int,
    runs: int,
    seed,
    max_steps: int = DEFAULT_MAX_STEPS,
    tol: float = DEFAULT_TOL,
    allow_large_n: bool = False,
) -> MonteCarloStats:
    """Independent seeded runs with uniform random initial opinions in [0,1]
    and uniform i.i.d. agent selection; a run converges when the diameter
    drops below tol. Consensus for n < 2k is the claim under test; n >= 2k
    needs the explicit exploratory override."""
    _check_k(k, n)
    if runs < 1:
        raise ParameterError("runs must be >= 1")
    if n >= 2 * k and not allow_large_n:
        raise ParameterError(
            f"n={n} >= 2k={2 * k}: consensus is not guaranteed; "
            "pass allow_large_n=True for exploratory runs"
        )
    hitting_times = []
    consensus_values = []
    hull_violations = 0
    for r in range(runs):
        run_seed = f"{seed}:mc:{r}"
        rec = simulate(ScenarioSpec(
            model=ModelSpec(kind="knn", k=k),
            initial=InitialSpec(kind="uniform_random", n=n, seed=run_seed),
            schedule=ScheduleSpec(kind="uniform_random", seed=run_seed),
            max_steps=max_steps,
            tol=tol,
            record_every=max(max_steps, 1),
            name="monte-carlo",
        ))
        # the envelope never widens, so the first diameter below tol is the
        # hitting time even when the run itself stops later
        hit = next((t for t, d in enumerate(rec.diameters) if d < tol), None)
        hitting_times.append(hit)
        if hit is not None:
            c = (rec.mins[hit] + rec.maxs[hit]) / 2.0
            consensus_values.append(c)
            if not rec.mins[0] <= c <= rec.maxs[0]:
                hull_violations += 1
    return MonteCarloStats(hitting_times, consensus_values, hull_violations)


class NotClusteredError(ScenarioError):
    """The robustness experiments require a clustered base configuration."""


def _require_clustered(base: Configuration, k: int) -> None:
    if base.backend != EXACT:
        raise NotClusteredError("base: base configuration must be exact to certify clustering")
    if not is_clustered(base, k):
        raise NotClusteredError("base: base configuration is not clustered for this k")


@dataclass
class AdditionRunReport:
    model: str
    originals_untouched: bool
    classification: str
    stop_reason: str
    total_steps: int
    final_original_opinions: tuple
    final_added_opinions: tuple

    def to_jsonable(self) -> dict:
        out = asdict(self)
        for key in ("final_original_opinions", "final_added_opinions"):
            out[key] = list(map(format_scalar, out[key]))
        return out


@dataclass
class AdditionReport:
    knn: AdditionRunReport
    abc: Optional[AdditionRunReport] = None

    def to_jsonable(self) -> dict:
        out = {"knn": self.knn.to_jsonable()}
        if self.abc is not None:
            out["abc"] = self.abc.to_jsonable()
        return out


def _run_addition(base_floats, model, additions, schedule_seed, max_steps, tol):
    rec = simulate(ScenarioSpec(
        model=model,
        initial=InitialSpec(kind="explicit", opinions=base_floats),
        schedule=ScheduleSpec(kind="uniform_random", seed=schedule_seed),
        events=tuple(EventSpec(kind="add", step=step, opinion=float(op))
                     for step, op in additions),
        max_steps=max_steps,
        tol=tol,
        record_every=1,
        name="robustness-addition",
    ))
    # additions only append, so the original agents are the first n0 positions
    n0 = len(base_floats)
    return AdditionRunReport(
        model=model.kind,
        originals_untouched=all(ops[:n0] == base_floats for _, ops in rec.snapshots),
        classification=rec.classification,
        stop_reason=rec.stop_reason,
        total_steps=rec.total_steps,
        final_original_opinions=rec.final_opinions[:n0],
        final_added_opinions=rec.final_opinions[n0:],
    )


def robustness_addition(
    base: Configuration,
    k: int,
    additions,
    schedule_seed,
    abc_d=None,
    max_steps: int = ROBUSTNESS_MAX_STEPS,
    tol: float = ADDITION_TOL,
) -> AdditionReport:
    """Add agents to a certified clustered k-NN equilibrium and watch whether
    the original agents ever move (they must not, bit for bit).

    `base` must be exact so the clustered precondition can be certified; the
    simulation itself runs in floats. `additions` is a list of (step, opinion)
    with concrete opinions; the same uniform schedule stream is replayed for
    the optional ABC side-by-side run, mirroring the shared update order of
    the comparison experiment.
    """
    _require_clustered(base, k)
    base_floats = tuple(float(v) for v in base.opinions)
    knn_report = _run_addition(
        base_floats, ModelSpec(kind="knn", k=k), additions, schedule_seed, max_steps, tol
    )
    abc_report = None
    if abc_d is not None:
        abc_report = _run_addition(
            base_floats, ModelSpec(kind="abc", d=abc_d), additions,
            schedule_seed, max_steps, tol,
        )
    return AdditionReport(knn=knn_report, abc=abc_report)


@dataclass
class RemovalReport:
    removed_agent: int
    victim_cluster_size: int
    still_equilibrium: bool
    expected_equilibrium: bool
    abc_unchanged: Optional[bool]
    resumed_classification: Optional[str]

    def to_jsonable(self) -> dict:
        return asdict(self)


def robustness_removal(
    base: Configuration,
    k: int,
    remove_id: int,
    abc_d=None,
    schedule_seed=0,
    max_steps: int = ROBUSTNESS_MAX_STEPS,
    tol: float = DEFAULT_TOL,
) -> RemovalReport:
    """Remove one agent from a clustered k-NN equilibrium. The result stays
    an equilibrium iff the victim's cluster had at least k+1 members; when it
    does not, the dynamics are resumed (float, uniform schedule) and the new
    limit is reported."""
    _require_clustered(base, k)
    victim_size = base.opinions.count(base.opinion(remove_id))

    removed = base.without(remove_id)
    still = is_equilibrium(removed, k).is_equilibrium
    expected = victim_size >= k + 1

    abc_unchanged = None
    if abc_d is not None:
        d = Fraction(abc_d)
        abc_unchanged = all(
            abc_update(removed, i, d) == removed for i in removed.agents()
        )

    resumed = None
    if not still:
        spec = ScenarioSpec(
            model=ModelSpec(kind="knn", k=k),
            initial=InitialSpec(
                kind="explicit", opinions=tuple(float(v) for v in removed.opinions)
            ),
            schedule=ScheduleSpec(kind="uniform_random", seed=schedule_seed),
            max_steps=max_steps,
            tol=tol,
            record_every=max(max_steps, 1),
            name="robustness-removal",
        )
        resumed = simulate(spec).classification
    return RemovalReport(
        removed_agent=remove_id,
        victim_cluster_size=victim_size,
        still_equilibrium=still,
        expected_equilibrium=expected,
        abc_unchanged=abc_unchanged,
        resumed_classification=resumed,
    )


@dataclass
class SweepResult:
    total: int
    classifications: dict
    cluster_count_histogram: dict
    hitting_times: list
    errors: dict   # scenario index -> message

    def hitting_time_quantile(self, q: float):
        times = sorted(t for t in self.hitting_times if t is not None)
        if not times:
            return None
        pos = min(len(times) - 1, int(q * len(times)))
        return times[pos]

    def to_jsonable(self) -> dict:
        return {
            "total": self.total,
            "classifications": self.classifications,
            "cluster_count_histogram": self.cluster_count_histogram,
            "hitting_time_quantiles": {
                "p50": self.hitting_time_quantile(0.5),
                "p90": self.hitting_time_quantile(0.9),
                "p100": self.hitting_time_quantile(1.0),
            },
            "errors": {str(i): msg for i, msg in self.errors.items()},
        }


def _sweep_one(spec: ScenarioSpec):
    """((classification, cluster count, stop step), None) for one scenario,
    or (None, message) when one of USAGE_ERRORS stops it; any other
    exception propagates."""
    try:
        rec = simulate(spec)
    except USAGE_ERRORS as exc:
        return None, str(exc)
    hit = None if rec.cluster_count is None else rec.total_steps
    return (rec.classification, rec.cluster_count, hit), None


def batch_sweep(specs, jobs: int = 1) -> SweepResult:
    """Run every scenario (independently seeded via their own documents) and
    aggregate. Results merge in scenario order regardless of completion
    order, so the aggregate is deterministic."""
    # a pool forks all its workers at once, so it gets no more than there are
    # entries or CPUs
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_one, specs))
    else:
        outcomes = [_sweep_one(spec) for spec in specs]

    results = [result for result, _ in outcomes if result is not None]
    # a Counter keeps first-seen key order, so the report's bytes follow scenario order
    return SweepResult(
        total=len(specs),
        classifications=dict(Counter(cls for cls, _, _ in results)),
        cluster_count_histogram=dict(Counter(g for _, g, _ in results if g is not None)),
        hitting_times=[hit for _, _, hit in results],
        errors={i: error for i, (result, error) in enumerate(outcomes) if result is None},
    )


def classify_configuration(config: Configuration, k: int, tol) -> dict:
    """The `classify` report of a configuration: the equilibrium report of an
    exact state, or the groups of a float state at tolerance `tol` with the
    label `simulate` gives a limit state (`_limit_class`)."""
    _check_k(k, config.n)
    if config.backend == EXACT:
        return {"mode": "exact", "k": k, **is_equilibrium(config, k).to_jsonable()}
    part = quantize_clusters(config, tol)
    return {
        "mode": "numerical",
        "k": k,
        "tolerance": tol,
        "classification": _limit_class(part.sizes, k),
        "clusters": part.to_jsonable(),
    }


def figure_runs(seed_range: int, max_steps: int, addition_seed) -> tuple:
    """The runs of the three demo figures, as (stem, spec, record) triples in
    writing order, and the notes of `figures.meta.json`.

    Figures A and B are the first converged clustered and the first
    converged non-clustered limit at n=20, k=5, found in one scan over seeds
    0..seed_range-1; a range without a clustered limit raises ScenarioError,
    and one without a non-clustered limit falls back to the exact 20-agent
    construction. Figure C adds four agents to a ten-agent consensus at 0.4:
    k-NN (consensus untouched) and ABC d=0.25 (consensus swayed), with the
    same added opinions and the same update order."""
    found = {}   # classification -> (seed, spec, record)
    for seed in range(seed_range):
        spec = ScenarioSpec(
            model=ModelSpec(kind="knn", k=5),
            initial=InitialSpec(kind="uniform_random", n=20, low=0.0, high=1.0, seed=seed),
            schedule=ScheduleSpec(kind="uniform_random", seed=seed),
            max_steps=max_steps,
            record_every=5,
            name=f"n20-k5-seed{seed}",
        )
        record = simulate(spec)
        if record.stop_reason == STOP_CONVERGED:
            found.setdefault(record.classification, (seed, spec, record))
            if CLASS_CLUSTERED in found and CLASS_NON_CLUSTERED in found:
                break
    if CLASS_CLUSTERED not in found:
        raise ScenarioError(f"--seed-range: no run in seeds 0..{seed_range - 1} converged to a "
                            f"clustered limit within --max-steps {max_steps}")
    notes = {}
    notes["clustered_seed"], spec, record = found[CLASS_CLUSTERED]
    runs = [("fig_clustered", spec, record)]

    if CLASS_NON_CLUSTERED in found:
        notes["non_clustered_seed"], spec, record = found[CLASS_NON_CLUSTERED]
    else:
        notes["non_clustered_seed"] = None
        notes["non_clustered_fallback"] = (
            "no non-clustered limit found in the seed range; "
            "emitting the exact 20-agent construction instead"
        )
        spec = ScenarioSpec(
            model=ModelSpec(kind="knn", k=5),
            initial=InitialSpec(kind="explicit",
                                opinions=build_example1(Fraction(0), Fraction(1)).opinions),
            schedule=ScheduleSpec(kind="uniform_random", seed=0),
            max_steps=40,
            record_every=1,
            name="non-clustered-exact",
        )
        record = simulate(spec)
    runs.append(("fig_non_clustered", spec, record))

    common = dict(
        initial=InitialSpec(kind="explicit", opinions=(0.4,) * 10),
        schedule=ScheduleSpec(kind="uniform_random", seed=addition_seed),
        events=tuple(EventSpec(kind="add", step=step, opinion=("uniform_random", 0.0, 1.0))
                     for step in (2, 3, 4, 5)),
        event_seed=addition_seed,
        max_steps=max_steps,
        record_every=1,
    )
    for stem, model, name in (("fig_addition_knn", ModelSpec(kind="knn", k=5), "addition-knn"),
                              ("fig_addition_abc", ModelSpec(kind="abc", d=0.25), "addition-abc")):
        spec = ScenarioSpec(model=model, name=name, **common)
        runs.append((stem, spec, simulate(spec)))
    return runs, notes
