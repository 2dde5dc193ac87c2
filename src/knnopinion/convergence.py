"""Extremal selectors, the y/z boundary quantities, the deterministic
shrinking schedule, and certified checks of the contraction machinery.

All verifiers run on the exact backend: the contraction statements are
inequalities between rationals and are certified, not approximated. Every
verifier drives the one shared k-NN update implementation through an agent
schedule; nothing re-implements the dynamics.

An exact state's y and z come from one sort of its integer keys, as order
statistics; a float state's come from knn_indices, since rounding can give
two values one distance (see extremal_selection).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .dynamics import (
    Configuration,
    ParameterError,
    _check_k,
    diameter,
    knn_indices,
    knn_update,
)
from .numerics import Scalar
from .rng import SeededRng

MU = "MU"
BIG_M = "BIG_M"


@dataclass(frozen=True)
class ExtremalSelection:
    mu: int       # lowest-index minimizer
    big_m: int    # lowest-index maximizer
    y: Scalar     # max opinion within the mu agent's neighborhood
    z: Scalar     # min opinion within the big_m agent's neighborhood


@dataclass(frozen=True)
class ShrinkSchedule:
    """k-1 updates of the lowest agent followed by k-1 of the highest."""

    k: int

    @property
    def steps(self) -> list:
        return [MU] * (self.k - 1) + [BIG_M] * (self.k - 1)

    def __len__(self) -> int:
        return 2 * self.k - 2


@dataclass
class VerifierReport:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return asdict(self)


def scan_trials(name: str, trials: int, case: Callable[[], Optional[dict]],
                passed_detail: dict) -> VerifierReport:
    """Call `case` `trials` times; it draws and checks one random instance
    and returns None, or the detail of a failure. The first failure is
    reported under `name` with its trial index. A scan of no trials would
    certify nothing, so trials < 1 raises."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    for t in range(trials):
        detail = case()
        if detail is not None:
            return VerifierReport(name=name, passed=False, detail={"trial": t, **detail})
    return VerifierReport(name=name, passed=True, detail=passed_detail)


def mu_index(config: Configuration) -> int:
    keys = config.keys
    return keys.index(min(keys)) + 1


def big_m_index(config: Configuration) -> int:
    keys = config.keys
    return keys.index(max(keys)) + 1


def extremal_selection(config: Configuration, k: int) -> ExtremalSelection:
    keys, den = config.keys, config.den
    n = len(keys)
    _check_k(k, n)
    if den is None:
        mu, big_m = mu_index(config), big_m_index(config)
        # max/min keep the first of equal keys in selection order (a float's signed zero)
        y = max([keys[j] for j in knn_indices(keys, mu - 1, k)])
        z = min([keys[j] for j in knn_indices(keys, big_m - 1, k)])
        return ExtremalSelection(mu=mu, big_m=big_m, y=y, z=z)
    # on integers v - min is exact and rises with v, so the mu agent's
    # neighbours hold the k smallest keys and the big_m agent's the k largest
    s = sorted(keys)
    return ExtremalSelection(mu=keys.index(s[0]) + 1, big_m=keys.index(s[-1]) + 1,
                             y=Fraction(s[k - 1], den), z=Fraction(s[n - k], den))


def reflect(config: Configuration) -> Configuration:
    return Configuration._from_keys([-v for v in config.keys], config.den)


def random_exact_configuration(n: int, rng: SeededRng) -> Configuration:
    """Random rational opinions in [0, 24] with a shared small denominator;
    the small range makes exact ties common, which exercises the tie rule."""
    den = rng.randbelow(12) + 1
    return Configuration._from_keys(rng.randbelow_many(24 * den + 1, n), den)


def check_z_le_y(n: int, k: int, trials: int, seed) -> VerifierReport:
    """Dichotomy check: z <= y holds for every configuration iff n < 2k.

    For n < 2k, random search for a violation (must find none). For
    n >= 2k, the sorted-distinct witness x = (0, 1, ..., n-1) has its k
    smallest values strictly below the k largest, giving z > y exactly.
    """
    _check_k(k, n)
    if trials < 1:   # here too: the n >= 2k witness runs no scan
        raise ParameterError("trials must be >= 1")
    if n < 2 * k:
        rng = SeededRng(seed).derive(f"zy:{n}:{k}")

        def case():
            config = random_exact_configuration(n, rng)
            sel = extremal_selection(config, k)
            if sel.z > sel.y:
                return {"n": n, "k": k, "config": [str(v) for v in config.opinions]}
            return None

        return scan_trials("z_le_y", trials, case, {"n": n, "k": k, "trials": trials})
    witness = Configuration([Fraction(v) for v in range(n)])
    sel = extremal_selection(witness, k)
    return VerifierReport(
        name="z_le_y",
        passed=sel.z > sel.y,
        detail={
            "n": n, "k": k,
            "witness": [str(v) for v in witness.opinions],
            "y": str(sel.y), "z": str(sel.z),
        },
    )


@dataclass
class ScheduleRun:
    states: list          # Configuration, length steps+1
    updaters: list        # agent ids

    @property
    def diameters(self) -> list:
        return [diameter(s) for s in self.states]


def run_schedule_tags(config: Configuration, k: int, tags) -> ScheduleRun:
    states = [config]
    updaters = []
    for tag in tags:
        i = (mu_index if tag == MU else big_m_index)(states[-1])
        updaters.append(i)
        states.append(knn_update(states[-1], i, k))
    return ScheduleRun(states=states, updaters=updaters)


def run_shrink_schedule(config: Configuration, k: int) -> ScheduleRun:
    """Apply the 2k-2 step mu-then-M schedule. The (1 - 1/k) diameter
    contraction is guaranteed only for n < 2k; the run is executed for any
    n."""
    _check_k(k, config.n)
    return run_schedule_tags(config, k, ShrinkSchedule(k).steps)


def verify_lemma2_monotonicity(config: Configuration, k: int, steps: int) -> VerifierReport:
    """All-mu schedule: the mu agent's neighbor set and its max opinion y
    stay constant; members only rise, never above y(0); non-members are
    bit-constant. Opinions are compared on the stored keys: over positive
    denominators, a/da < b/db iff a*db < b*da."""
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    keys0, den0 = config.keys, config.den
    n = len(keys0)
    _check_k(k, n)

    members0 = set(knn_indices(keys0, mu_index(config) - 1, k))
    y0 = max(keys0[j] for j in members0)   # y(0) is y0 / den0
    run = run_schedule_tags(config, k, [MU] * steps)

    def fail(step, reason):
        return VerifierReport(
            name="mu_monotonicity",
            passed=False,
            detail={"step": step, "reason": reason,
                    "state": [str(v) for v in run.states[step].opinions]},
        )

    for t, mu in enumerate(run.updaters):
        state, after = run.states[t], run.states[t + 1]
        keys, den, new, new_den = state.keys, state.den, after.keys, after.den
        members = set(knn_indices(keys, mu - 1, k))
        if members != members0:
            return fail(t, "neighbor set of the minimal agent changed")
        if max(keys[j] for j in members) * den0 != y0 * den:
            return fail(t, "y changed")
        for j in range(n):
            if j in members0:
                if new[j] * den < keys[j] * new_den:
                    return fail(t, f"member {j + 1} decreased")
                if new[j] * den0 > y0 * new_den:
                    return fail(t, f"member {j + 1} exceeded y(0)")
            elif new[j] * den != keys[j] * new_den:
                return fail(t, f"non-member {j + 1} moved")
    return VerifierReport(
        name="mu_monotonicity", passed=True, detail={"steps": steps}
    )


def verify_lemma3_contraction(config: Configuration, k: int) -> VerifierReport:
    """After k-1 all-mu steps:
    y - min <= (1 - 1/k) * (y(0) - min(0)), certified exactly."""
    sel0 = extremal_selection(config, k)
    lo0 = min(config.opinions)
    state = run_schedule_tags(config, k, [MU] * (k - 1)).states[-1]
    y_end = extremal_selection(state, k).y
    lo_end = min(state.opinions)
    lhs = y_end - lo_end
    rhs = (1 - Fraction(1, k)) * (sel0.y - lo0)
    return VerifierReport(
        name="mu_contraction",
        passed=lhs <= rhs,
        detail={"lhs": str(lhs), "rhs": str(rhs), "k": k},
    )


def verify_lemma_bigm(config: Configuration, k: int, steps: int) -> VerifierReport:
    """Mirror-image checks under the all-M schedule. Reflection x -> -x keeps
    every distance and the id tie-break, so big_m(x) = mu(-x), neighbor sets
    agree, and the mu-side checks on -x are the M-side checks on x. The M
    schedule run directly on x is cross-checked against the negated mu
    schedule on -x."""
    mirror = reflect(config)
    for report in (verify_lemma2_monotonicity(mirror, k, steps),
                   verify_lemma3_contraction(mirror, k)):
        if not report.passed:
            return VerifierReport(name="big_m_mirror", passed=False,
                                  detail={"check_on_reflection": report.name, **report.detail})
    direct = run_schedule_tags(config, k, [BIG_M] * steps).states
    mirrored = run_schedule_tags(mirror, k, [MU] * steps).states
    for t, (state, image) in enumerate(zip(direct, mirrored)):
        if reflect(image) != state:
            return VerifierReport(
                name="big_m_mirror", passed=False,
                detail={"step": t, "reason": "reflection identity broken"},
            )
    return VerifierReport(name="big_m_mirror", passed=True, detail={"steps": steps})


def verify_shrink_contraction(config: Configuration, k: int) -> VerifierReport:
    """Certify diameter(T) <= (1 - 1/k) * diameter(0) after the shrink
    schedule (valid claim for n < 2k; reported, not asserted, otherwise)."""
    run = run_shrink_schedule(config, k)
    d0, dT = diameter(run.states[0]), diameter(run.states[-1])
    bound = (1 - Fraction(1, k)) * d0
    holds = dT <= bound
    applies = config.n < 2 * k
    return VerifierReport(
        name="shrink_contraction",
        passed=holds or not applies,
        detail={
            "n": config.n, "k": k,
            "initial_diameter": str(d0),
            "final_diameter": str(dT),
            "bound": str(bound),
            "bound_applies": applies,
            "observed_holds": holds,
        },
    )
