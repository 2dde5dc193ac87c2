"""The bundled verification suite: randomized, certified checks of the
cluster-size equivalence, the monotonicity/contraction machinery, the z/y
dichotomy, the shrinking-schedule contraction, and the two non-clustered
equilibrium constructions. Everything runs on the exact backend.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .convergence import (
    VerifierReport,
    check_z_le_y,
    random_exact_configuration,
    scan_trials,
    verify_lemma2_monotonicity,
    verify_lemma3_contraction,
    verify_lemma_bigm,
    verify_shrink_contraction,
)
from .dynamics import Configuration, ParameterError
from .equilibria import (
    build_example1,
    build_tie_counterexample,
    is_clustered,
    is_equilibrium,
    max_cluster_count,
    partition_clusters,
)
from .rng import SeededRng


def random_cluster_layout(n: int, rng: SeededRng) -> Configuration:
    """Random partition of n agents into same-opinion groups with distinct
    opinions and shuffled agent positions; group sizes are a uniform-ish
    random composition of n, so sizes below any k occur regularly."""
    sizes = []
    left = n
    while left > 0:
        s = 1 + rng.randbelow(left)
        sizes.append(s)
        left -= s
    opinions = list(range(3 * len(sizes)))
    rng.shuffle(opinions)
    values = []
    for gi, size in enumerate(sizes):
        values.extend([opinions[gi]] * size)
    rng.shuffle(values)
    return Configuration._from_keys(values, 1)   # integer opinions: keys over 1


def verify_cluster_size_equivalence(trials: int, seed) -> VerifierReport:
    """is_clustered(x, k) must coincide with (min same-opinion group size
    >= k) on random layouts; the size side is counted here from equal keys,
    independently of the neighbor-based definition and of the grouping."""
    rng = SeededRng(seed).derive("cluster-size")

    def case():
        n = 1 + rng.randbelow(30)
        k = 1 + rng.randbelow(n)
        config = random_cluster_layout(n, rng)
        if is_clustered(config, k) != (min(Counter(config.keys).values()) >= k):
            return {"n": n, "k": k, "config": [str(v) for v in config.opinions]}
        return None

    return scan_trials("cluster_size_equivalence", trials, case, {"trials": trials})


def verify_clustered_implies_equilibrium(trials: int, seed) -> VerifierReport:
    rng = SeededRng(seed).derive("clustered-eq")

    def case():
        n = 1 + rng.randbelow(30)
        config = random_cluster_layout(n, rng)
        k = min(Counter(config.keys).values())  # the layout is clustered at this k
        if not is_clustered(config, k):
            return {"reason": "layout not clustered at k=min size"}
        if not is_equilibrium(config, k).is_equilibrium:
            return {"n": n, "k": k, "config": [str(v) for v in config.opinions]}
        return None

    return scan_trials("clustered_implies_equilibrium", trials, case, {"checked": trials})


def _first_failure(name, passed_detail, reports) -> VerifierReport:
    """The first failed report of the lazy `reports`, so no check after it
    runs or draws, else a passed report `name` with `passed_detail`."""
    return next((r for r in reports if not r.passed),
                VerifierReport(name=name, passed=True, detail=passed_detail))


def verify_floor_bound_tight() -> VerifierReport:
    """For every (n, k) with n <= 20 a clustered layout with floor(n/k)
    groups exists: floor(n/k) - 1 groups of size k plus one group with the
    remainder."""
    def check(n, k):
        count = max_cluster_count(n, k)
        sizes = [k] * (count - 1) + [n - k * (count - 1)]
        config = Configuration([Fraction(gi) for gi, size in enumerate(sizes) for _ in range(size)])
        passed = len(partition_clusters(config).groups) == count and is_clustered(config, k)
        return VerifierReport(name="floor_bound_tight", passed=passed,
                              detail={"n": n, "k": k, "sizes": sizes})

    return _first_failure("floor_bound_tight", {"n_max": 20},
                          (check(n, k) for n in range(1, 21) for k in range(1, n + 1)))


def verify_counterexamples(pairs: int, seed) -> VerifierReport:
    """Both non-clustered equilibrium constructions certify for random
    rational (alpha, beta) pairs with alpha < beta."""
    rng = SeededRng(seed).derive("counterexamples")

    def case():
        den = 1 + rng.randbelow(30)
        a = Fraction(rng.randbelow(200) - 100, den)
        b = a + Fraction(1 + rng.randbelow(100), den)
        for builder, k in ((build_tie_counterexample, 3), (build_example1, 5)):
            report = is_equilibrium(builder(a, b), k)
            if not report.is_equilibrium or report.is_clustered:
                return {"alpha": str(a), "beta": str(b), "builder": builder.__name__}
        return None

    return scan_trials("counterexamples", pairs, case, {"pairs": pairs})


def _random_exact_trials(name, stream, check, trials, seed) -> VerifierReport:
    """`check(config, k)` on random exact states with 2 <= n <= 12 and
    1 <= k <= n, drawn from the substream `stream` of `seed`."""
    rng = SeededRng(seed).derive(stream)

    def case():
        n = 2 + rng.randbelow(11)
        k = 1 + rng.randbelow(n)
        report = check(random_exact_configuration(n, rng), k)
        return None if report.passed else {**report.detail, "n": n, "k": k}

    return scan_trials(name, trials, case, {"trials": trials})


def verify_zy_dichotomy_grid(trials_per_pair: int, seed, n_max: int = 12) -> VerifierReport:
    """check_z_le_y for every (n, k) with 2 <= n <= n_max."""
    if n_max < 2:
        raise ParameterError("n_max must be >= 2")
    return _first_failure("z_le_y", {"n_max": n_max, "trials_per_pair": trials_per_pair},
                          (check_z_le_y(n, k, trials_per_pair, seed)
                           for n in range(2, n_max + 1) for k in range(1, n + 1)))


def verify_shrink_grid(trials_per_pair: int, seed, n_max: int = 10) -> VerifierReport:
    """Exact contraction certificate for every (n, k) with n < 2k, n <= n_max."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    rng = SeededRng(seed).derive("shrink")

    def pair(n, k):
        def case():
            report = verify_shrink_contraction(random_exact_configuration(n, rng), k)
            return None if report.passed else report.detail

        return scan_trials("shrink_contraction", trials_per_pair, case, {})

    return _first_failure(
        "shrink_contraction", {"n_max": n_max, "trials_per_pair": trials_per_pair},
        (pair(n, k) for n in range(1, n_max + 1) for k in range(n // 2 + 1, n + 1)))


@dataclass
class SuiteReport:
    reports: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_jsonable(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": {r.name: r.to_jsonable() for r in self.reports},
        }


def run_suite(seed, trials: int = 200) -> SuiteReport:
    """The full verification suite at a configurable trial budget."""
    return SuiteReport(reports=[
        verify_cluster_size_equivalence(trials, seed),
        verify_clustered_implies_equilibrium(max(20, trials // 4), seed),
        verify_floor_bound_tight(),
        verify_counterexamples(max(20, trials // 10), seed),
        _random_exact_trials(
            "mu_monotonicity", "mu-mono",
            lambda x, k: verify_lemma2_monotonicity(x, k, steps=2 * k + 3), trials, seed),
        _random_exact_trials(
            "mu_contraction", "mu-contract", verify_lemma3_contraction, trials, seed),
        _random_exact_trials(
            "big_m_mirror", "big-m",
            lambda x, k: verify_lemma_bigm(x, k, steps=2 * k + 3), max(20, trials // 4), seed),
        verify_zy_dichotomy_grid(max(50, trials // 2), seed),
        verify_shrink_grid(max(10, trials // 10), seed),
    ])
