"""End-to-end acceptance gate.

Ten criteria, one test and one printed pass/fail line each, at pinned
tolerances. These are the binding checks for a release; run with
`pytest -v tests/test_acceptance.py`.
"""

from fractions import Fraction

from knnopinion.equilibria import (
    build_example1,
    build_tie_counterexample,
    is_clustered,
    is_equilibrium,
    partition_clusters,
    single_linkage_groups,
)
from knnopinion.export import trajectory_to_csv
from knnopinion.harness import (
    CLASS_CLUSTERED,
    CLASS_CONSENSUS,
    monte_carlo_consensus,
    robustness_addition,
    robustness_removal,
    simulate,
)
from knnopinion.rng import SeededRng
from knnopinion.scenario import parse_scenario
from knnopinion.verification import (
    random_cluster_layout,
    verify_shrink_grid,
    verify_zy_dichotomy_grid,
)
from builders import build_clustered

F = Fraction


def _report(num, label, ok):
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_exact_nonclustered_equilibria_certify():
    """Both equilibrium constructions certify exactly for 20 random rational
    (alpha, beta) pairs: fixed under every single-agent update, never
    clustered. Zero tolerance."""
    rng = SeededRng("acceptance:01")
    ok = True
    for _ in range(20):
        den = 1 + rng.randbelow(40)
        a = F(rng.randbelow(200) - 100, den)
        b = a + F(1 + rng.randbelow(120), den)
        for builder, k in ((build_tie_counterexample, 3), (build_example1, 5)):
            rep = is_equilibrium(builder(a, b), k)
            ok = ok and rep.is_equilibrium and not rep.is_clustered
    assert _report(1, "exact non-clustered equilibria", ok)


def test_criterion_02_cluster_size_equivalence():
    """Over 10,000 random exact cluster layouts (n <= 30, 1 <= k <= n), the
    neighbor-based clustered predicate equals (min same-opinion group size
    >= k) in every case."""
    rng = SeededRng("acceptance:02")
    ok = True
    for _ in range(10_000):
        n = 1 + rng.randbelow(30)
        k = 1 + rng.randbelow(n)
        config = random_cluster_layout(n, rng)
        min_size = min(len(m) for _, m in partition_clusters(config).groups)
        if is_clustered(config, k) != (min_size >= k):
            ok = False
            break
    assert _report(2, "cluster-size equivalence, 10,000 layouts", ok)


def test_criterion_03_extremal_dichotomy_grid():
    """For every (n, k) with 2 <= n <= 12: when n < 2k, 10,000 random exact
    configurations never put the max-side neighborhood minimum z above the
    min-side neighborhood maximum y; when n >= 2k, the witness configuration
    0..n-1 yields z > y exactly."""
    report = verify_zy_dichotomy_grid(10_000, seed="acceptance:03")
    assert _report(3, "z <= y dichotomy grid", report.passed), report.detail


def test_criterion_04_shrink_schedule_contraction():
    """For all (n, k) with n < 2k, n <= 15, and 1,000 random exact initial
    configurations each, the 2k-2 step extremal schedule contracts the
    diameter by at least the factor (1 - 1/k), as an exact rational
    inequality; k=2, n=3, x0=[0,1/2,1] achieves equality."""
    report = verify_shrink_grid(1_000, seed="acceptance:04", n_max=15)
    ok = report.passed
    from knnopinion.convergence import run_shrink_schedule
    from knnopinion.dynamics import Configuration

    run = run_shrink_schedule(Configuration([F(0), F(1, 2), F(1)]), 2)
    ok = ok and run.diameters[-1] == (1 - F(1, 2)) * run.diameters[0]
    assert _report(4, "exact diameter contraction", ok), report.detail


def test_criterion_05_consensus_small_populations():
    """For (n, k) in {(9,5), (7,4), (3,2)}, 100 seeded runs each with uniform
    random schedules reach diameter < 1e-9 within 10^6 steps in 100/100 runs,
    with every consensus value inside the initial opinion hull."""
    ok = True
    for n, k in ((9, 5), (7, 4), (3, 2)):
        stats = monte_carlo_consensus(
            n, k, runs=100, seed=f"acceptance:05:{n}:{k}",
            max_steps=10**6, tol=1e-9,
        )
        ok = ok and stats.all_converged and stats.hull_violations == 0
    assert _report(5, "consensus for n < 2k, 300 runs", ok)


def test_criterion_06_addition_leaves_originals_untouched():
    """Ten agents at 0.4 with k=5; four agents with uniform [0,1] opinions
    join at steps 2-5. Over 100 seeds the original agents stay bit-identical
    at every recorded step; in every converged generic run the added agents
    end within 1e-9 of 0.4. Runs that settle into a non-clustered numerical
    equilibrium instead are tallied separately and must still leave the
    originals untouched."""
    base = build_clustered([(F(2, 5), 10)])
    untouched = 0
    generic_ok = True
    non_clustered = 0
    unconverged = 0
    for s in range(100):
        rng = SeededRng(s).derive("additions")
        adds = [(step, rng.uniform(0.0, 1.0)) for step in (2, 3, 4, 5)]
        rep = robustness_addition(
            base, 5, adds, schedule_seed=s, max_steps=10**5, tol=1e-12
        ).knn
        if rep.originals_untouched:
            untouched += 1
        if rep.classification in (CLASS_CONSENSUS, CLASS_CLUSTERED):
            generic_ok = generic_ok and all(
                abs(v - 0.4) < 1e-9 for v in rep.final_added_opinions
            )
        elif rep.stop_reason == "max_steps":
            unconverged += 1
        else:
            non_clustered += 1
    ok = untouched == 100 and generic_ok and unconverged == 0
    print(f"  (addition runs: {non_clustered} reached a non-clustered "
          f"numerical equilibrium, {unconverged} did not converge)")
    assert _report(6, "addition robustness, 100 seeds", ok), (
        untouched, generic_ok, non_clustered, unconverged
    )


def test_criterion_07_removal_robustness_exact():
    """Clusters of sizes [k, k] with k=5: removing any agent breaks the
    equilibrium. Sizes [k+1, k]: removing from the larger cluster leaves an
    equilibrium. Exact arithmetic."""
    k = 5
    tight = build_clustered([(F(0), k), (F(1), k)])
    ok = all(
        not robustness_removal(tight, k, agent).still_equilibrium
        for agent in range(1, 2 * k + 1)
    )
    slack = build_clustered([(F(0), k + 1), (F(1), k)])
    for agent in range(1, k + 2):  # every member of the larger cluster
        rep = robustness_removal(slack, k, agent)
        ok = ok and rep.still_equilibrium and rep.expected_equilibrium
    assert _report(7, "removal robustness, exact", ok)


def test_criterion_08_cluster_count_bound_at_n20_k5():
    """In 500 random runs at n=20, k=5, every clustered limit has every
    cluster of size >= 5 and at most floor(20/5) = 4 clusters, and the
    two-cluster 10/10 split occurs with nonzero frequency."""
    tol = 1e-9
    ok = True
    saw_ten_ten = False
    for seed in range(500):
        spec = parse_scenario({
            "name": f"n20-k5-{seed}",
            "model": {"kind": "knn", "k": 5},
            "initial": {"kind": "uniform_random", "n": 20,
                        "low": 0.0, "high": 1.0, "seed": seed},
            "schedule": {"kind": "uniform_random", "seed": seed},
            "max_steps": 10**6,
            "tol": tol,
            "record_every": 10**6,
        })
        rec = simulate(spec)
        if rec.classification not in (CLASS_CONSENSUS, CLASS_CLUSTERED):
            continue
        groups = single_linkage_groups(list(rec.final_opinions), tol)
        sizes = sorted(len(g) for g in groups)
        ok = ok and all(s >= 5 for s in sizes) and len(sizes) <= 4
        if sizes == [10, 10]:
            saw_ten_ten = True
    ok = ok and saw_ten_ten
    assert _report(8, "cluster bound at n=20, k=5, 500 runs", ok)


def test_criterion_09_monotone_envelope():
    """Across 1,000 random runs with mixed n, k and schedule kinds, the max
    opinion never increases and the min never decreases at any step."""
    rng = SeededRng("acceptance:09")
    ok = True
    for t in range(1_000):
        n = 2 + rng.randbelow(11)
        k = 1 + rng.randbelow(n)
        kind = ("uniform_random", "shrink", "explicit")[t % 3]
        if kind == "uniform_random":
            schedule = {"kind": "uniform_random", "seed": t}
        elif kind == "shrink":
            schedule = {"kind": "shrink"}
        else:
            schedule = {"kind": "explicit",
                        "agents": [1 + rng.randbelow(n) for _ in range(120)]}
        spec = parse_scenario({
            "model": {"kind": "knn", "k": k},
            "initial": {"kind": "uniform_random", "n": n,
                        "low": 0.0, "high": 1.0, "seed": t},
            "schedule": schedule,
            "max_steps": 120,
            "record_every": 120,
        })
        rec = simulate(spec)
        ok = ok and all(b <= a for a, b in zip(rec.maxs, rec.maxs[1:]))
        ok = ok and all(b >= a for a, b in zip(rec.mins, rec.mins[1:]))
        if not ok:
            break
    assert _report(9, "monotone min/max envelope, 1,000 runs", ok)


def test_criterion_10_reproducible_csv():
    """The same scenario run twice yields byte-identical CSV output."""
    spec = parse_scenario({
        "name": "repro",
        "model": {"kind": "knn", "k": 4},
        "initial": {"kind": "uniform_random", "n": 12,
                    "low": 0.0, "high": 1.0, "seed": 2024},
        "schedule": {"kind": "uniform_random", "seed": 2025},
        "events": [{"kind": "add", "step": 3,
                    "opinion": {"kind": "uniform_random", "low": 0, "high": 1}}],
        "event_seed": 11,
        "max_steps": 50_000,
    })
    a = trajectory_to_csv(simulate(spec)).encode()
    b = trajectory_to_csv(simulate(spec)).encode()
    ok = a == b
    assert _report(10, "byte-identical reruns", ok)
