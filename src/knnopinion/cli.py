"""Command-line front end.

Subcommands: simulate, classify, verify-lemmas, robustness {add,remove},
sweep, figures. Every command is a thin shell over the library; exit codes
are 0 (success / all checks passed), 1 (verification failure), 2 (usage or
document error, or a failed sweep entry), 3 (I/O error). The argument
parser is built once per process, on the first call of main.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .dynamics import ParameterError
from .equilibria import (
    build_example1,
    is_equilibrium,
    quantize_clusters,
)
from .export import write_run_outputs
from .harness import (
    CLASS_CLUSTERED,
    CLASS_NON_CLUSTERED,
    STOP_CONVERGED,
    _limit_class,
    robustness_addition,
    robustness_removal,
    batch_sweep,
    simulate,
)
from .numerics import EXACT, BackendError
from .scenario import (
    EventSpec,
    InitialSpec,
    ModelSpec,
    ScenarioError,
    ScenarioSpec,
    ScheduleSpec,
    _require,
    int_at_least,
    json_text,
    load_json,
    load_scenario,
    parse_configuration,
    parse_grid,
    parse_robustness,
)
from .verification import run_suite

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _write_json(payload, path):
    if path is None or path == "-":
        sys.stdout.write(json_text(payload))
    else:
        with open(path, "w") as fh:
            fh.write(json_text(payload))


def cmd_simulate(args) -> int:
    spec = load_scenario(args.spec)
    overrides = {key: getattr(args, key) for key in ("max_steps", "tol", "record_every")
                 if getattr(args, key) is not None}
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)
    record = simulate(spec)
    paths = write_run_outputs(record, args.out, spec)
    print(f"{record.name}: {record.stop_reason} after {record.total_steps} steps "
          f"({record.classification}); wrote {', '.join(paths)}")
    return EXIT_OK


def cmd_classify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ParameterError("--tol: must be a finite positive number")
    config = parse_configuration(load_json(args.config))
    _require(1 <= args.k <= config.n, "--k", f"must be between 1 and n={config.n}")
    if config.backend == EXACT:
        report = is_equilibrium(config, args.k)
        payload = {"mode": "exact", "k": args.k, **report.to_jsonable()}
    else:
        part = quantize_clusters(config, args.tol)
        payload = {
            "mode": "numerical",
            "k": args.k,
            "tolerance": args.tol,
            "classification": _limit_class(part.sizes, args.k),
            "clusters": part.to_jsonable(),
        }
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    _require(int_at_least(args.trials, 1), "--trials", "must be a positive integer")
    suite = run_suite(args.seed, trials=args.trials)
    _write_json(suite.to_jsonable(), args.out)
    for report in suite.reports:
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {report.name}", file=sys.stderr)
    return EXIT_OK if suite.all_passed else EXIT_VERIFICATION_FAILED


def cmd_robustness(args) -> int:
    run = robustness_addition if args.mode == "add" else robustness_removal
    report = run(**parse_robustness(load_json(args.spec), args.mode))
    _write_json(report.to_jsonable(), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _require(int_at_least(args.jobs, 1), "--jobs", "must be a positive integer")
    result = batch_sweep(parse_grid(load_json(args.grid)), jobs=args.jobs)
    _write_json(result.to_jsonable(), args.out)
    for i, msg in result.errors.items():
        print(f"error: [{i}].{msg}", file=sys.stderr)
    return EXIT_USAGE if result.errors else EXIT_OK


def _figure_spec_clustered(seed, max_steps):
    return ScenarioSpec(
        model=ModelSpec(kind="knn", k=5),
        initial=InitialSpec(kind="uniform_random", n=20, low=0.0, high=1.0, seed=seed),
        schedule=ScheduleSpec(kind="uniform_random", seed=seed),
        max_steps=max_steps,
        record_every=5,
        name=f"n20-k5-seed{seed}",
    )


def cmd_figures(args) -> int:
    _require(int_at_least(args.seed_range, 1), "--seed-range", "must be a positive integer")
    _require(int_at_least(args.max_steps, 0), "--max-steps", "must be a nonnegative integer")
    notes = {}

    # Figures A and B: the first converged clustered and the first converged
    # non-clustered limit at n=20, k=5, found in one scan over the seeds.
    found = {}   # classification -> (seed, spec, record)
    for seed in range(args.seed_range):
        spec = _figure_spec_clustered(seed, args.max_steps)
        record = simulate(spec)
        if record.stop_reason == STOP_CONVERGED:
            found.setdefault(record.classification, (seed, spec, record))
            if CLASS_CLUSTERED in found and CLASS_NON_CLUSTERED in found:
                break
    _require(CLASS_CLUSTERED in found, "--seed-range",
             f"no run in seeds 0..{args.seed_range - 1} converged to a clustered "
             f"limit within --max-steps {args.max_steps}")
    os.makedirs(args.out, exist_ok=True)
    notes["clustered_seed"], fig1_spec, fig1_record = found[CLASS_CLUSTERED]
    _emit_figure(args.out, "fig_clustered", fig1_spec, fig1_record)

    # If the seed range has no non-clustered limit, the exact 20-agent
    # construction stands in for figure B.
    if CLASS_NON_CLUSTERED in found:
        notes["non_clustered_seed"], fig2_spec, fig2_record = found[CLASS_NON_CLUSTERED]
    else:
        notes["non_clustered_seed"] = None
        notes["non_clustered_fallback"] = (
            "no non-clustered limit found in the seed range; "
            "emitting the exact 20-agent construction instead"
        )
        config = build_example1(Fraction(0), Fraction(1))
        fig2_spec = ScenarioSpec(
            model=ModelSpec(kind="knn", k=5),
            initial=InitialSpec(kind="explicit", opinions=tuple(config.opinions)),
            schedule=ScheduleSpec(kind="uniform_random", seed=0),
            max_steps=40,
            record_every=1,
            name="non-clustered-exact",
        )
        fig2_record = simulate(fig2_spec)
    _emit_figure(args.out, "fig_non_clustered", fig2_spec, fig2_record)

    # Figure C: four additions to a ten-agent consensus at 0.4; k-NN upper
    # (consensus untouched) vs ABC d=0.25 lower (consensus swayed), same
    # added opinions and same update order.
    events = tuple(
        EventSpec(kind="add", step=step, opinion=("uniform_random", 0.0, 1.0))
        for step in (2, 3, 4, 5)
    )
    common = dict(
        initial=InitialSpec(kind="explicit", opinions=tuple([0.4] * 10)),
        schedule=ScheduleSpec(kind="uniform_random", seed=args.addition_seed),
        events=events,
        event_seed=args.addition_seed,
        max_steps=args.max_steps,
        record_every=1,
    )
    fig3_knn = ScenarioSpec(model=ModelSpec(kind="knn", k=5),
                            name="addition-knn", **common)
    fig3_abc = ScenarioSpec(model=ModelSpec(kind="abc", d=0.25),
                            name="addition-abc", **common)
    _emit_figure(args.out, "fig_addition_knn", fig3_knn, simulate(fig3_knn))
    _emit_figure(args.out, "fig_addition_abc", fig3_abc, simulate(fig3_abc))

    _write_json(notes, os.path.join(args.out, "figures.meta.json"))
    print(f"figures written to {args.out}")
    return EXIT_OK


def _emit_figure(outdir, stem, spec, record):
    prefix = os.path.join(outdir, stem)
    with open(f"{prefix}.scenario.json", "w") as fh:
        fh.write(spec.to_json())
    write_run_outputs(record, prefix, spec)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knnopinion",
        description="Asynchronous k-nearest-neighbor opinion dynamics: "
                    "simulation, classification and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--record-every", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="classify a configuration file")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, required=True)
    # 1e-9 sits well above the roundoff accumulated over ~1e5 averaging
    # steps and well below the inter-cluster gaps seen at n=20
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-lemmas", help="run the verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("robustness", help="addition/removal experiments")
    p.add_argument("mode", choices=["add", "remove"])
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("sweep", help="run a grid of scenarios")
    p.add_argument("--grid", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="reproduce the three demo figures")
    p.add_argument("--out", required=True)
    p.add_argument("--seed-range", type=int, default=120)
    p.add_argument("--max-steps", type=int, default=200000)
    p.add_argument("--addition-seed", type=int, default=7)
    p.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ParameterError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
