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
import io
import os
import sys
from dataclasses import replace

from . import __version__
from .export import write_run_outputs
from .harness import (
    USAGE_ERRORS,
    batch_sweep,
    classify_configuration,
    figure_runs,
    robustness_addition,
    robustness_removal,
    simulate,
)
from .scenario import (
    DEFAULT_TOL,
    _positive,
    _require,
    _step,
    _tol,
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
        spec = replace(spec, **overrides)
    record = simulate(spec)
    paths = write_run_outputs(record, args.out, spec)
    print(f"{record.name}: {record.stop_reason} after {record.total_steps} steps "
          f"({record.classification}); wrote {', '.join(paths)}")
    return EXIT_OK


def cmd_classify(args) -> int:
    tol = _tol(args.tol, "--tol")
    config = parse_configuration(load_json(args.config))
    _require(1 <= args.k <= config.n, "--k", f"must be between 1 and n={config.n}")
    _write_json(classify_configuration(config, args.k, tol), args.out)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    suite = run_suite(args.seed, trials=_positive(args.trials, "--trials"))
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
    jobs = _positive(args.jobs, "--jobs")
    result = batch_sweep(parse_grid(load_json(args.grid)), jobs=jobs)
    _write_json(result.to_jsonable(), args.out)
    for i, msg in result.errors.items():
        print(f"error: [{i}].{msg}", file=sys.stderr)
    return EXIT_USAGE if result.errors else EXIT_OK


def cmd_figures(args) -> int:
    runs, notes = figure_runs(_positive(args.seed_range, "--seed-range"),
                              _step(args.max_steps, "--max-steps"), args.addition_seed)
    os.makedirs(args.out, exist_ok=True)
    for stem, spec, record in runs:
        prefix = os.path.join(args.out, stem)
        with open(f"{prefix}.scenario.json", "w") as fh:
            fh.write(spec.to_json())
        write_run_outputs(record, prefix, spec)
    _write_json(notes, os.path.join(args.out, "figures.meta.json"))
    print(f"figures written to {args.out}")
    return EXIT_OK


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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
    if isinstance(sys.stdout, io.TextIOWrapper):
        # a scenario's name may hold characters a narrow locale cannot
        # encode; stdout escapes them, as stderr does, rather than raising
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
