"""Benchmark for knnopinion: one seeded workload per invocation.

    python3 perfbench/run.py --workload float-small-sweep --seed 1 --seconds 42 --trace 0

Run it from anywhere inside a source tree that holds `src/knnopinion`,
`BENCHMARK.json` and this directory. Everything runs in this one process.

--trace 0  Set the workload up, then repeat its rounds until --seconds of
           calls into knnopinion have run, check every output, and print
           the end-to-end metrics. The set-up is repeated SETUPS times in
           all, each on a fresh import of knnopinion, between rounds;
           setup_s is the median.
--trace 1  Set up once, run round 0 plain, then run it again with every
           layer entry point wrapped (spans.py). Print the per-layer
           metrics, including the tracing overhead, and write the spans to
           .bench_out/spans-<workload>.tsv.

Both modes check outputs against the invariants in workloads.py and, for a
seed pinned in expectations.json, against the pinned sha256 of round 0.
Earlier stdout lines give the run context and every metric with its unit;
the last line is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import SPAN, TARGETS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "knnopinion"
MODULES = ("numerics", "rng", "dynamics", "equilibria", "convergence", "scenario",
           "harness", "verification", "export", "cli")
SETUPS = 15

# per-layer counts a workload computes from its outputs rather than from spans
COMPUTED_COUNTS = ("export.csv.rows", "export.csv.bytes", "export.svg.bytes",
                   "verification.verify_zy_dichotomy_grid.trials",
                   "verification.verify_shrink_grid.trials",
                   "verification.verify_cluster_size_equivalence.trials")


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the tree holds no program sources."""


def load_program():
    """Import knnopinion from this tree's src/, dropping any copy imported
    before, so that every call pays the whole import."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} package under {SRC}")
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise BenchError(f"imported {package.__file__}, not the tree's own copy")
    for name in MODULES:   # each import binds the module as an attribute of the package
        importlib.import_module(f"{PACKAGE}.{name}")
    return package


def setup_workload(name, seed, params):
    t0 = perf_counter()
    kp = load_program()
    workload = WORKLOADS[name](seed, str(OUT), **params)
    workload.setup(kp)
    return workload, perf_counter() - t0


def load_expectations():
    with open(HERE / "expectations.json") as fh:
        return json.load(fh)


def load_metric_list(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context_start():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu_model(), "git_commit": git_commit(), "src_sha256": src_digest(),
            "loadavg_start": list(os.getloadavg())}


def context_end(ctx):
    ctx["loadavg_end"] = list(os.getloadavg())
    # shared-machine noise: flag a run whose 1-minute load exceeded the cores
    ctx["overloaded"] = max(ctx["loadavg_start"][0], ctx["loadavg_end"][0]) > ctx["nproc"]
    return ctx


class Checker:
    """Counts checked operations and failures; compares round digests with
    the pinned ones and with earlier passes over the same pool entry."""

    def __init__(self, name, seed, pool):
        self.pinned = load_expectations()["digests"].get(name, {}).get(str(seed))
        self.pool = pool
        self.seen: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.round0_sha256 = None

    def add(self, index, result):
        self.attempted += result.attempted
        self.failures += result.failures
        key = index % self.pool
        first = self.seen.setdefault(key, result.digest)
        if first != result.digest:
            self.failures.append(f"round {index} digest differs from its first pass")
        if index == 0:
            self.round0_sha256 = result.digest
        if index == 0 and self.pinned is not None:
            self.attempted += 1
            if result.digest != self.pinned:
                self.failures.append(f"round 0 digest {result.digest} != pinned {self.pinned}")

    @property
    def failed(self):
        return len(self.failures)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(name, seed, seconds, params=None):
    """Untraced run: end-to-end metrics."""
    params = params or {}
    workload, took = setup_workload(name, seed, params)
    setups = [took]
    checker = Checker(name, seed, workload.pool)
    timed = steps = trials = 0
    samples: list = []
    rounds: list = []
    index = 0
    while index == 0 or timed < seconds:
        result = workload.run_round(index)
        checker.add(index, result)
        timed += result.seconds
        steps += result.steps
        trials += result.trials
        samples += result.run_seconds
        rounds.append((result.seconds, result.steps, result.trials, len(result.run_seconds)))
        index += 1
        # The machine's speed drifts over seconds, so the extra set-ups are
        # spread over the timed phase (and kept out of it) rather than
        # bunched at the start; their instances are discarded.
        if len(setups) < SETUPS and timed >= len(setups) * seconds / SETUPS:
            setups.append(setup_workload(name, seed, params)[1])
    while len(setups) < SETUPS:
        setups.append(setup_workload(name, seed, params)[1])
    p95 = quantile(samples, 0.95)
    values = {
        "setup_s": statistics.median(setups),
        "steps_per_s": steps / timed,
        "runs_per_s": len(samples) / timed,
        "run_p50_ms": statistics.median(samples) * 1e3,
        "run_p95_ms": p95 * 1e3,
        "trials_per_s": trials / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": checker.failed / checker.attempted,
    }
    info = {"rounds": index, "timed_s": timed, "steps": steps, "trials": trials,
            "run_samples": len(samples), "runs_above_p95": sum(s > p95 for s in samples),
            "setup_samples_s": setups, "rounds_detail": rounds}
    return values, checker, info


def layer_values(tracer, counts):
    values = dict(counts)
    for _, _, name, kind, _ in TARGETS:
        s = tracer.stat(name)
        values[f"{name}.calls"] = s["calls"]
        if kind == SPAN:
            values[f"{name}.self_s"] = s["self_s"]
            values[f"{name}.us_per_call"] = s["self_s"] / s["calls"] * 1e6 if s["calls"] else 0.0
            values[f"{name}.seconds"] = s["total_s"]
            values[f"{name}.updates"] = s["updates"]
    probe = tracer.stat("harness.probe")
    values["harness.probe.useful_ratio"] = probe["true"] / probe["calls"] if probe["calls"] else 0.0
    return values


def measure_traced(name, seed, params=None):
    """Traced run: round 0 plain, then round 0 with every layer wrapped."""
    workload, _ = setup_workload(name, seed, params or {})
    checker = Checker(name, seed, workload.pool)
    plain = workload.run_round(0)
    checker.add(0, plain)
    tracer = Tracer()
    tracer.install(PACKAGE)
    try:
        traced = workload.run_round(0)
    finally:
        tracer.uninstall()
    checker.add(0, traced)
    counts = dict.fromkeys(COMPUTED_COUNTS, 0)
    counts.update(traced.layer_counts)
    values = layer_values(tracer, counts)
    values["bench.untraced_wall_s"] = plain.seconds
    values["bench.traced_wall_s"] = traced.seconds
    values["bench.trace_overhead_s"] = traced.seconds - plain.seconds
    OUT.mkdir(exist_ok=True)
    span_count = tracer.write(str(OUT / f"spans-{name}.tsv"))
    info = {"spans": span_count, "traced_self_s_sum": sum(tracer.self_s),
            "untraced_layers": tracer.missing}
    return values, checker, info


def emit(values, metric_list):
    metrics = {}
    for metric, unit in metric_list:
        if metric not in values:
            raise BenchError(f"metric {metric} listed in BENCHMARK.json is not measured")
        metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ctx = context_start()
        OUT.mkdir(exist_ok=True)
        if args.trace:
            values, checker, info = measure_traced(args.workload, args.seed)
            metrics = emit(values, load_metric_list("per_layer"))
        else:
            values, checker, info = measure(args.workload, args.seed, args.seconds)
            metrics = emit(values, load_metric_list("end_to_end"))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    ctx = context_end(ctx)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "context": ctx, "info": info, "round0_sha256": checker.round0_sha256,
              "failures": checker.failures[:20], "metrics": metrics}
    print(f"context {json.dumps(ctx)}")
    print(f"info {json.dumps({k: v for k, v in info.items() if k != 'rounds_detail'})}")
    print(f"sha256 round0 {checker.round0_sha256} "
          f"{'pinned' if checker.pinned else 'not pinned for this seed'}")
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    if not args.trace:
        print(f"metric error_rate {values['error_rate']:.6g} ratio "
              f"({checker.failed} failed of {checker.attempted} attempted)")
    for metric, m in metrics.items():
        print(f"metric {metric} {m['value']:.6g} {m['unit']}")
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
