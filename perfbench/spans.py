"""In-memory span tracing of knnopinion's layer entry points.

`Tracer.install()` replaces each entry point listed in `TARGETS` with a
wrapper in every knnopinion namespace that binds it, so a function imported
with `from .x import f` is traced in its caller's module too.
`Tracer.uninstall()` puts the originals back.

A span records (name, start, end, parent span, run id). Spans live in
compact arrays until `write()`. Self time is a span's duration minus the
time covered by its child spans, accumulated as spans close.

Two lighter kinds of hook sit beside the spans:
- a counter hook counts calls; an update hook also charges one "update" to
  the innermost open span (a probe sweep, the simulate loop ...);
- a span may count the calls that returned True (the convergence probe).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

SPAN = "span"
COUNT = "count"      # calls only
UPDATE = "update"    # calls, plus one update charged to the innermost open span

# (module, attribute path, metric prefix, kind, count True results)
TARGETS = [
    ("numerics", "mean_of", "numerics.mean_of", SPAN, False),
    ("numerics", "coerce_all", "numerics.coerce_all", SPAN, False),
    ("dynamics", "knn_indices", "dynamics.knn_indices", SPAN, False),
    ("dynamics", "abc_indices", "dynamics.abc_indices", SPAN, False),
    ("dynamics", "Configuration.replace", "dynamics.Configuration.replace", SPAN, False),
    ("dynamics", "knn_update", "dynamics.knn_update", SPAN, False),
    ("dynamics", "knn_updated_value", "dynamics.knn_updated_value", UPDATE, False),
    ("dynamics", "abc_updated_value", "dynamics.abc_updated_value", UPDATE, False),
    ("rng", "SeededRng.randbelow", "rng.SeededRng.randbelow", COUNT, False),
    ("harness", "simulate", "harness.simulate", SPAN, False),
    ("harness", "_float_converged", "harness.probe", SPAN, True),
    ("harness", "classify_opinions", "harness.classify_opinions", SPAN, False),
    ("equilibria", "single_linkage_groups", "equilibria.single_linkage_groups", SPAN, False),
    ("equilibria", "is_clustered", "equilibria.is_clustered", SPAN, False),
    ("equilibria", "partition_clusters", "equilibria.partition_clusters", SPAN, False),
    ("convergence", "run_shrink_schedule", "convergence.run_shrink_schedule", SPAN, False),
    ("convergence", "extremal_selection", "convergence.extremal_selection", SPAN, False),
    ("convergence", "check_z_le_y", "convergence.check_z_le_y", SPAN, False),
    ("convergence", "random_exact_configuration",
     "convergence.random_exact_configuration", SPAN, False),
    ("verification", "verify_zy_dichotomy_grid",
     "verification.verify_zy_dichotomy_grid", SPAN, False),
    ("verification", "verify_shrink_grid", "verification.verify_shrink_grid", SPAN, False),
    ("verification", "verify_cluster_size_equivalence",
     "verification.verify_cluster_size_equivalence", SPAN, False),
    ("export", "trajectory_to_csv", "export.trajectory_to_csv", SPAN, False),
    ("export", "trajectory_to_svg", "export.trajectory_to_svg", SPAN, False),
    ("export", "write_run_outputs", "export.write_run_outputs", SPAN, False),
    ("scenario", "parse_scenario", "scenario.parse_scenario", SPAN, False),
    ("cli", "main", "cli.main", SPAN, False),
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.total_s: list = []
        self.updates: list = []
        self.true_count: list = []
        self.missing: list = []
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_run = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_id = 0
        self._stack: list = []   # [span index, child seconds, name id]
        self._restore: list = []
        self.origin = perf_counter()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for stat in (self.calls, self.updates, self.true_count):
                stat.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def _open(self, nid: int) -> list:
        sid = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_run.append(self.run_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, 0.0, nid]
        stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        sid, child, nid = frame
        self.span_start[sid] = t0 - self.origin
        self.span_end[sid] = t1 - self.origin
        d = t1 - t0
        self.calls[nid] += 1
        self.total_s[nid] += d
        self.self_s[nid] += d - child
        if stack:
            stack[-1][1] += d

    def span_wrapper(self, name: str, fn, count_true: bool = False):
        nid = self._name_id(name)
        open_, close = self._open, self._close
        true_count = self.true_count

        def traced(*args, **kwargs):
            frame = open_(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(frame, t0, perf_counter())
            if count_true and out is True:
                true_count[nid] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn, charge_update: bool = False):
        nid = self._name_id(name)
        calls, updates, stack = self.calls, self.updates, self._stack

        def counted(*args, **kwargs):
            calls[nid] += 1
            if charge_update and stack:
                updates[stack[-1][2]] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, package: str = "knnopinion") -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, path, name, kind, count_true in TARGETS:
            self._name_id(name)
            module = sys.modules.get(f"{package}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if kind == SPAN:
                wrapper = self.span_wrapper(name, original, count_true)
            else:
                wrapper = self.count_wrapper(name, original, kind == UPDATE)
            if owner_path:
                owners = [(owner, attr)]
            else:
                owners = [(m, key) for m in modules
                          for key, value in list(vars(m).items()) if value is original]
            for obj, key in owners:
                setattr(obj, key, wrapper)
                self._restore.append((obj, key, original))

    def uninstall(self) -> None:
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    def stat(self, name: str) -> dict:
        nid = self._ids.get(name)
        if nid is None:
            return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "updates": 0, "true": 0}
        return {"calls": self.calls[nid], "self_s": self.self_s[nid],
                "total_s": self.total_s[nid], "updates": self.updates[nid],
                "true": self.true_count[nid]}

    def write(self, path: str) -> int:
        """Write every span as a tab-separated row; returns the span count."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trun\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_run[i]}\n")
        return len(self.span_name)

