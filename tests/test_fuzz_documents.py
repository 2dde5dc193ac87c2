"""Fuzz of the JSON documents the CLI reads.

Small scenario, classify and robustness documents are mutated by deleting
fields or list items, or by replacing them with values from a fixed pool of
malformed ones. Whatever the mutation, `cli.main` must exit 0 or 2 without
raising, an exit 2 must print one `error: <field>: ...` line naming a field
of the document, and nothing may print a traceback. Every integer in the
pool is at most 10, and `simulate` runs with `--max-steps 10`, so no mutated
run grows.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knnopinion.cli import EXIT_OK, EXIT_USAGE, main
from knnopinion.scenario import ScenarioError, parse_grid

POOL = [None, True, False, -1, 0, 1, 2, 10, 0.5, -0.5, 1e-12, math.nan, math.inf,
        -math.inf, "", "x", "1/0", "1/2", "-3/4", "2/x", [], [1], [0.5, "1/3"], {},
        {"kind": "x"}, {"kind": "uniform_random", "low": 1, "high": 0}]

SCENARIOS = [
    {
        "name": "fuzz-knn",
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "explicit", "opinions": [0.0, 0.25, 0.5, 1.0]},
        "schedule": {"kind": "uniform_random", "seed": 3},
        "events": [{"kind": "add", "step": 2, "opinion": 0.75},
                   {"kind": "remove", "step": 3, "agent": 1}],
        "event_seed": 1,
        "max_steps": 10,
        "tol": 1e-9,
        "record_every": 2,
    },
    {
        "model": {"kind": "abc", "d": "1/4"},
        "initial": {"kind": "clusters", "groups": [{"opinion": "1/5", "size": 2},
                                                   {"opinion": "3/5", "size": 2}]},
        "schedule": {"kind": "explicit", "agents": [1, 3, 2]},
        "events": [{"kind": "remove", "step": 1, "agent": 4},
                   {"kind": "add", "step": 2, "opinion": "2/5"}],
        "max_steps": 6,
    },
    {
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "uniform_random", "n": 3, "low": 0, "high": 1, "seed": 5},
        "schedule": {"kind": "shrink"},
        "events": [{"kind": "add", "step": 2,
                    "opinion": {"kind": "uniform_random", "low": 0, "high": 1}}],
        "max_steps": 8,
    },
]
CONFIGS = [
    [0.1, 0.1, 0.9, 0.9],
    {"opinions": ["0/1", "1/2", "1/2", 1]},
    {"groups": [{"opinion": 0.25, "size": 2}, {"opinion": 0.5, "size": 3}]},
]
ROBUSTNESS = [
    ("add", {
        "base": {"groups": [{"opinion": "2/5", "size": 3}]},
        "k": 2,
        "abc_d": "1/4",
        "schedule_seed": 3,
        "addition_seed": 4,
        "additions": [{"step": 1, "opinion": 0.7},
                      {"step": 3, "opinion": {"kind": "uniform_random", "low": 0, "high": 1}}],
        "max_steps": 10,
        "tol": 1e-9,
    }),
    ("remove", {
        "base": {"groups": [{"opinion": "0/1", "size": 3}, {"opinion": "1/1", "size": 2}]},
        "k": 2,
        "remove": 4,
        "abc_d": 0.5,
        "schedule_seed": 1,
        "max_steps": 10,
    }),
]


def _keys(doc) -> set:
    if isinstance(doc, dict):
        return set(doc).union(*(_keys(v) for v in doc.values()))
    if isinstance(doc, list):
        return set().union(*(_keys(v) for v in doc))
    return set()


FIELD_ROOTS = (set().union(*(_keys(d) for d in SCENARIOS + CONFIGS))
               | set().union(*(_keys(d) for _, d in ROBUSTNESS))
               | {"opinions", "groups", "configuration", "--k", "--tol"})
FIELD_LINE = re.compile(r"error: (--[a-z-]+|[A-Za-z_]\w*)(?:\.\w+|\[\d+\])*: \S")


def _paths(doc, prefix=()):
    """Every path to a value inside `doc`, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        holder = doc
        for key in parents:
            holder = holder[key]
        if draw(st.booleans()):
            del holder[last]
        else:
            holder[last] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return doc


def _run(argv_for, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_for(path, tmp))
    assert code in (EXIT_OK, EXIT_USAGE), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == EXIT_USAGE:
        message = err.getvalue()
        match = FIELD_LINE.match(message)
        assert match and match.group(1) in FIELD_ROOTS, message


FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.sampled_from(SCENARIOS).flatmap(mutated))
def test_fuzzed_scenarios_exit_cleanly(doc):
    _run(lambda path, tmp: ["simulate", "--spec", path, "--out", os.path.join(tmp, "run"),
                            "--max-steps", "10"], doc)


@FUZZ
@given(st.sampled_from(CONFIGS).flatmap(mutated))
def test_fuzzed_classify_documents_exit_cleanly(doc):
    _run(lambda path, tmp: ["classify", "--config", path, "--k", "2"], doc)


@FUZZ
@given(st.sampled_from(ROBUSTNESS).flatmap(
    lambda case: st.tuples(st.just(case[0]), mutated(case[1]))))
def test_fuzzed_robustness_documents_exit_cleanly(case):
    mode, doc = case
    _run(lambda path, tmp: ["robustness", mode, "--spec", path], doc)


GRID_LINE = re.compile(r"(?:grid|\[\d+\]\.([A-Za-z_]\w*)(?:\.\w+|\[\d+\])*): \S")


@FUZZ
@given(st.tuples(st.sampled_from(SCENARIOS), st.sampled_from(SCENARIOS)).map(list)
       .flatmap(mutated))
def test_fuzzed_grids_parse_or_name_the_entry(grid):
    # parsing only: no scenario runs, so nothing can grow
    try:
        parse_grid(grid)
    except ScenarioError as exc:
        match = GRID_LINE.match(str(exc))
        # group 1 is the field root of an entry, None for `grid: ...`; an
        # entry replaced by a non-object is reported as `[i].scenario`
        assert match and match.group(1) in FIELD_ROOTS | {"scenario", None}, str(exc)
