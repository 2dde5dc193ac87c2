import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import knnopinion
from knnopinion import cli, convergence, dynamics, equilibria
from knnopinion.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION_FAILED, main
from knnopinion.export import CSV_HEADER, trajectory_to_csv
from knnopinion.harness import simulate
from knnopinion.scenario import ScenarioError, json_text, load_scenario, parse_scenario
from knnopinion.verification import run_suite

SCENARIO = {
    "name": "smoke",
    "model": {"kind": "knn", "k": 3},
    "initial": {"kind": "uniform_random", "n": 8, "low": 0.0, "high": 1.0, "seed": 21},
    "schedule": {"kind": "uniform_random", "seed": 22},
    "max_steps": 20000,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_scenario_round_trip_through_json():
    spec = parse_scenario(SCENARIO)
    again = parse_scenario(json.loads(spec.to_json()))
    assert again == spec


def test_scenario_round_trip_exact_opinions():
    spec = parse_scenario({
        "model": {"kind": "knn", "k": 1},
        "initial": {"kind": "explicit", "opinions": ["1/3", "2/3", 1]},
        "schedule": {"kind": "explicit", "agents": [1, 2, 3]},
    })
    assert parse_scenario(json.loads(spec.to_json())) == spec


def test_json_text_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        json_text({"x": float("nan")})
    spec = parse_scenario(SCENARIO)
    with pytest.raises(ValueError):
        replace(spec, tol=float("nan")).to_json()


@pytest.mark.parametrize("fault", [KeyError("seed"), ValueError("bad value")])
def test_a_program_fault_is_not_a_usage_error(tmp_path, monkeypatch, fault):
    """Only the library's own errors exit 2; any other exception propagates."""
    def broken(spec):
        raise fault

    monkeypatch.setattr(cli, "simulate", broken)
    spec_path = write_json(tmp_path / "s.json", SCENARIO)
    with pytest.raises(type(fault)) as info:
        main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "run")])
    assert info.value is fault


def test_simulate_writes_csv_meta_svg(tmp_path, capsys):
    spec_path = write_json(tmp_path / "s.json", SCENARIO)
    out = str(tmp_path / "run")
    assert main(["simulate", "--spec", spec_path, "--out", out]) == EXIT_OK

    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["stop_reason"] in ("converged", "equilibrium_detected")
    assert (tmp_path / "run.svg").read_text().startswith("<svg")

    # the file must equal the library's own rendering of the same scenario
    record = simulate(load_scenario(spec_path))
    assert csv_text == trajectory_to_csv(record)


def test_simulate_reads_utf8_and_reports_under_an_ascii_locale(tmp_path):
    # a C locale with neither UTF-8 mode nor locale coercion: the locale's
    # encoding and stdout's are ASCII
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(dict(SCENARIO, name="café"), ensure_ascii=False),
                         encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(knnopinion.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "knnopinion.cli", "simulate", "--spec", str(spec_path),
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    meta = json.loads((tmp_path / "run.meta.json").read_text(encoding="utf-8"))
    assert meta["name"] == "café"


def test_simulate_reruns_are_byte_identical(tmp_path):
    spec_path = write_json(tmp_path / "s.json", SCENARIO)
    main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "a")])
    main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_main_calls_in_one_process_do_not_share_options(tmp_path, capsys):
    """main reuses one parser; each call still reads only its own argv."""
    spec_path = write_json(tmp_path / "s.json", SCENARIO)
    out = str(tmp_path / "run")
    assert main(["simulate", "--spec", spec_path, "--out", out, "--max-steps", "3"]) == EXIT_OK
    assert json.loads((tmp_path / "run.meta.json").read_text())["scenario"]["max_steps"] == 3
    assert main(["simulate", "--spec", spec_path, "--out", out]) == EXIT_OK
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["scenario"]["max_steps"] == SCENARIO["max_steps"]
    config = write_json(tmp_path / "c.json", [0.1, 0.1, 0.9, 0.9])
    assert main(["classify", "--config", config, "--k", "2"]) == EXIT_OK
    assert cli.build_parser() is cli.build_parser()


def test_simulate_missing_file_is_io_error(tmp_path):
    code = main(["simulate", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert code == 3


def test_simulate_invalid_spec_names_field(tmp_path, capsys):
    bad = dict(SCENARIO, model={"kind": "knn", "k": 99})
    spec_path = write_json(tmp_path / "bad.json", bad)
    code = main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "model.k" in capsys.readouterr().err


def test_classify_exact_counterexample(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", {
        "opinions": ["0/1", "1/1", "0/1", "1/1", "0/1", "1/1", "1/2"],
    })
    assert main(["classify", "--config", config, "--k", "3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "exact"
    assert payload["is_equilibrium"] is True
    assert payload["is_clustered"] is False


def test_classify_groups_document(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", {
        "groups": [{"opinion": "0/1", "size": 5}, {"opinion": "1/1", "size": 5}],
    })
    assert main(["classify", "--config", config, "--k", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_clustered"] is True


def test_classify_float_quantizes(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", [0.1, 0.1 + 1e-12, 0.9, 0.9, 0.9])
    assert main(["classify", "--config", config, "--k", "2", "--tol", "1e-9"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "numerical"
    assert [len(g["members"]) for g in payload["clusters"]["groups"]] == [2, 3]
    assert payload["classification"] == "clustered"


def test_classify_bad_k_is_usage_error(tmp_path):
    config = write_json(tmp_path / "c.json", [0.1, 0.9])
    assert main(["classify", "--config", config, "--k", "5"]) == EXIT_USAGE


def test_verify_lemmas_matches_library(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = main(["verify-lemmas", "--seed", "5", "--trials", "25", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload == run_suite(5, trials=25).to_jsonable()
    err = capsys.readouterr().err
    assert "[pass]" in err and "[FAIL]" not in err


def test_verify_lemmas_report_is_pinned(tmp_path):
    # sha256 of the report written before the exact kernels moved to integer
    # numerators; any drift in a verdict or witness changes it
    out = tmp_path / "suite.json"
    assert main(["verify-lemmas", "--seed", "0", "--trials", "50", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "56699c43f7a99c0004f41f21e1237f4efdfeb3da7c6554c27de6a07ff59c483a")


def test_verify_lemmas_reports_a_neighbour_rule_that_takes_k_plus_1(tmp_path, capsys,
                                                                     monkeypatch):
    # every certificate is checked in its verifier, so a wrong neighbour rule
    # is a failed check in the report, not an exception out of a builder
    real = dynamics.knn_indices
    for module in (dynamics, equilibria, convergence):
        monkeypatch.setattr(module, "knn_indices", lambda keys, idx, k: real(keys, idx, k + 1))
    out = tmp_path / "suite.json"
    assert main(["verify-lemmas", "--trials", "20", "--out", str(out)]) == EXIT_VERIFICATION_FAILED
    payload = json.loads(out.read_text())
    assert not payload["all_passed"]
    assert {name: check["passed"] for name, check in payload["checks"].items()} == {
        "cluster_size_equivalence": False, "clustered_implies_equilibrium": False,
        "floor_bound_tight": False, "counterexamples": False, "mu_monotonicity": False,
        "mu_contraction": True, "big_m_mirror": False, "z_le_y": True,
        "shrink_contraction": False}
    assert payload["checks"]["cluster_size_equivalence"]["detail"]["k"] == 1
    assert "[FAIL] cluster_size_equivalence" in capsys.readouterr().err


def test_robustness_add_cli(tmp_path, capsys):
    spec = write_json(tmp_path / "r.json", {
        "base": {"groups": [{"opinion": "2/5", "size": 10}]},
        "k": 5,
        "abc_d": 0.25,
        "schedule_seed": 9,
        "addition_seed": 9,
        "additions": [
            {"step": s, "opinion": {"kind": "uniform_random"}} for s in (2, 3, 4, 5)
        ],
    })
    assert main(["robustness", "add", "--spec", spec]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["knn"]["originals_untouched"] is True
    assert set(payload["knn"]["final_original_opinions"]) == {"0.40000000000000002"}
    assert "abc" in payload


def test_robustness_remove_cli(tmp_path, capsys):
    spec = write_json(tmp_path / "r.json", {
        "base": {"groups": [{"opinion": "0/1", "size": 6}, {"opinion": "1/1", "size": 5}]},
        "k": 5,
        "remove": 1,
    })
    assert main(["robustness", "remove", "--spec", spec]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["still_equilibrium"] is True
    assert payload["expected_equilibrium"] is True


def test_robustness_remove_with_no_steps_reports_the_unresumed_state(tmp_path, capsys):
    # removing agent 4 leaves the 1/1 cluster below k, so the run is resumed
    # with a budget of 0 steps
    spec = write_json(tmp_path / "r.json", {
        "base": {"groups": [{"opinion": "0/1", "size": 3}, {"opinion": "1/1", "size": 2}]},
        "k": 2,
        "remove": 4,
        "max_steps": 0,
    })
    assert main(["robustness", "remove", "--spec", spec]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["still_equilibrium"] is False
    assert payload["resumed_classification"] == "not_converged"


def test_robustness_rejects_non_clustered_base(tmp_path):
    spec = write_json(tmp_path / "r.json", {
        "base": {"groups": [{"opinion": "0/1", "size": 2}, {"opinion": "1/1", "size": 2}]},
        "k": 3,
        "remove": 1,
    })
    assert main(["robustness", "remove", "--spec", spec]) == EXIT_USAGE


def test_sweep_cli(tmp_path, capsys):
    grid = write_json(tmp_path / "g.json", [
        {
            "model": {"kind": "knn", "k": 3},
            "initial": {"kind": "uniform_random", "n": 6, "low": 0, "high": 1, "seed": s},
            "schedule": {"kind": "uniform_random", "seed": s},
            "max_steps": 50000,
        }
        for s in range(3)
    ])
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--grid", grid, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["total"] == 3
    assert sum(payload["classifications"].values()) == 3


NAN, INF = float("nan"), float("inf")
ADD_EVENT = {"kind": "add", "step": 1}


@pytest.mark.parametrize("change, field", [
    ({"initial": {"kind": "explicit", "opinions": [0.1, NAN, 0.3]}}, "initial.opinions[1]"),
    ({"initial": {"kind": "explicit", "opinions": [0.1, 0.2, INF]}}, "initial.opinions[2]"),
    ({"initial": {"kind": "explicit", "opinions": ["1/0", "1/2", "1/3"]}},
     "initial.opinions[0]"),
    ({"initial": {"kind": "explicit", "opinions": ["0/1", "1.5/2", "1/3"]}},
     "initial.opinions[1]"),
    ({"initial": {"kind": "explicit", "opinions": ["0/1", "1/x", "1/3"]}},
     "initial.opinions[1]"),
    ({"initial": {"kind": "clusters", "groups": [{"opinion": "2/0", "size": 3}]}},
     "initial.groups[0].opinion"),
    ({"initial": {"kind": "uniform_random", "n": 8, "low": -INF, "high": 1.0, "seed": 1}},
     "initial.low"),
    ({"initial": {"kind": "uniform_random", "n": 8, "low": 0.0, "high": NAN, "seed": 1}},
     "initial.high"),
    ({"tol": INF}, "tol"),
    ({"tol": NAN}, "tol"),
    ({"tol": 10 ** 400}, "tol"),
    ({"model": {"kind": "abc", "d": NAN}}, "model.d"),
    ({"model": {"kind": "abc", "d": "1/0"}}, "model.d"),
    ({"events": [dict(ADD_EVENT, opinion=INF)]}, "events[0].opinion"),
    ({"events": [dict(ADD_EVENT, opinion="3/0")]}, "events[0].opinion"),
    ({"events": [dict(ADD_EVENT, opinion={"kind": "uniform_random", "high": NAN})]},
     "events[0].opinion.high"),
])
def test_simulate_rejects_bad_scalars_with_field_name(tmp_path, capsys, change, field):
    spec_path = write_json(tmp_path / "bad.json", dict(SCENARIO, **change))
    code = main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_rejects_non_finite_tol_override(tmp_path, capsys):
    spec_path = write_json(tmp_path / "s.json", SCENARIO)
    code = main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x"),
                 "--tol", "nan"])
    assert code == EXIT_USAGE
    assert "error: tol:" in capsys.readouterr().err


@pytest.mark.parametrize("document, field", [
    ([0.1, NAN, 0.9], "opinions[1]"),
    ({"opinions": [0.1, 0.5, -INF]}, "opinions[2]"),
    ({"opinions": ["1/2", "1/0"]}, "opinions[1]"),
    ({"groups": [{"opinion": "0/1", "size": 2}, {"opinion": "a/2", "size": 2}]},
     "groups[1].opinion"),
])
def test_classify_rejects_bad_scalars_with_field_name(tmp_path, capsys, document, field):
    config = write_json(tmp_path / "c.json", document)
    assert main(["classify", "--config", config, "--k", "1"]) == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err


def test_robustness_names_bad_base_opinion(tmp_path, capsys):
    spec = write_json(tmp_path / "r.json", {
        "base": {"groups": [{"opinion": "1/0", "size": 6}]},
        "k": 5,
        "remove": 1,
    })
    assert main(["robustness", "remove", "--spec", spec]) == EXIT_USAGE
    assert "error: base.groups[0].opinion:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_classify_rejects_bad_tol(tmp_path, capsys, tol):
    config = write_json(tmp_path / "c.json", [0.1, 0.1, 0.9, 0.9])
    code = main(["classify", "--config", config, "--k", "2", "--tol", tol])
    assert code == EXIT_USAGE
    assert "error: --tol:" in capsys.readouterr().err


def test_classify_names_bad_group_size(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", {"groups": [{"opinion": "1/2", "size": "x"}]})
    assert main(["classify", "--config", config, "--k", "1"]) == EXIT_USAGE
    assert "error: groups[0].size:" in capsys.readouterr().err


ROBUST_ADD = {
    "base": {"groups": [{"opinion": "2/5", "size": 6}]},
    "k": 5,
    "schedule_seed": 3,
    "additions": [{"step": 2, "opinion": 0.7}],
    "max_steps": 2000,
}
ROBUST_REMOVE = {
    "base": {"groups": [{"opinion": "0/1", "size": 6}, {"opinion": "1/1", "size": 5}]},
    "k": 5,
    "remove": 1,
}


@pytest.mark.parametrize("mode, document, field", [
    ("remove", {key: v for key, v in ROBUST_REMOVE.items() if key != "remove"}, "remove"),
    ("remove", dict(ROBUST_REMOVE, remove=12), "remove"),
    ("remove", dict(ROBUST_REMOVE, remove="1"), "remove"),
    ("remove", {key: v for key, v in ROBUST_REMOVE.items() if key != "base"}, "base"),
    ("remove", dict(ROBUST_REMOVE, base=7), "base"),
    ("remove", dict(ROBUST_REMOVE, k="5"), "k"),
    ("remove", dict(ROBUST_REMOVE, max_steps=-1), "max_steps"),
    ("remove", dict(ROBUST_REMOVE, tol=NAN), "tol"),
    ("remove", dict(ROBUST_REMOVE, tol=0), "tol"),
    ("remove", dict(ROBUST_REMOVE, abc_d="1/x"), "abc_d"),
    ("remove", dict(ROBUST_REMOVE, abc_d=-0.5), "abc_d"),
    ("add", {key: v for key, v in ROBUST_ADD.items() if key != "k"}, "k"),
    ("add", dict(ROBUST_ADD, additions={"step": 2}), "additions"),
    ("add", dict(ROBUST_ADD, additions=[{"step": "2", "opinion": 0.7}]), "additions[0].step"),
    ("add", dict(ROBUST_ADD, additions=[{"step": 2}]), "additions[0].opinion"),
    ("add", dict(ROBUST_ADD, additions=[{"step": 2, "opinion": 0.7},
                                        {"step": 3, "opinion": {"kind": "uniform_random",
                                                                "high": INF}}]),
     "additions[1].opinion.high"),
    ("add", dict(ROBUST_ADD, additions=[{"step": 2, "opinion": {"kind": "normal"}}]),
     "additions[0].opinion.kind"),
    ("add", dict(ROBUST_ADD, additions=[{"step": 3, "opinion": 0.7},
                                        {"step": 3, "opinion": 0.9}]), "additions[1].step"),
    ("add", dict(ROBUST_ADD, additions=[{"step": 3, "opinion": 0.7},
                                        {"step": 2, "opinion": 0.9}]), "additions[1].step"),
    ("add", dict(ROBUST_ADD, max_steps=5, additions=[{"step": 9, "opinion": 0.7}]),
     "additions[0].step"),
    ("add", dict(ROBUST_ADD, additions=[{"step": 2, "opinion": {"kind": "uniform_random",
                                                                "low": 0.9, "high": 0.1}}]),
     "additions[0].opinion.low"),
    ("add", dict(ROBUST_ADD, addition_seed=None), "addition_seed"),
    ("add", dict(ROBUST_ADD, addition_seed=[1]), "addition_seed"),
    ("add", dict(ROBUST_ADD, schedule_seed=2.5), "schedule_seed"),
    ("remove", dict(ROBUST_REMOVE, schedule_seed={}), "schedule_seed"),
    ("remove", dict(ROBUST_REMOVE, schedule_seed=True), "schedule_seed"),
    ("add", dict(ROBUST_ADD, additions=[{"step": 2, "opinion": {"kind": "uniform_random",
                                                                "low": -1e308, "high": 1e308}}]),
     "additions[0].opinion.high"),
])
def test_robustness_rejects_bad_fields_with_field_name(tmp_path, capsys, mode, document, field):
    spec = write_json(tmp_path / "r.json", document)
    assert main(["robustness", mode, "--spec", spec]) == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err


def _without(document, key):
    return {k: v for k, v in document.items() if k != key}


@pytest.mark.parametrize("mode, document, line, twin", [
    ("add", _without(ROBUST_ADD, "k"), "error: k: is required", "model.k"),
    ("add", dict(ROBUST_ADD, k=0), "error: k: must be a positive integer", "model.k"),
    ("remove", dict(ROBUST_REMOVE, k="x"), "error: k: must be a positive integer", "model.k"),
    ("add", dict(ROBUST_ADD, max_steps=-1), "error: max_steps: must be a nonnegative integer",
     "max_steps"),
    ("remove", dict(ROBUST_REMOVE, tol=0), "error: tol: must be a finite positive number", "tol"),
    ("remove", _without(ROBUST_REMOVE, "remove"), "error: remove: is required", None),
    ("remove", dict(ROBUST_REMOVE, remove=0), "error: remove: must be a positive agent id", None),
])
def test_robustness_messages_read_as_their_scenario_counterparts(tmp_path, capsys, mode,
                                                                 document, line, twin):
    spec = write_json(tmp_path / "r.json", document)
    assert main(["robustness", mode, "--spec", spec]) == EXIT_USAGE
    assert line in capsys.readouterr().err.splitlines()
    if twin is not None:   # the scenario field the robustness field mirrors
        key = line.split(": ")[1]
        scenario = dict(SCENARIO, model=dict(SCENARIO["model"]))
        target = scenario["model"] if twin == "model.k" else scenario
        if key in document:
            target[key] = document[key]
        else:
            del target[key]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(scenario)
        assert f"error: {exc.value}" == line.replace(f"error: {key}:", f"error: {twin}:")


@pytest.mark.parametrize("argv", [
    ["simulate", "--spec", "{doc}", "--out", "{out}"],
    ["classify", "--config", "{doc}", "--k", "1"],
    ["robustness", "add", "--spec", "{doc}"],
    ["sweep", "--grid", "{doc}"],
])
def test_unreadable_json_names_the_file(tmp_path, capsys, argv):
    # json refuses integers of more than 4,300 digits with a bare ValueError
    doc = tmp_path / "huge.json"
    doc.write_text("[" + "1" * 5000 + "]")
    argv = [a.format(doc=doc, out=tmp_path / "run") for a in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {doc}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [doc]


@pytest.mark.parametrize("argv", [
    ["simulate", "--spec", "{doc}", "--out", "{out}"],
    ["classify", "--config", "{doc}", "--k", "1"],
    ["robustness", "add", "--spec", "{doc}"],
    ["sweep", "--grid", "{doc}"],
])
def test_deeply_nested_json_names_the_file(tmp_path, capsys, argv):
    # json's decoder raises RecursionError past the interpreter's recursion limit
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 200000 + "]" * 200000)
    argv = [a.format(doc=doc, out=tmp_path / "run") for a in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {doc}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [doc]


def test_robustness_accepts_rational_abc_d(tmp_path, capsys):
    spec = write_json(tmp_path / "r.json", dict(ROBUST_ADD, abc_d="1/4"))
    assert main(["robustness", "add", "--spec", spec]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["knn"]["originals_untouched"] is True
    assert "abc" in payload


def test_a_uniform_range_just_inside_the_largest_float_runs(tmp_path):
    # high - low is finite; k = 2 keeps every neighbour sum below the largest float
    wide = {"kind": "uniform_random", "low": -8e307, "high": 8e307}
    spec = write_json(tmp_path / "s.json", dict(
        SCENARIO, model={"kind": "knn", "k": 2}, initial=dict(SCENARIO["initial"], **wide),
        events=[dict(ADD_EVENT, opinion=wide)]))
    assert main(["simulate", "--spec", spec, "--out", str(tmp_path / "run")]) == EXIT_OK
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["classification"] != "not_converged"
    assert all(math.isfinite(float(v)) for v in meta["final_opinions"])
    robust = write_json(tmp_path / "r.json", dict(ROBUST_ADD, additions=[{"step": 2,
                                                                          "opinion": wide}]))
    assert main(["robustness", "add", "--spec", robust]) == EXIT_OK


UNIFORM_ADD = {"kind": "uniform_random", "low": 0.8, "high": 0.2}
WIDE_ADD = {"kind": "uniform_random", "low": -1e308, "high": 1e308}


@pytest.mark.parametrize("change, field", [
    ({"initial": {"kind": "uniform_random", "n": 8, "low": 1.0, "high": 0.0, "seed": 1}},
     "initial.low"),
    ({"events": [dict(ADD_EVENT, opinion=UNIFORM_ADD)]}, "events[0].opinion.low"),
    ({"events": [dict(ADD_EVENT, opinion=0.5, step=20001)]}, "events[0].step"),
    ({"events": [dict(ADD_EVENT, opinion=0.5), dict(ADD_EVENT, opinion=0.5)]}, "events"),
    # a seed is an integer or a string: null used to run as the string "None"
    ({"initial": dict(SCENARIO["initial"], seed=None)}, "initial.seed"),
    ({"initial": dict(SCENARIO["initial"], seed=2.5)}, "initial.seed"),
    ({"schedule": {"kind": "uniform_random", "seed": [1]}}, "schedule.seed"),
    ({"schedule": {"kind": "uniform_random", "seed": {}}}, "schedule.seed"),
    ({"event_seed": 2.5}, "event_seed"),
    ({"event_seed": None}, "event_seed"),
    # a name is a string: NaN used to be written into .meta.json as bare NaN
    ({"name": NAN}, "name"),
    ({"name": 3}, "name"),
    ({"name": ["smoke"]}, "name"),
    # a uniform draw is low + (high - low) * r, so high - low must be a finite float
    ({"initial": dict(SCENARIO["initial"], low=-1e308, high=1e308)}, "initial.high"),
    ({"events": [dict(ADD_EVENT, opinion=WIDE_ADD)]}, "events[0].opinion.high"),
])
def test_simulate_rejects_out_of_range_fields(tmp_path, capsys, change, field):
    spec_path = write_json(tmp_path / "bad.json", dict(SCENARIO, **change))
    code = main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("change, field", [
    ({"model": {"kind": "knn", "k": True}}, "model.k"),
    ({"initial": {"kind": "uniform_random", "n": True, "seed": 1}}, "initial.n"),
    ({"initial": {"kind": "clusters", "groups": [{"opinion": 0.5, "size": 4},
                                                 {"opinion": 0.7, "size": True}]}},
     "initial.groups[1].size"),
    ({"schedule": {"kind": "explicit", "agents": [1, True]}}, "schedule.agents[1]"),
    ({"events": [dict(ADD_EVENT, step=True, opinion=0.5)]}, "events[0].step"),
    ({"events": [{"kind": "remove", "step": 1, "agent": True}]}, "events[0].agent"),
    ({"max_steps": True}, "max_steps"),
    ({"max_steps": False}, "max_steps"),
    ({"record_every": True}, "record_every"),
    ({"schedule": {"kind": "uniform_random", "seed": True}}, "schedule.seed"),
    ({"event_seed": False}, "event_seed"),
])
def test_simulate_rejects_booleans_as_integers(tmp_path, capsys, change, field):
    spec_path = write_json(tmp_path / "bad.json", dict(SCENARIO, **change))
    code = main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err


def test_simulate_rejects_max_steps_override_before_an_event(tmp_path, capsys):
    spec_path = write_json(tmp_path / "s.json",
                           dict(SCENARIO, events=[dict(ADD_EVENT, step=50, opinion=0.5)]))
    code = main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x"),
                 "--max-steps", "49"])
    assert code == EXIT_USAGE
    assert "error: events[0].step:" in capsys.readouterr().err


def test_simulate_meta_includes_an_add_on_the_stop_step(tmp_path):
    spec_path = write_json(tmp_path / "s.json", {
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "explicit", "opinions": [0.0, 0.5, 1.0]},
        "schedule": {"kind": "uniform_random", "seed": 1},
        "events": [{"kind": "add", "step": 5, "opinion": 9.0}],
        "max_steps": 5,
    })
    assert main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x")]) == EXIT_OK
    meta = json.loads((tmp_path / "x.meta.json").read_text())
    finals = [float(v) for v in meta["final_opinions"]]
    assert meta["final_ids"] == [1, 2, 3, 4]
    assert float(meta["final_diameter"]) == max(finals) - min(finals)
    last_rows = [row for row in (tmp_path / "x.csv").read_text().splitlines()
                 if row.startswith("5,")]
    assert [row.split(",")[1] for row in last_rows] == ["1", "2", "3", "4"]


@pytest.mark.parametrize("flag, value, field", [
    ("--record-every", "0", "record_every"),
    ("--record-every", "-2", "record_every"),
    ("--max-steps", "-1", "max_steps"),
])
def test_simulate_rejects_out_of_range_count_overrides(tmp_path, capsys, flag, value, field):
    spec_path = write_json(tmp_path / "s.json", SCENARIO)
    code = main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x"), flag, value])
    assert code == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["verify-lemmas", "--trials", "-5"], "--trials"),
    (["verify-lemmas", "--trials", "0"], "--trials"),
    (["figures", "--seed-range", "0"], "--seed-range"),
    (["sweep", "--jobs", "-2"], "--jobs"),
    (["sweep", "--jobs", "0"], "--jobs"),
])
def test_count_flags_below_one_are_rejected(tmp_path, capsys, argv, flag):
    grid = write_json(tmp_path / "grid.json", [dict(SCENARIO, max_steps=10)])
    extra = {"figures": ["--out", str(tmp_path / "fig")],
             "sweep": ["--grid", grid],
             "verify-lemmas": ["--out", str(tmp_path / "suite.json")]}[argv[0]]
    assert main(argv + extra) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flag}:")
    assert list(tmp_path.iterdir()) == [tmp_path / "grid.json"]


@pytest.mark.parametrize("document, field", [
    (dict(SCENARIO, events=5), "events"),
    (dict(SCENARIO, initial={"kind": "explicit", "opinions": [0.5, "1/3", 1]}),
     "initial.opinions"),
    (dict(SCENARIO, initial={"kind": "clusters", "groups": [{"opinion": 0.5, "size": 3},
                                                             {"opinion": "1/3", "size": 3}]}),
     "initial.groups"),
    (dict(SCENARIO, initial={"kind": "explicit", "opinions": ["0/1", "1/3", 1, 2]},
          events=[dict(ADD_EVENT, opinion=0.5)]), "events[0].opinion"),
    (dict(SCENARIO, initial={"kind": "explicit", "opinions": ["0/1", "1/3", 1, 2]},
          events=[dict(ADD_EVENT, opinion={"kind": "uniform_random"})]), "events[0].opinion"),
])
def test_simulate_names_the_field_of_a_backend_mismatch(tmp_path, capsys, document, field):
    spec_path = write_json(tmp_path / "s.json", document)
    assert main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {field}:")


@pytest.mark.parametrize("argv, document, field", [
    (["classify", "--k", "3"], [0.1, 0.9], "--k"),
    (["classify", "--k", "1"], [0.1, "1/2"], "opinions"),
    (["robustness", "add"], dict(ROBUST_ADD, k=7), "k"),
    (["robustness", "remove"], dict(ROBUST_REMOVE, k=11), "k"),
    (["robustness", "remove"], dict(ROBUST_REMOVE, k=6), "base"),
    (["robustness", "remove"], dict(ROBUST_REMOVE, base=[0.0, 0.0, 0.0], k=1), "base"),
])
def test_classify_and_robustness_name_the_bad_field(tmp_path, capsys, argv, document, field):
    path = write_json(tmp_path / "doc.json", document)
    flag = "--config" if argv[0] == "classify" else "--spec"
    assert main(argv + [flag, path]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_sweep_error_names_the_grid_index(tmp_path, capsys):
    small = dict(SCENARIO, max_steps=10)
    bad = dict(small, initial={"kind": "explicit", "opinions": [0.1, 0.9]},
               model={"kind": "knn", "k": 5})
    grid = write_json(tmp_path / "g.json", [small, bad])
    assert main(["sweep", "--grid", grid]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: [1].model.k: ")


def test_sweep_writes_the_report_and_exits_2_when_an_entry_fails(tmp_path, capsys):
    entry = {"model": {"kind": "knn", "k": 2},
             "initial": {"kind": "explicit", "opinions": [0.1, 0.9]},
             "schedule": {"kind": "uniform_random", "seed": 0}}
    absent = dict(entry, schedule={"kind": "explicit", "agents": [1, 5]})
    grid = write_json(tmp_path / "g.json", [entry, absent])
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--grid", grid, "--out", str(out)]) == EXIT_USAGE
    payload = json.loads(out.read_text())
    assert payload["errors"] == {"1": "schedule: agent 5 not present at step 1"}
    assert payload["classifications"] == {"consensus": 1}
    assert capsys.readouterr().err == "error: [1].schedule: agent 5 not present at step 1\n"


def test_figures_checks_max_steps_before_creating_out(tmp_path, capsys):
    out = tmp_path / "figs"
    assert main(["figures", "--out", str(out), "--max-steps", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --max-steps: ")
    assert not out.exists()


def test_figures_without_a_clustered_run_leaves_no_out(tmp_path, capsys):
    out = tmp_path / "figs"
    argv = ["figures", "--out", str(out), "--max-steps", "0", "--seed-range", "3"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: --seed-range: ") and "--max-steps" in err
    assert not out.exists()


HUGE = "1" + "0" * 400   # an integer above the largest finite float


@pytest.mark.parametrize("argv, document, field", [
    (["robustness", "add"], dict(ROBUST_ADD, additions=[{"step": 2, "opinion": HUGE}]),
     "additions[0].opinion"),
    (["robustness", "add"], dict(ROBUST_ADD, base=["2/5"] * 5 + [HUGE]), "base.opinions[5]"),
    (["simulate"], dict(SCENARIO, events=[dict(ADD_EVENT, opinion=HUGE + "/1")]),
     "events[0].opinion"),
    (["simulate"], dict(SCENARIO, initial={"kind": "explicit", "opinions": ["0/1", "1/2", HUGE]},
                        max_steps=10), "initial.opinions[2]"),
])
def test_rationals_outside_the_float_range_are_rejected(tmp_path, capsys, argv, document,
                                                        field):
    path = write_json(tmp_path / "doc.json", document)
    out = tmp_path / "out"
    assert main(argv + ["--spec", path, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "doc.json"]


UNKNOWN = "is not a known field"


UNKNOWN_KEYS = [
    (["simulate"], dict(SCENARIO, max_step=5), "max_step", UNKNOWN),
    (["simulate"], dict(SCENARIO, model={"kind": "knn", "k": 3, "d": 0.1}), "model.d", UNKNOWN),
    (["simulate"], dict(SCENARIO, initial=dict(SCENARIO["initial"], hgih=0.5)),
     "initial.hgih", UNKNOWN),
    (["simulate"], dict(SCENARIO, initial={"kind": "clusters",
                                           "groups": [{"opinion": 0.5, "size": 4, "sise": 3}]}),
     "initial.groups[0].sise", UNKNOWN),
    (["simulate"], dict(SCENARIO, schedule={"kind": "uniform_random", "sed": 22}),
     "schedule.sed", UNKNOWN),
    (["simulate"], dict(SCENARIO, schedule={"kind": "shrink", "seed": 22}),
     "schedule.seed", UNKNOWN),
    (["simulate"], dict(SCENARIO, events=[{"kind": "remove", "step": 1, "agnet": 1}]),
     "events[0].agnet", UNKNOWN),
    (["simulate"], dict(SCENARIO, events=[dict(ADD_EVENT, opinion=0.5, agent=1)]),
     "events[0].agent", UNKNOWN),
    (["simulate"], dict(SCENARIO, events=[dict(ADD_EVENT, opinion={
        "kind": "uniform_random", "low": 0, "hi": 1})]), "events[0].opinion.hi", UNKNOWN),
    (["robustness", "remove"], dict(ROBUST_REMOVE, tolerance=1e-9), "tolerance", UNKNOWN),
    (["robustness", "remove"], dict(ROBUST_REMOVE, additions=[]), "additions", UNKNOWN),
    (["robustness", "add"], dict(ROBUST_ADD, remove=1), "remove", UNKNOWN),
    (["robustness", "add"], dict(ROBUST_ADD, additions=[{"step": 2, "opinion": 0.7,
                                                         "kind": "remove"}]),
     "additions[0].kind", "must be 'add'"),
    (["robustness", "add"], dict(ROBUST_ADD, base={"opinions": ["2/5"] * 6, "kind": "explicit"}),
     "base.kind", UNKNOWN),
    (["classify", "--k", "1"], {"opinions": [0.1, 0.9], "name": "x"}, "name", UNKNOWN),
    (["classify", "--k", "1"], {"opinions": [0.1, 0.9],
                                "groups": [{"opinion": 0.5, "size": 2}]},
     "configuration", "one of 'opinions' and 'groups'"),
    (["robustness", "remove"], dict(ROBUST_REMOVE, base={
        "opinions": ["0/1"] * 6, "groups": [{"opinion": "1/1", "size": 5}]}),
     "base", "one of 'opinions' and 'groups'"),
]


@pytest.mark.parametrize("argv, document, field, message", UNKNOWN_KEYS,
                         ids=[case[2] for case in UNKNOWN_KEYS])
def test_documents_reject_unknown_keys(tmp_path, capsys, argv, document, field, message):
    # a misspelt optional field used to fall back to its default silently
    path = write_json(tmp_path / "doc.json", document)
    flag = "--config" if argv[0] == "classify" else "--spec"
    extra = ["--out", str(tmp_path / "x")] if argv[0] == "simulate" else []
    assert main(argv + [flag, path] + extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and message in err, err
    assert not (tmp_path / "x.csv").exists()
