"""Byte-level regression pins for `simulate`.

Each scenario below was run through `simulate` and `write_run_outputs`, and
the sha256 of the CSV, of the `.meta.json` sidecar and of the SVG plot were
pinned. Any change to neighbour selection, summation order, event handling,
the recorded envelope or the export writers that alters a single byte of
output fails here. The scenarios cover
both models, both backends, every schedule kind, add and remove events,
exact ties, signed zeros and distances that collapse under rounding.
"""

import hashlib
import json
import math

import pytest

from knnopinion.export import write_run_outputs
from knnopinion.harness import simulate
from knnopinion.scenario import parse_scenario

SCENARIOS = {
    "knn-float-uniform": {
        "model": {"kind": "knn", "k": 5},
        "initial": {"kind": "uniform_random", "n": 20, "low": 0.0, "high": 1.0, "seed": 3},
        "schedule": {"kind": "uniform_random", "seed": 4},
        "max_steps": 200000, "record_every": 10,
    },
    "abc-float-uniform": {
        "model": {"kind": "abc", "d": 0.2},
        "initial": {"kind": "uniform_random", "n": 20, "low": 0.0, "high": 1.0, "seed": 5},
        "schedule": {"kind": "uniform_random", "seed": 6},
        "max_steps": 200000, "record_every": 10,
    },
    "knn-float-n200": {
        "model": {"kind": "knn", "k": 20},
        "initial": {"kind": "uniform_random", "n": 200, "low": -1.0, "high": 1.0, "seed": 7},
        "schedule": {"kind": "uniform_random", "seed": 8},
        "max_steps": 3000, "record_every": 500,
    },
    "knn-float-explicit-ties": {
        "model": {"kind": "knn", "k": 3},
        "initial": {"kind": "explicit",
                    "opinions": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.5, -0.0, 0.25]},
        "schedule": {"kind": "explicit",
                     "agents": [7, 9, 8, 1, 2, 7, 3, 4, 5, 6, 9, 9, 8, 7, 1]},
        "record_every": 1,
    },
    "knn-float-collapsed-distances": {
        "model": {"kind": "knn", "k": 3},
        "initial": {"kind": "explicit",
                    "opinions": [1.0, 0.0, 2.0 ** -60, 2.0 ** -61, 2.0, 1.5, 0.75,
                                 2.0 ** -59, 1.0]},
        "schedule": {"kind": "uniform_random", "seed": 9},
        "max_steps": 400, "record_every": 1,
    },
    "knn-float-signed-zeros": {
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "explicit", "opinions": [-1.0, -0.0, 0.0, -0.0, 0.0, -0.5]},
        "schedule": {"kind": "explicit", "agents": [1, 6, 2, 3, 1, 6, 6, 1, 4, 5]},
        "record_every": 1,
    },
    "knn-float-shrink": {
        "model": {"kind": "knn", "k": 6},
        "initial": {"kind": "explicit",
                    "opinions": [0.9, 0.1, 0.35, 0.6, 0.2, 0.75, 0.5, 0.05, 0.4]},
        "schedule": {"kind": "shrink"},
        "max_steps": 40, "record_every": 1,
    },
    "knn-float-add-remove": {
        "model": {"kind": "knn", "k": 4},
        "initial": {"kind": "uniform_random", "n": 12, "low": 0.0, "high": 1.0, "seed": 10},
        "schedule": {"kind": "uniform_random", "seed": 11},
        "events": [
            {"kind": "add", "step": 3, "opinion": 0.5},
            {"kind": "add", "step": 10,
             "opinion": {"kind": "uniform_random", "low": 0.0, "high": 1.0}},
            {"kind": "remove", "step": 20, "agent": 2},
            {"kind": "remove", "step": 30, "agent": 13},
        ],
        "event_seed": 12, "max_steps": 100000, "record_every": 7,
    },
    "abc-float-add-remove": {
        "model": {"kind": "abc", "d": 0.3},
        "initial": {"kind": "uniform_random", "n": 12, "low": 0.0, "high": 1.0, "seed": 13},
        "schedule": {"kind": "uniform_random", "seed": 14},
        "events": [
            {"kind": "add", "step": 0, "opinion": 0.95},
            {"kind": "remove", "step": 15, "agent": 1},
            {"kind": "add", "step": 16,
             "opinion": {"kind": "uniform_random", "low": -1.0, "high": 2.0}},
        ],
        "event_seed": 15, "max_steps": 100000, "record_every": 3,
    },
    "knn-exact-uniform": {
        "model": {"kind": "knn", "k": 5},
        "initial": {"kind": "explicit",
                    "opinions": ["1/3", "0/1", "5/7", "1/2", "2/3", "1/1", "1/9", "3/4"]},
        "schedule": {"kind": "uniform_random", "seed": 16},
        "max_steps": 60, "record_every": 1,
    },
    "knn-exact-shrink": {
        "model": {"kind": "knn", "k": 5},
        "initial": {"kind": "explicit",
                    "opinions": ["0/1", "1/5", "2/3", "1/1", "1/2", "1/7", "3/5"]},
        "schedule": {"kind": "shrink"},
        "max_steps": 16, "record_every": 2,
    },
    "knn-exact-events-equilibrium": {
        "model": {"kind": "knn", "k": 3},
        "initial": {"kind": "explicit",
                    "opinions": ["0/1", "1/1", "0/1", "1/1", "0/1", "1/1", "1/2"]},
        "schedule": {"kind": "uniform_random", "seed": 17},
        "events": [
            {"kind": "add", "step": 2, "opinion": "1/4"},
            {"kind": "remove", "step": 5, "agent": 1},
        ],
        "max_steps": 80, "record_every": 1,
    },
    "abc-exact": {
        "model": {"kind": "abc", "d": "1/4"},
        "initial": {"kind": "explicit",
                    "opinions": ["0/1", "1/8", "1/3", "1/2", "4/5", "1/1"]},
        "schedule": {"kind": "uniform_random", "seed": 18},
        "max_steps": 50, "record_every": 1,
    },
}

# not pinned, envelope only: the run stops on the step of an add event, so
# the final snapshot and mins[-1]/maxs[-1] must include the added agent
STOP_ON_EVENT = {
    f"knn-float-add-on-stop-step-every{every}": {
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "explicit", "opinions": [0.0, 0.5, 1.0]},
        "schedule": {"kind": "uniform_random", "seed": 19},
        "events": [{"kind": "add", "step": 5, "opinion": 9.0}],
        "max_steps": 5, "record_every": every,
    }
    for every in (1, 2)
}

# scenario name -> (sha256 of <prefix>.csv, sha256 of <prefix>.meta.json)
PINNED = {
    "abc-exact": (
        "874ced4d293f8805706247eafde289ca0646b701cb9a029e135bcbda4902d2b6",
        "1da43925056522b052b2508c9db2beee58d6c8aecd03bf6beeb9290e6b8cabe2",
    ),
    "abc-float-add-remove": (
        "76cbbc2931d07d6525fa2931675980d437eed3411798a665ace39f3c43c9cc6a",
        "e113a5ce28930d5d287d8b1c7898aa382dbcb60c36dd8e706d7cad37953d59b7",
    ),
    "abc-float-uniform": (
        "6b30949bea89398461e088d6d87884303523738afab4886e2d94f0582e0255c9",
        "0c42beed14143d52e466c87a8cd4e0d9df37cc1ebe6913ab6032602692ef81af",
    ),
    "knn-exact-events-equilibrium": (
        "c84ae69e57186e0a18aa2e69da6c428ccb2e93dc840c6ae37daefc29cc4a6845",
        "96107bdfff82cd8a70074658c3b8bda8d4987d9b3f08c04b9ea3f23b3d053662",
    ),
    "knn-exact-shrink": (
        "65ee97360df901998473414ea307c694b87ec247214cac9c674ce2991747281f",
        "06f21da35ed29376a86a2bc485c40493644ca876c17a35352cc2b8b9600b8404",
    ),
    "knn-exact-uniform": (
        "458fe0efa20873dfb0545a54afd350f27afb77e03c0994fee8b235a26b800d4b",
        "2883536612aee53346bf3edc1979073baf9dd12a931ccf8725452acdfa276515",
    ),
    "knn-float-add-remove": (
        "52721b8ee0a583ac279894498c1b316e5816a32bfa6c835ab98f21204b664ba8",
        "446e3712a279a8ab3edb47483bd0005284ce9e8b631cf7ac2d75f5803c2001fc",
    ),
    "knn-float-collapsed-distances": (
        "a666607f17fba61ad98316ab3dc9e52061f9e4f589126d5dfe1a1e2316b0f455",
        "0a34bdbb5c1393883ee65e9337003f94b79be4737ea497658c8aa9d3740f7c6c",
    ),
    "knn-float-explicit-ties": (
        "1195824858275d7af45e9796dd079b575b8a2c9522928a96076ef43311790ec6",
        "04090279aa86b234644135b950ab5be1e9ad95c8200e8d8e283d63718cc93021",
    ),
    "knn-float-n200": (
        "8ed4cd7273e5216ac10a833beb516b7236b9bf778e1075763b77618bf09fb5ea",
        "5ed8716ac7c8fe948eaf4ecf9b2e256b45995ae7398d1fa6d5a6d3f20e00f625",
    ),
    "knn-float-shrink": (
        "74ecd2497035ad7cf6fe0e884b57a90ea92ec2e4d102ebb134b410de97f5cbc1",
        "7c302f23a839f7a64f0ee46eae4ff6147881584e2e7e475c9d0789c84fa63fa6",
    ),
    "knn-float-signed-zeros": (
        "2784c2f695ddd2f6e005c87506bb4c1854d70593f0b69a0fb0d5901efcd759c9",
        "bb8922c0da5b47896b03dd11a6b1c33bd1851d729ba39b076fa63a64f9bc6c57",
    ),
    "knn-float-uniform": (
        "0dcd923948cd086cd90e3e2a96cd5b773767ed7ced2ac09993b1f10301be1873",
        "678d89141c75acde2c476a5821e388c7470102ff7adc9bcce50899887fec5a99",
    ),
}

# scenario name -> sha256 of <prefix>.svg
PINNED_SVG = {
    "abc-exact":
        "4c64ae57fa1d32bc1ada4ed3f014b3c70161604f39f2a0ffddfe04058341f246",
    "abc-float-add-remove":
        "45bd59f9bf2a4684432fd6cc2244c206320cdb477c3093b39aa75f61b0d58230",
    "abc-float-uniform":
        "92a473d4ca52fca37243f666f0481c7baec5455d17cbc49d0f07b19978fc1977",
    "knn-exact-events-equilibrium":
        "f4f8098b94302b223b761f27bf897237d9ee8499c9e59e7d6ba924ee24f03c92",
    "knn-exact-shrink":
        "e286ac943c5e165a25a918e7a827591b358d3242ab26d3eb832a1d93ba6f11f7",
    "knn-exact-uniform":
        "95c8aa6e61909127fd3e1e75857363534c150101dfeae933e69741994ee70b6a",
    "knn-float-add-remove":
        "c741203ecf3b1388b9d806c273d6f30d92f842c516d0bad0ca06810fdf5dd7ba",
    "knn-float-collapsed-distances":
        "9c7fafca8204687c7b44f1690ccd3bf10de166589ba5ff0fee1d52199e1d4f9b",
    "knn-float-explicit-ties":
        "ba2e092ad89a9224e86f810024c37ddc728dc052288cc41a7e05376278021802",
    "knn-float-n200":
        "9d19b2bdbba18f23b58591dbf54f152ec1f9928946a8890095013d16ad0ab607",
    "knn-float-shrink":
        "91ccf3483501b4f1463a456294cd0d8c94922ebd9e14edebbc8cac1928cb98a7",
    "knn-float-signed-zeros":
        "b2da0239e6a91e5dc1ff51fa518b400d3936a9034d0aa864ba8beec1a5e6c20d",
    "knn-float-uniform":
        "65f520004addfc9d55868bcc05e3bfcde81b66189b4c37ba0e36b562856281dc",
}


def run_outputs(name, tmp_path):
    spec = parse_scenario(dict({**SCENARIOS, **STOP_ON_EVENT}[name], name=name))
    record = simulate(spec)
    prefix = str(tmp_path / name)
    write_run_outputs(record, prefix, spec)
    digests = tuple(
        hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest()
        for suffix in (".csv", ".meta.json")
    )
    return record, digests


def same_scalar(a, b):
    """Equal, of one type and, for zeros, of one sign."""
    return type(a) is type(b) and a == b and math.copysign(1, a) == math.copysign(1, b)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_output_is_pinned(name, tmp_path):
    _, digests = run_outputs(name, tmp_path)
    assert digests == PINNED[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_svg_is_pinned(name, tmp_path):
    run_outputs(name, tmp_path)
    assert hashlib.sha256((tmp_path / f"{name}.svg").read_bytes()).hexdigest() == PINNED_SVG[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(STOP_ON_EVENT))
def test_recorded_envelope_is_min_and_max_of_each_state(name, tmp_path):
    record, _ = run_outputs(name, tmp_path)
    assert len(record.mins) == len(record.maxs) == record.total_steps + 1
    assert record.recorded_steps[-1] == record.total_steps
    assert record.snapshots[-1] == (record.final_ids, record.final_opinions)
    for step, (_, opinions) in zip(record.recorded_steps, record.snapshots):
        assert same_scalar(record.mins[step], min(opinions))
        assert same_scalar(record.maxs[step], max(opinions))


def test_signed_zero_states_are_covered():
    record = simulate(parse_scenario(SCENARIOS["knn-float-signed-zeros"]))
    mixed = [ops for _, ops in record.snapshots
             if any(math.copysign(1, v) < 0 for v in ops if v == 0)
             and any(math.copysign(1, v) > 0 for v in ops if v == 0)]
    assert mixed
    assert any(max(ops) == 0 for ops in mixed)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_documents_round_trip(name):
    spec = parse_scenario(SCENARIOS[name])
    assert parse_scenario(json.loads(json.dumps(spec.to_dict()))) == spec
