"""Byte-level pins for `knnopinion figures`.

The sha256 of every file the command writes, so that a change to the seed
scan or to any figure's run shows. The default range finds a clustered run
at seed 0 and a non-clustered one at seed 49; `--seed-range 10` has no
non-clustered run and falls back to the exact 20-agent construction.
"""

import hashlib
import json

import pytest

from knnopinion.cli import EXIT_OK, main
from knnopinion.scenario import load_scenario, parse_scenario

# file name -> sha256, shared by both ranges unless overridden
COMMON = {
    "fig_addition_abc.csv":
        "655ef1bd969ad6109e3f4c84b719ef00c1fca22561243be32256f8c916c62a70",
    "fig_addition_abc.meta.json":
        "af3e6a9af7b70a3a0676e3668ba8581b5124d7b74d6053dc2e9c04679d9753f4",
    "fig_addition_abc.scenario.json":
        "0acb49799b18cc50ea90fca20a8b33dd17445b86a2665224fa2ba3e3d8cd1d79",
    "fig_addition_abc.svg":
        "57e47bf18cfccc84c068687deaecf2ff33500e483f692cfbe8bcc7ac6e1e3c01",
    "fig_addition_knn.csv":
        "d1452c8d31bbc594e930932a7143ea4e8a7dba54d426bf7824b2d9020bc4a38c",
    "fig_addition_knn.meta.json":
        "ddc5a540446da95127ef304468d71a10dd9fff205f8fe5a6348ff526ea78a95b",
    "fig_addition_knn.scenario.json":
        "b9711de10ed4aecca0e4455a249824d17eb3c4f730408b00b8ea99cb9202a83c",
    "fig_addition_knn.svg":
        "18865250cc1891d234629ba3d5850b85e8f4113ea2fded396057a440076fe748",
    "fig_clustered.csv":
        "c0bbd55efb3f982084fc85a72c6e133bdbd335e6da10abdb2534b5b3c8c53e20",
    "fig_clustered.meta.json":
        "4c783e004a8c0bfa24adbfab6a12ed183ff46a3c5384892a869b5bf0763d7455",
    "fig_clustered.scenario.json":
        "8a597f371f98d90fa493a7f669a7d10cfd5f8a7adbf1041f7ca88a7321625e20",
    "fig_clustered.svg":
        "3197d31a51a30433227fd2241fdd024957cba45ae71cf75c7c5f7c973611cfff",
}
PINNED = {
    "default": {
        **COMMON,
        "fig_non_clustered.csv":
            "4afacbe470399aed04265ef2e593ccd7a903408eccadb37171094488fafe182f",
        "fig_non_clustered.meta.json":
            "18873f1c37c76c52dc4fba975462daea9ffa3140eeb7663dd5eb9204c59d6ce0",
        "fig_non_clustered.scenario.json":
            "6a80bc0d51d47d4f83db95d65fedccdd102e79b095d9370518bac559415940c3",
        "fig_non_clustered.svg":
            "fa491f853c288be596b24ae929fb4b7df292bae91bfcf64e4cb6f056aecc62e6",
        "figures.meta.json":
            "21fdde16c85f535eabcaeb4a9d8e1a66578733eef94d75b634da4a4d6c458ca4",
    },
    "seed-range-10": {
        **COMMON,
        "fig_non_clustered.csv":
            "a8070de74578bc5813d9105b5f90218fea5cb4c1be06aabe288e3721895c2a55",
        "fig_non_clustered.meta.json":
            "0b26a4e81afd9f8dcbb25594532de67caddb7bb757e874e35446993ea4c86607",
        "fig_non_clustered.scenario.json":
            "4d5a54ba191bd31c15820cf56dbf365abf5c68acbe165b36259b60a16b409bf2",
        "fig_non_clustered.svg":
            "6e2e805c68db3e95c8052b86c68ba4a67bd8408faefea318b75acf0422fa9ee5",
        "figures.meta.json":
            "c004cb3a896345f6152eab2dcfc8eaa74c029410c6cb4971f56cec38da054a04",
    },
}
ARGS = {"default": [], "seed-range-10": ["--seed-range", "10"]}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_figures_tree_is_pinned(name, tmp_path, capsys):
    assert main(["figures", "--out", str(tmp_path)] + ARGS[name]) == EXIT_OK
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == PINNED[name]
    # every written scenario document reads back to a spec that writes it again
    for path in tmp_path.glob("*.scenario.json"):
        spec = load_scenario(str(path))
        assert spec.to_json() == path.read_text()
        assert parse_scenario(json.loads(spec.to_json())) == spec
