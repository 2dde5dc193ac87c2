"""Every single-mutation outcome of the fuzz seed documents, pinned.

Each seed document of `test_fuzz_documents` (scenarios, classify
configurations and robustness documents) is mutated once at every path:
the value there is deleted, or replaced by each value of the fuzz `POOL`.
The unmutated document is one more case, and an unmutated robustness
document is also parsed in the other mode, where its own mode's keys are
unknown. Every case goes through the parsers that read its kind of
document, which must either return or raise `ScenarioError`:

- a scenario through `parse_scenario` (its outcome is `to_json()`) and
  `parse_grid` of a one-entry grid;
- a configuration through `parse_configuration` with `where` "" and "base.";
- a robustness document through `parse_robustness`, its keyword arguments
  compared as sorted items.

Each (seed document, path) pins one sha256 of its outcomes, in
`document_corpus_digests.json`, so a moved error message, a changed default
or a reordered `to_dict` key names the path that moved. Every accepted
scenario must also survive a JSON round trip unchanged.

Regenerate the pins after a deliberate change of a message or output with
`PYTHONPATH=src:tests python tests/test_document_corpus.py`.
"""

import copy
import hashlib
import json
import os

from test_fuzz_documents import CONFIGS, POOL, ROBUSTNESS, SCENARIOS, _paths

from knnopinion.scenario import (
    ScenarioError,
    parse_configuration,
    parse_grid,
    parse_robustness,
    parse_scenario,
)

DIGESTS = os.path.join(os.path.dirname(__file__), "document_corpus_digests.json")
DELETE = object()
CASES = 5848
REJECTIONS = 5161


def _mutations(doc):
    """(path, mutated document) for the unmutated document, at path (), and
    for every deletion and pool replacement of every path. Each document is
    read back from its JSON text, as the CLI reads it."""
    yield (), json.loads(json.dumps(doc))
    for path in _paths(doc):
        for value in [DELETE] + POOL:
            out = copy.deepcopy(doc)
            holder = out
            for key in path[:-1]:
                holder = holder[key]
            if value is DELETE:
                del holder[path[-1]]
            else:
                holder[path[-1]] = copy.deepcopy(value)
            yield path, json.loads(json.dumps(out))


def _scenario(doc):
    spec = parse_scenario(doc)
    assert parse_scenario(json.loads(spec.to_json())) == spec
    return spec.to_json()


def _grid(doc):
    return [spec.to_json() for spec in parse_grid([doc])]


def _configuration(where):
    return lambda doc: repr(parse_configuration(doc, where))


def _robustness(mode):
    return lambda doc: repr(sorted(parse_robustness(doc, mode).items()))


OTHER_MODE = {"add": "remove", "remove": "add"}
SEEDS = (
    [(f"scenario[{i}]", doc, (_scenario, _grid), ()) for i, doc in enumerate(SCENARIOS)]
    + [(f"config[{i}]", doc, (_configuration(""), _configuration("base.")), ())
       for i, doc in enumerate(CONFIGS)]
    + [(f"robustness[{i}]", doc, (_robustness(mode),), (_robustness(OTHER_MODE[mode]),))
       for i, (mode, doc) in enumerate(ROBUSTNESS)]
)


def corpus():
    """({"<seed> <path>": sha256}, cases run, rejections)."""
    digests, cases, rejections = {}, 0, 0
    for name, seed, parsers, unmutated_only in SEEDS:
        lines = {}
        for path, doc in _mutations(seed):
            for parse in parsers + (unmutated_only if path == () else ()):
                cases += 1
                try:
                    outcome = "ok " + repr(parse(doc))
                except ScenarioError as exc:
                    rejections += 1
                    outcome = f"error {exc}"
                lines.setdefault(path, []).append(outcome)
        for path, outcomes in lines.items():
            key = f"{name} {json.dumps(list(path))}"
            digests[key] = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    return digests, cases, rejections


def test_every_single_mutation_parses_as_pinned():
    digests, cases, rejections = corpus()
    with open(DIGESTS) as fh:
        pinned = json.load(fh)
    moved = sorted(key for key in pinned.keys() | digests.keys()
                   if pinned.get(key) != digests.get(key))
    assert moved == []
    assert (cases, rejections) == (CASES, REJECTIONS)


if __name__ == "__main__":
    with open(DIGESTS, "w") as fh:
        json.dump(corpus()[0], fh, indent=1)
        fh.write("\n")
