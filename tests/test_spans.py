"""perfbench's span list against the package.

`perfbench/spans.py` wraps each layer entry point it names; a name that no
longer resolves is skipped and listed in `Tracer.missing`, so a renamed
function would read 0 in every per-layer metric without an error. The four
names below are known dead, and the only ones allowed to be missing: the
typed mean kernels replaced the two update hooks, and `mean_of` and
`classify_opinions` left the package once nothing in it called them.
"""

import importlib
import importlib.util
from pathlib import Path

import knnopinion

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
DEAD_HOOKS = ["numerics.mean_of", "dynamics.knn_updated_value", "dynamics.abc_updated_value",
              "harness.classify_opinions"]


def test_every_traced_layer_resolves():
    for path in sorted(Path(knnopinion.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"knnopinion.{path.stem}")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == DEAD_HOOKS
    finally:
        tracer.uninstall()
