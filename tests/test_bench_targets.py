"""The bench's span tracer wraps names that exist in the package.

`bench/spans.py` wraps each (module, attribute) pair of its `LAYERS` table,
plus `generate._extend_with_maximal`, by name. A renamed or deleted target
would otherwise fail only when the bench installs its tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for targets in load_spans().LAYERS.values() for target in targets]


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_layer_target_exists(module_name, attr):
    module = importlib.import_module(f"intrank.{module_name}")
    if attr.startswith("Poset."):
        assert attr[len("Poset."):] in module.Poset.__dict__
    else:
        assert callable(getattr(module, attr, None))


def test_candidate_counter_target_exists():
    generate = importlib.import_module("intrank.generate")
    assert callable(getattr(generate, "_extend_with_maximal", None))
