"""Every entry of the mutation list in `tests/mutants.py` points at the code.

The list is loaded read-only from its file, as `tests/test_bench_targets.py`
loads the bench modules, and no mutant is run. Each entry's line must occur
in its file exactly as many times as the entry declares (once unless it
says otherwise), matched with indentation stripped as the script matches
it, the occurrence it mutates must be one of them, and each test it names
must name a test defined in its file: each class and function of the node
id, its parametrize suffix dropped, is looked up in the file's syntax tree.
So an edit that leaves an entry stale fails here, not only when the opt-in
script runs.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutant_list", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look up a class's module
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_line_occurs_as_declared():
    stale = [(m.file, m.line) for m in load_mutants()
             if [text.strip() for text in (ROOT / m.file).read_text().split("\n")].count(m.line) != m.occurs
             or not 0 <= m.occurrence < m.occurs]
    assert stale == []


def defined(node_id: str) -> bool:
    """Whether the file, class and function a pytest node id names exist."""
    path, *names = node_id.split("[")[0].split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((d for d in body if isinstance(d, (ast.ClassDef, ast.FunctionDef))
                     and d.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_every_named_test_is_defined():
    missing = {t for m in load_mutants() for t in m.tests if not defined(t)}
    assert missing == set()


@pytest.mark.parametrize("node_id", [
    "tests/test_missing.py",
    "tests/test_cli.py::TestMissing",
    "tests/test_cli.py::TestConjugateSearch::test_missing",
    "tests/test_cli.py::test_span_budget",
])
def test_undefined_node_ids_are_caught(node_id):
    assert not defined(node_id)
