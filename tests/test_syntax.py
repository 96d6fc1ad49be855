"""The package and the opt-in scripts beside the tests parse as Python 3.10,
the oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "intrank").glob("*.py")) + [
    ROOT / "tests" / "mutants.py", ROOT / "tests" / "iteration_bounds.py"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
