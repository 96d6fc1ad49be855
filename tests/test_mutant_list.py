"""Every entry of the mutation list in `tests/mutants.py` points at the code.

The list is loaded read-only from its file, as `tests/test_bench_targets.py`
loads the bench modules, and no mutant is run. Each entry's line must occur
in its file exactly as many times as the entry declares (once unless it
says otherwise), matched with indentation stripped as the script matches
it, the occurrence it mutates must be one of them, and each test it names
must be in a file that exists. So an edit that leaves an entry stale fails
here, not only when the opt-in script runs.
"""

import importlib.util
import sys
from pathlib import Path

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


def test_every_named_test_file_exists():
    missing = {t for m in load_mutants() for t in m.tests if not (ROOT / t.split("::")[0]).is_file()}
    assert missing == set()
