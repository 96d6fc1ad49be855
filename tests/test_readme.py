"""The README's library tour runs as a doctest, its command line section
names every option of the CLI, and its rank iteration section every field
of RankPoset."""

import argparse
import dataclasses
import doctest
import re
from pathlib import Path

from intrank import RankPoset, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_command_line_section_names_every_option():
    # Each option of each subcommand, and no other, appears in the section
    # as a whole word ('--n' is not found inside '--no-bounds').
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    options = {opt for command in commands for action in command._actions
               if not isinstance(action, argparse._HelpAction) for opt in action.option_strings}
    assert options - named == set()
    assert named - options == set()


def test_rank_iteration_section_names_every_rank_poset_field():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Rank iteration\n", 1)[1].split("\n#", 1)[0]
    assert [f.name for f in dataclasses.fields(RankPoset) if f"`{f.name}`" not in section] == []
