"""The mutation table of tests/mutants.py stays applicable to today's source.

Running the mutants takes seconds each, so Tier-1 only checks that every
fragment occurs exactly once and every named test exists; run the table
with `python tests/mutants.py`.
"""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "drpsim_mutants", Path(__file__).with_name("mutants.py")
)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_mutant_fragment_occurs_once_and_names_existing_tests():
    for m in mutants.MUTANTS:
        assert (mutants.ROOT / m.path).read_text().count(m.fragment) == 1, m
        for node in m.tests:
            file, name = node.split("::")
            assert f"\ndef {name}(" in (mutants.ROOT / file).read_text(), node
