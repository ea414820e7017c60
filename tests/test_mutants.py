"""The mutation table stays applicable: every mutant's old text occurs
exactly once in its file and every test it names exists.  The mutants
themselves run outside tier-1, with `python tests/mutants.py`."""

import re

import pytest

from mutants import MUTANTS, ROOT, Mutant, caught


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *scopes = node.split("::")
        text = (ROOT / path).read_text()
        *classes, func = scopes
        for cls in classes:
            assert re.search(rf"^class {cls}\b", text, re.M), node
        assert re.search(rf"^\s*def {func}\(", text, re.M), node


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


def test_caught_counts_parametrized_cases():
    m = Mutant("x", "p", "a", "b", ("t.py::T::test_a", "t.py::test_b"))
    assert caught(m, {"t.py::T::test_a[1-LS]"}) == ["t.py::T::test_a"]
    assert caught(m, {"t.py::test_bc", "t.py::T::test_ab"}) == []
    assert caught(m, {"t.py::test_b", "t.py::T::test_a"}) == list(m.tests)
