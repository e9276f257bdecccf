"""The examples in the library's docstrings run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import cobalt

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    cobalt.__path__, prefix="cobalt."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_examples_exist():
    examples = sum(doctest.testmod(importlib.import_module(name)).attempted
                   for name in MODULES)
    assert examples >= 2
