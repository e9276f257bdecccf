"""Every function the benchmark tracer names still exists in `cobalt`.

`perfbench/tracer.py` wraps the functions listed in its GROUPS and
EXPECTED tables by "layer:dotted.path" keys.  It is loaded here by path,
unchanged, so a refactor that deletes or renames a traced function
fails this test as well as the traced benchmark's self-check.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
KEYS = sorted({key for keys in tracer.GROUPS.values() for key in keys}
              | {key for keys in tracer.EXPECTED.values() for key in keys})


def test_tables_are_not_empty():
    assert KEYS


@pytest.mark.parametrize("key", KEYS)
def test_traced_name_resolves(key):
    layer, _, path = key.partition(":")
    assert layer in tracer.LAYERS, key
    owner = importlib.import_module(f"cobalt.{layer}")
    *outer, name = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        assert owner is not None, key
    assert callable(vars(owner).get(name)), key
