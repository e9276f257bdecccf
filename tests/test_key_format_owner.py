"""Only `cobalt.rings` knows the packed monomial keys.

A polynomial's terms are keyed by packed ints whose layout changes when
the ring widens (`Ring.widen`, `Ring.align`).  Every other module works
through `Polynomial` arithmetic, `Ring.dot` and `exponent_terms`, so a
change of the key format touches one module.  This test reads the
sources and fails when another module names the packing, its key codec,
the raw term dict, the trusted constructors, or the key shifts and the
grouped sum of a ring map.
"""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cobalt"
FORMAT = re.compile(r"\.pack\b|\.align\(|\.widen\(|\.terms\b|add_product"
                    r"|Polynomial\._raw|\.codec\b|_key_shift|_horner")


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "rings.py"))
def test_only_rings_names_the_key_format(path):
    lines = (SRC / path).read_text(encoding="utf-8").splitlines()
    found = [f"{path}:{n}: {line.strip()}"
             for n, line in enumerate(lines, 1) if FORMAT.search(line)]
    assert not found, "\n".join(found)
