"""The cobordism oracle in `cobalt.verify` stays apart from the route.

`tables.motivic_ranks` is the only code that knows the motivic input of
the cobordism table; `verify.cobordism_report` checks that table against
cells read off K-theory.  If the oracle named `motivic_ranks`, or built
its cells from the production table, the two routes would share the
very rule the check is there to test.  This test reads the source of
`verify.py` and fails when that happens.
"""

import ast
import pathlib

VERIFY = pathlib.Path(__file__).resolve().parent.parent / "src" / "cobalt" \
    / "verify.py"
ORACLE = ("_odd_k_rank", "_cobordism_cell")


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_verify_never_names_motivic_ranks():
    lines = VERIFY.read_text(encoding="utf-8").splitlines()
    found = [f"verify.py:{n}: {line.strip()}"
             for n, line in enumerate(lines, 1) if "motivic_ranks" in line]
    assert not found, "\n".join(found)


def test_oracle_cells_never_read_the_production_table():
    tree = ast.parse(VERIFY.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert set(ORACLE) <= set(functions)
    assert "_cobordism_cell" in _names(functions["cobordism_report"])
    for name in ORACLE:
        assert not _names(functions[name]) & {
            "motivic_ranks", "mgl_rational_table"}, name
