"""Every threshold of the package is named once, in the tolerance table at
the top of standard_form.py: no other line of src/ compares against a bare
small float, and every name of the table is read somewhere in src/."""
import ast
from pathlib import Path

import gaussian_eof

_PACKAGE = Path(gaussian_eof.__file__).parent


def test_every_tolerance_lives_in_the_table():
    stray = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the table: standard_form's module-level constant definitions
        table = ({node.value for node in tree.body if isinstance(node, ast.Assign)}
                 if path.name == "standard_form.py" else set())
        stray += [f"{path.name}:{node.lineno}: {node.value!r}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0.0 < node.value <= 1e-6 and node not in table]
    assert stray == []


def test_every_tolerance_decides_something():
    # a name of the table that no src/ expression reads is a threshold left
    # behind by a removed guard
    tree = ast.parse((_PACKAGE / "standard_form.py").read_text(encoding="utf-8"))
    table = {target.id for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant)
             and type(node.value.value) is float
             for target in node.targets}
    read = {node.id for path in _PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert "TOL_PSD" in table
    assert table - read == set()
