"""Package rules checked on the source: no trionsim module reaches a
private (`_`-prefixed) name of another trionsim module, either by
importing it or as an attribute of an imported module."""

import ast
from pathlib import Path

import trionsim

_PACKAGE = Path(trionsim.__file__).parent


def test_no_private_names_reached_across_modules():
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   and (n.level > 0 or n.module.split(".")[0] == "trionsim")]
        # modules bound by `from . import montecarlo` and the like
        modules = {a.asname or a.name for n in imports
                   if n.module in (None, "trionsim") for a in n.names}
        for node in ast.walk(tree):
            if node in imports:
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.startswith("_")]
    assert not found, found
