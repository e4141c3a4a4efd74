"""Package rules checked on the source: no trionsim module reaches a
private (`_`-prefixed) name of another trionsim module, either by
importing it or as an attribute of an imported module; and every public
module-level function or class is used somewhere."""

import ast
from pathlib import Path

import trionsim

_PACKAGE = Path(trionsim.__file__).parent
_TESTS = Path(__file__).parent


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


def _names_referenced(tree) -> set:
    """Every name that `tree` reads, takes as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_public_name_is_used():
    # a public module-level def or class must be referenced from the
    # package (the re-exports of __init__ do not count) or from the tests
    defined, used = [], set()
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        defined += [f"{path.name}: {node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        used |= _names_referenced(tree)
    for path in sorted(_TESTS.glob("*.py")):
        used |= _names_referenced(ast.parse(path.read_text(), str(path)))
    unused = [d for d in defined if d.split(": ")[1] not in used]
    assert not unused, unused
