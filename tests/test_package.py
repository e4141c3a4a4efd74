"""Package rules checked on the source: no trionsim module reaches a
private (`_`-prefixed) name of another trionsim module, either by
importing it or as an attribute of an imported module; and every public
module-level function or class is used by the package itself, so code
that only the tests run lives under `tests/` (`tests/oracles.py`)."""

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


def _names_referenced(tree, skip) -> set:
    """Every name that `tree` reads, takes as an attribute or imports,
    outside the subtree `skip`."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names


# public names the package defines for its callers outside `src/`, each
# with the reason it stays
_USED_OUTSIDE = {
    "save_scenario": "the inverse of load_scenario; perfbench and the "
                     "tests write scenario files with it",
}


def test_every_public_name_is_used():
    # a public module-level def or class must be referenced from the
    # package outside its own definition; the re-exports of __init__
    # and the tests do not count
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(_PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    unused, excepted = [], set()
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if node.name in _USED_OUTSIDE:
                excepted.add(node.name)
            elif not any(node.name in _names_referenced(other, node)
                         for other in trees.values()):
                unused.append(f"{name}: {node.name}")
    assert not unused, unused
    assert excepted == set(_USED_OUTSIDE)   # no stale exception
