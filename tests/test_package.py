"""Package rules checked on the source: no trionsim module reaches a
private (`_`-prefixed) name of another trionsim module, either by
importing it or as an attribute of an imported module; every public
module-level function or class is used by the package itself (imported
by name, read as an attribute of its module, or read by bare name in its
own module), and so is every public method, property and classmethod of
a module-level class (read as an attribute outside its own def; dunders
that Python calls by protocol are exempt, and those reached through an
operator are named), and every field of a module-level dataclass (read
as an attribute), so code and data that only the tests read live under
`tests/` (`tests/oracles.py`); and each name that perfbench's tracer
wraps is such a function."""

import ast
from collections import Counter
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


def _source_module(node):
    """The trionsim module that an ImportFrom reads from, None for the
    package itself (`from . import mod`), or "" for another package."""
    if node.level == 0:
        head, _, rest = (node.module or "").partition(".")
        return (rest or None) if head == "trionsim" else ""
    return node.module


def _reads(trees):
    """What the modules of `trees` read, from one walk of each: the set
    of (module, name) pairs that some module imports by name from a
    trionsim module or reads as an attribute of one bound by
    `from . import module`, and a Counter of the bare names
    (("name", n)) and attributes (("attr", n)) loaded inside each module
    tree and each def, class and field declaration in it."""
    used, loads = set(), {}
    for tree in trees.values():
        imports, module_attrs = [], set()
        todo = [(tree, ())]
        while todo:
            node, scopes = todo.pop()
            if isinstance(node, (ast.Module, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.AnnAssign)):
                scopes += (loads.setdefault(node, Counter()),)
            key = None
            if isinstance(node, ast.ImportFrom) \
                    and _source_module(node) != "":
                imports.append(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                key = ("name", node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name):
                    module_attrs.add((node.value.id, node.attr))
                if isinstance(node.ctx, ast.Load):
                    key = ("attr", node.attr)
            if key:
                for counts in scopes:
                    counts[key] += 1
            todo.extend((n, scopes) for n in ast.iter_child_nodes(node))
        used |= {(_source_module(n), a.name) for n in imports
                 for a in n.names}
        bound = {a.asname or a.name: a.name for n in imports
                 if _source_module(n) is None for a in n.names}
        used |= {(bound[alias], attr) for alias, attr in module_attrs
                 if alias in bound}
    return used, loads


def _loaded_outside(key, node, trees, loads) -> bool:
    """Whether the trees load `key` outside `node`."""
    total = sum(loads[tree][key] for tree in trees)
    return total > loads[node][key]


def _is_used(module, node, trees, reads=None) -> bool:
    """Whether the package uses the module-level def or class `node` of
    `module` (a key of `trees`, the parsed modules): when some module
    imports it by name from `module`, or reads it as an attribute of
    `module` bound by `from . import module`, or when `module` reads its
    bare name outside `node` itself.  A local variable or an attribute of
    another object that merely has the same name is no use.  `reads` is
    `_reads(trees)`, built when not given."""
    used, loads = reads or _reads(trees)
    return (module, node.name) in used or _loaded_outside(
        ("name", node.name), node, [trees[module]], loads)


def test_a_same_named_local_is_no_use():
    # `cli` reads a local `run`, and `other.run` is an attribute of some
    # object: neither uses montecarlo.run; the import and the module
    # attribute do
    trees = {
        "montecarlo": ast.parse("def run():\n    return run\n"),
        "cli": ast.parse("def go(rows, other):\n"
                         "    run = rows[0]\n"
                         "    return run(), other.run()\n"),
    }
    [run] = trees["montecarlo"].body
    assert not _is_used("montecarlo", run, trees)
    for source in ("from .montecarlo import run\n",
                   "from . import montecarlo\nmontecarlo.run()\n",
                   "from trionsim import montecarlo as mc\nmc.run()\n"):
        assert _is_used("montecarlo", run,
                        {**trees, "cli": ast.parse(source)}), source
    trees["montecarlo"].body.append(ast.parse("RUN = run").body[0])
    assert _is_used("montecarlo", run, trees)


# public names the package defines for its callers outside `src/`, each
# with the reason it stays
_USED_OUTSIDE = {
    "save_scenario": "the inverse of load_scenario; perfbench and the "
                     "tests write scenario files with it",
}


# dunders that Python calls by protocol: construction, `with` and `len`
_PROTOCOL_DUNDERS = {"__init__", "__post_init__", "__enter__", "__exit__",
                     "__len__"}

# dunders that the package reaches through an operator, each with the
# operator and the reason it stays
_OPERATOR_DUNDERS = {
    "FitResult.__getitem__": "`fit[name]` reads a fitted parameter in "
                             "pipelines and cli",
}

# dataclass fields that no `src/` line reads, each with the reason it
# stays
_UNREAD_FIELDS = {
    "FitResult.sse_history": "test_sse_never_increases reads it to guard "
                             "the fitter's step acceptance",
}


def _attribute_is_read(node, trees, name=None, reads=None) -> bool:
    """Whether some module of `trees` reads `name` (by default the name
    of `node`, a def in a class body) as an attribute (of any object)
    outside `node` itself.  `reads` is `_reads(trees)`, built when not
    given."""
    _, loads = reads or _reads(trees)
    return _loaded_outside(("attr", name or node.name), node,
                           trees.values(), loads)


def _dataclass_fields(node):
    """The field declarations (`name: type` lines) of `node` if it is a
    class decorated with `dataclass` or `dataclass(...)`, else none."""
    if not isinstance(node, ast.ClassDef) or not any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            == "dataclass" for d in node.decorator_list):
        return []
    return [n for n in node.body if isinstance(n, ast.AnnAssign)
            and isinstance(n.target, ast.Name)]


def test_a_method_read_only_in_its_own_def_is_no_use():
    trees = {"m": ast.parse("class A:\n"
                            "    def go(self):\n"
                            "        return self.go\n"
                            "    def __add__(self, other):\n"
                            "        return self\n")}
    go, add = trees["m"].body[0].body
    assert not _attribute_is_read(go, trees)
    assert not _attribute_is_read(add, trees)
    trees["cli"] = ast.parse("def f(a):\n    return a.go()\n")
    assert _attribute_is_read(go, trees)
    trees["cli"] = ast.parse("def f(a):\n    a.go = 1\n")
    assert not _attribute_is_read(go, trees)


def test_a_dataclass_field_only_set_is_no_use():
    trees = {"m": ast.parse("@dataclass(frozen=True)\n"
                            "class A:\n"
                            "    x: int\n"
                            "    y: int = 0\n"
                            "class B:\n"
                            "    z: int = 0\n"),
             "cli": ast.parse("def f(a):\n"
                              "    a.y = 1\n"
                              "    return A(x=1, y=2), a.x\n")}
    a, b = trees["m"].body
    x, y = _dataclass_fields(a)
    assert _attribute_is_read(x, trees, x.target.id)
    # set by keyword and by assignment, never read
    assert not _attribute_is_read(y, trees, y.target.id)
    # not a dataclass: its annotations are no fields
    assert _dataclass_fields(b) == []


def _is_public(name) -> bool:
    """A name without a leading `_`, or a dunder."""
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def test_every_public_name_is_used():
    # a public module-level def or class must be referenced from the
    # package outside its own definition, and a public method, property
    # or classmethod of a module-level class read as an attribute outside
    # its own def; the re-exports of __init__ and the tests do not count.
    # A dunder counts as public: one that Python calls by protocol is
    # exempt, and one reached through an operator is named in
    # _OPERATOR_DUNDERS.  A field of a module-level dataclass must be read
    # as an attribute somewhere in the package, or be named in
    # _UNREAD_FIELDS
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(_PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    reads = _reads(trees)
    unused, excepted = [], set()
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in _USED_OUTSIDE:
                excepted.add(node.name)
            elif _is_public(node.name) \
                    and not _is_used(name, node, trees, reads):
                unused.append(f"{name}.py: {node.name}")
            methods = node.body if isinstance(node, ast.ClassDef) else ()
            for method in methods:
                if not isinstance(method, ast.FunctionDef) \
                        or method.name in _PROTOCOL_DUNDERS:
                    continue
                label = f"{node.name}.{method.name}"
                if label in _OPERATOR_DUNDERS:
                    excepted.add(label)
                elif _is_public(method.name) \
                        and not _attribute_is_read(method, trees,
                                                   reads=reads):
                    unused.append(f"{name}.py: {label}")
            for decl in _dataclass_fields(node):
                label = f"{node.name}.{decl.target.id}"
                if label in _UNREAD_FIELDS:
                    excepted.add(label)
                elif not _attribute_is_read(decl, trees, decl.target.id,
                                            reads):
                    unused.append(f"{name}.py: {label}")
    assert not unused, unused
    # no stale exception
    assert excepted == (set(_USED_OUTSIDE) | set(_OPERATOR_DUNDERS)
                        | set(_UNREAD_FIELDS))


_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_are_used_in_the_package():
    # perfbench's tracer looks up each (module, attribute) of its TARGETS
    # with no default, so a renamed or removed one breaks every traced
    # run: each must be a module-level def of its `src/` module that the
    # package references outside that definition
    tracer = ast.parse(_TRACER.read_text(), str(_TRACER))
    [targets] = [ast.literal_eval(node.value) for node in tracer.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["TARGETS"]]
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(_PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    reads = _reads(trees)
    unused = []
    for module, attr in targets.values():
        stem = module.removeprefix("trionsim.")
        defs = [node for node in getattr(trees.get(stem), "body", ())
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == attr]
        if not defs or not _is_used(stem, defs[0], trees, reads):
            unused.append(f"{module}.{attr}")
    assert targets and not unused, unused
