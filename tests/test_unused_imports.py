"""AST guards: every name that a module of the package imports is used
in that module, as a name or as an entry of its __all__; and every
top-level function and class of the package has a caller."""

import ast
import pathlib

import mmseqseg

PACKAGE = pathlib.Path(mmseqseg.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).parent / "test_acceptance.py"


def unused_imports(source):
    """The names that source imports and never uses, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_guard_finds_a_leftover_import():
    source = ("from .crossmodal import cmc_forward, mrf_fuse\n"
              "import os.path\n"
              "__all__ = ['cmc_forward']\n")
    assert unused_imports(source) == ["mrf_fuse", "os"]


def test_every_import_is_used():
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def dead_definitions(sources, kept=()):
    """The top-level functions and classes of sources (module name ->
    source) that no module names as a name, an attribute or a string
    constant (a battery row names its op by string), as sorted
    "module.name" strings. Names in kept count as used."""
    defined, used = [], set(kept)
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                used.add(node.value)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used)


def acceptance_imports():
    """The names tests/test_acceptance.py imports from the package."""
    return {a.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("mmseqseg")
            for a in node.names}


def test_guard_finds_a_dead_definition():
    sources = {"a": ("def called():\n    pass\n"
                     "def by_string():\n    pass\n"
                     "def dead():\n    pass\n"
                     "class Kept:\n    pass\n"),
               "b": ("from . import a\n"
                     "ROWS = [('op', 'by_string')]\n"
                     "a.called()\n")}
    assert dead_definitions(sources) == ["a.Kept", "a.dead"]
    assert dead_definitions(sources, kept={"Kept"}) == ["a.dead"]


def test_every_definition_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources, acceptance_imports()) == []
