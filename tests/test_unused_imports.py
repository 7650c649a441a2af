"""An AST guard: every name that a module of the package imports is used
in that module, as a name or as an entry of its __all__."""

import ast
import pathlib

import mmseqseg

PACKAGE = pathlib.Path(mmseqseg.__file__).parent


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
