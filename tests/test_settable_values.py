"""Pins the count of settable values in the package: config keys,
dataclass fields and optional parameters. A change that adds or removes
an option must edit the pin, the way the node pins in test_network do.
Every config key must also be read by the program, not only validated.
"""

import ast
import pathlib

import mmseqseg

PACKAGE = pathlib.Path(mmseqseg.__file__).parent


def is_dataclass(cls):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def settable_values():
    """(config keys, dataclass fields, optional parameters) over every
    module: the union of ModelConfig's and TrainConfig's field names,
    the annotated fields of every @dataclass, and the parameters with a
    default of every function and lambda."""
    fields, optional = {}, 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                fields[node.name] = {s.target.id for s in node.body
                                     if isinstance(s, ast.AnnAssign)}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                optional += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    keys = fields["ModelConfig"] | fields["TrainConfig"]
    return len(keys), sum(map(len, fields.values())), optional


def unread_config_fields():
    """The fields of ModelConfig and TrainConfig that no module reads as
    an attribute outside a __post_init__: keys that change nothing."""
    keys, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        checks = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef)
                  and f.name == "__post_init__" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in ("ModelConfig", "TrainConfig")):
                keys |= {s.target.id for s in node.body
                         if isinstance(s, ast.AnnAssign)}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in checks):
                read.add(node.attr)
    return sorted(keys - read)


def test_settable_value_pins():
    assert settable_values() == (12, 22, 20)


def test_every_config_key_is_read():
    assert unread_config_fields() == []
