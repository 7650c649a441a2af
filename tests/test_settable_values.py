"""Pins the count of settable values in the package: config keys,
dataclass fields and optional parameters. A change that adds or removes
an option must edit the pin, the way the node pins in test_network do.
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


def test_settable_value_pins():
    assert settable_values() == (14, 24, 22)
