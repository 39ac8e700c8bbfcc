"""`tests/model.py` stays independent of the code it checks.

The model may import from `targetset` only the types it hands back, never a
private name from anywhere, and may read an `Instance` only through `mode`,
`vertices`, `edges` and `tau`: it never names another `Instance` attribute,
such as the integer view `compiled`, nor any private attribute.
"""

import ast
from pathlib import Path

import pytest

from targetset import Instance

MODEL = Path(__file__).with_name("model.py")
ALLOWED = {"ActivationTrace", "DegeneracyOrdering", "Instance", "NotDegenerate", "OracleResult",
           "ReductionReceipt", "SolveReport"}
READABLE = {"mode", "vertices", "edges", "tau"}
# Every attribute an Instance has beyond the four fields, `compiled` among them.
HIDDEN = {name for name in dir(Instance) if not name.startswith("__")} - READABLE


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"imports {alias.name}" for alias in node.names if alias.name.split(".")[0] == "targetset"]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").split(".")[0] == "targetset":
                if node.module != "targetset":
                    found.append(f"imports from {node.module}")
                found += [f"imports {name} from targetset" for name in names if name not in ALLOWED]
            found += [f"imports the private name {name}" for name in names if name.startswith("_")]
        elif isinstance(node, ast.Attribute) and not node.attr.startswith("__"):
            if node.attr in HIDDEN or node.attr.startswith("_"):
                found.append(f"reads .{node.attr}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "vars"):
            found.append(f"calls {node.func.id}")
    return found


def test_the_model_reads_instances_only_through_their_four_fields():
    assert violations(MODEL.read_text()) == []


def test_the_hidden_attributes_include_the_integer_view():
    assert {"compiled", "n", "incident_totals", "vertex_set"} <= HIDDEN


@pytest.mark.parametrize("source, complaint", [
    ("import targetset", "imports targetset"),
    ("import targetset.engine as e", "imports targetset.engine"),
    ("from targetset.engine import ActivationTrace", "imports from targetset.engine"),
    ("from targetset import run_activation", "imports run_activation from targetset"),
    ("from targetset import _coerce", "imports the private name _coerce"),
    ("from fractions import _gcd", "imports the private name _gcd"),
    ("scale = instance.compiled.scale", "reads .compiled"),
    ("n = instance.n", "reads .n"),
    ("key = instance._key", "reads ._key"),
    ("view = getattr(instance, 'compiled')", "calls getattr"),
])
def test_the_guard_names_each_kind_of_breach(source, complaint):
    assert complaint in violations(source)
