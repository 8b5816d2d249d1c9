"""The benchmark tracer's bindings still name licov's functions and arguments.

benchmarks/layers.py patches licov functions by module and attribute name,
and its recorders read arguments by position and name. A rename or a moved
parameter would break `benchmarks/run.py --trace 1` without failing any
other test. This reads layers.py as source: nothing under benchmarks/ is
imported or written.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def _constants(call):
    return [a.value for a in call.args if isinstance(a, ast.Constant)]


def _reads(node, recorders):
    """The (position or None, parameter name) pairs a recorder reads: the
    index and name of _count(key, index, name) or of each _arg(args,
    kwargs, index, name) in a recorder function, and each kwargs.get(name)."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_count":
        return [tuple(_constants(node)[1:])]
    if not isinstance(node, ast.Name) or node.id not in recorders:
        return []
    reads = []
    for call in ast.walk(recorders[node.id]):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if getattr(func, "id", None) == "_arg":
            reads.append(tuple(_constants(call)))
        elif getattr(func, "attr", None) == "get" and getattr(func.value, "id", None) == "kwargs":
            reads.append((None, _constants(call)[0]))
    return reads


def _bindings():
    """-> [(licov module, attribute path, [(position, name)])] for
    every function and method layers.install patches."""
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    recorders = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    install = recorders["install"]
    out = []
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "functions":
            for entry in node.value.elts:
                module, attr, _, record = entry.elts
                out.append((module.id, [attr.value], _reads(record, recorders)))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "patch_method":
            owner, attr, _, *record = node.args
            path = [owner.attr, attr.value]
            out.append((owner.value.id, path, _reads(record[0], recorders) if record else []))
    return out


BINDINGS = _bindings()


def test_layers_patch_functions_and_methods():
    assert len(BINDINGS) >= 20
    assert any(path == ["build_local_map"] and reads == [(2, "k")]
               for _, path, reads in BINDINGS)


@pytest.mark.parametrize("module, path, reads", BINDINGS,
                         ids=[f"{m}.{'.'.join(p)}" for m, p, _ in BINDINGS])
def test_binding_exists_with_the_arguments_it_reads(module, path, reads):
    obj = importlib.import_module(f"licov.{module}")
    for attr in path:
        assert hasattr(obj, attr), f"licov.{module} has no {'.'.join(path)}"
        obj = getattr(obj, attr)
    params = list(inspect.signature(obj).parameters)
    for position, name in reads:
        assert name in params, f"{'.'.join(path)} has no parameter {name!r}"
        if position is not None:
            assert params[position] == name, f"{'.'.join(path)}: {params}"
