"""The benchmark tracer patches package functions by name and reads their
arguments by parameter name; a rename in the package must fail here rather
than break a traced benchmark run."""
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    # loaded without installing anything and without writing bytecode there
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


tracer = _load_tracer()


def _params_read(helper) -> set[str]:
    """Every `args["name"]` the attrs helper reads."""
    tree = ast.parse(inspect.getsource(helper))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
    }


@pytest.mark.parametrize("module_name, attr, span, attrs", tracer.PATCHES)
def test_tracer_patch_targets_exist(module_name, attr, span, attrs):
    module = importlib.import_module(f"fedincentives.{module_name}")
    target = getattr(module, attr, None)
    assert callable(target), f"fedincentives.{module_name}.{attr} is gone"
    if attrs is not None:
        params = inspect.signature(target).parameters
        missing = _params_read(attrs) - set(params)
        assert not missing, f"{module_name}.{attr} lost parameters {sorted(missing)}"


def test_tracer_helpers_read_the_named_parameters():
    read = set().union(*(_params_read(a) for *_, a in tracer.PATCHES if a is not None))
    assert {"population", "revokers", "rounds", "seeds"} <= read
