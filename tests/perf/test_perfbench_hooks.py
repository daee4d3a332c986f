"""What the repository benchmark (``perfbench/``) needs from ``src/repro``.

A traced benchmark run maps every ``src/repro`` module to a layer and
counts calls by ``(module path, function name)``.  A module added or
removed without a layer, or a renamed counted function, would only fail
(or silently read zero) in a benchmark run; these tests fail first.
The benchmark files are read, never written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "repro"

#: (module path below src/repro, class, function) the benchmark counts calls of.
COUNTED = [
    ("network/data_network.py", "DataNetwork", "send"),
    ("core/analytical_ordering.py", "AnalyticalTimestampNetwork", "_deliver_ordered"),
    ("protocols/ts_snoop.py", "TSSnoopNode", "_on_ordered"),
]


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_module_has_a_layer():
    mapping = _load_layers().check_layer_map(PACKAGE)
    assert all(path in mapping for path, _cls, _function in COUNTED)


@pytest.mark.parametrize("path, cls, function", COUNTED)
def test_counted_function_exists(path, cls, function):
    module = importlib.import_module("repro." + path[: -len(".py")].replace("/", "."))
    code = getattr(getattr(module, cls), function).__code__
    assert Path(code.co_filename).resolve() == (PACKAGE / path).resolve()
    assert code.co_name == function
    # The benchmark names the same (module, function) pair.
    assert f'("{path}", "{function}")' in (PERFBENCH / "simbench.py").read_text()
