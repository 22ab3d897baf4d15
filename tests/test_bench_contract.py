"""The names the benchmark under bench/ reads from spinorlab still exist.

The benchmark builds and runs the source of its own checkout, so a rename or
deletion in src that it depends on would otherwise show only when the
benchmark runs.  These tests read bench/ and change nothing there.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from spinorlab.suite import RunConfig, run_verify_all

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_check_names_are_the_reference_list():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert [c.name for c in run_verify_all(RunConfig())] == \
        reference["checks"]


def test_every_traced_binding_resolves():
    tracing = _tracing()
    bindings = [b for spec, _ in tracing.SPAN_LAYERS.values() for b in spec]
    bindings += [b for spec in tracing.COUNT_LAYERS.values() for b in spec]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in bindings if not hasattr(owner, attr)]
    assert missing == []


def _spinorlab_reads(tree):
    """(dotted name, module, attribute chain) of every spinorlab name that a
    bench module reads: its ``from spinorlab... import`` names and each
    attribute read off a name bound to a spinorlab module."""
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "spinorlab":
                    if a.asname:
                        modules[a.asname] = a.name
                    else:
                        modules["spinorlab"] = "spinorlab"
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "spinorlab":
            reads += [(f"{node.module}.{a.name}", node.module, [a.name])
                      for a in node.names]
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.append((".".join([node.id] + chain), modules[node.id],
                          chain))
    return reads


def _resolves(module, chain):
    obj = importlib.import_module(module)
    for attr in chain:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_spinorlab_name_a_bench_module_reads_exists(path):
    reads = _spinorlab_reads(ast.parse(path.read_text()))
    missing = sorted({name for name, module, chain in reads
                      if not _resolves(module, chain)})
    assert missing == []


def test_the_scan_finds_both_import_forms():
    reads = {name for name, _, _ in _spinorlab_reads(
        ast.parse((BENCH / "workloads.py").read_text()))}
    assert {"suite.run_verify_all", "spinorlab.opcalc.sample_momenta"} <= reads
