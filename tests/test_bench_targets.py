"""The package names the benchmark's tracer patches still exist.

``perfbench/tracing.py`` patches package callables by module and dotted
name. A name that no longer resolves is skipped silently, and every
per-layer metric that needs its layer or counter is then left out of the
traced result line, while the run still exits 0. So a rename or removal
in ``src/`` must fail here. The tracer module is loaded by path and only
read.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Targets that stopped resolving when the rwkv and dnet automaton nets
# became one ``WfaNet`` (router spec ``BlockNet._entry``). The
# ``router.entry`` layer still resolves through the imm nets' ``_entry``,
# so no metric is lost; retargeting the tracer drops them.
STALE = {
    ("exactrnn.rwkv_gadgets", "RwkvWfaNet._entry"),
    ("exactrnn.delta_gadgets", "DnetWfaNet._entry"),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolved(tracing):
    """(targets that resolve, targets that do not), as (module, name)."""
    found, missing = set(), set()
    for module_name, attr, *_ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        target = (module_name, attr)
        (missing if tracing._resolve(module_name, attr) is None else found).add(target)
    return found, missing


def test_every_traced_name_resolves(tracing):
    _, missing = resolved(tracing)
    assert missing <= STALE


def test_every_per_layer_metric_has_its_layers_patched(tracing):
    found, _ = resolved(tracing)
    patched = {
        layer
        for module_name, attr, layer, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
        if (module_name, attr) in found
    }
    absent = [
        name
        for name, _unit, _better, _target, _workload, needs in tracing.LAYER_METRICS
        if not set(needs) <= patched
    ]
    assert absent == []
