"""The benchmark's tracer wraps abperc functions by the names each module
looks them up under; a renamed or deleted name silently drops the per-layer
metrics that need it, so every lookup site must still resolve."""

import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    # executed from its source so that no bytecode cache is written under bench/
    module = types.ModuleType("abperc_bench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("site", sorted({site for sites in tracer.SPANS.values()
                                         for site in sites}))
def test_span_site_resolves(site):
    owner, attr = tracer.resolve(site)
    assert callable(getattr(owner, attr))
