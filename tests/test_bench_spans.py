"""The benchmark's tracer still finds every ``vnm`` name it times.

``bench/spans.py`` rebinds the functions and methods listed in its
``TARGETS`` and raises if one is missing, so a refactor that removes or
moves a traced name fails here rather than in ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("vnm_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(spans) -> dict[str, bool]:
    out = {}
    for module_name, attr, _ in spans.TARGETS:
        owner = sys.modules[module_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[f"{module_name}.{attr}"] = hasattr(owner, "__wrapped__")
    return out


def test_tracer_installs_every_target_and_restores_them():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if a target is missing
        assert all(_traced(spans).values())
    finally:
        tracer.uninstall()
    assert not any(_traced(spans).values())
