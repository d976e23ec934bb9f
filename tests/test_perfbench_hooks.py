"""The benchmark's tracer hooks still name real metapsk globals.

`perfbench/spans.py` traces a sweep by rebinding module globals such as
`metapsk.harness.synthesize`.  A hook whose global has been renamed or
removed is skipped at run time with only a note on stderr, and its time
silently moves into the caller's span; this test fails instead.
"""

import importlib
from pathlib import Path

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    spans = importlib.import_module("spans")
    missing = []
    for b in spans.BOUNDARIES:
        module = importlib.import_module(f"metapsk.{b.module}")
        if not callable(getattr(module, b.attr, None)):
            missing.append(f"metapsk.{b.module}.{b.attr}")
    assert missing == []
