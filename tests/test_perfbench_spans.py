"""The bench's trace spans name functions that exist in the leafage modules.

``perfbench/spans.py`` rebinds each listed function by name under
``--trace 1``; a renamed or deleted function would otherwise only show up
as a failing traced run.  The file is read, never changed.
"""

import importlib
import runpy
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_exists():
    spans = runpy.run_path(str(SPANS_PY))
    targets = [(mod, attr) for mod, attr, *_ in spans["SPANS"] + spans["COUNTED"]]
    assert len(targets) > 20
    missing = []
    for mod, attr in targets:
        obj = importlib.import_module(f"leafage.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"leafage.{mod}.{attr}")
    assert missing == []
