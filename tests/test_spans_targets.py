"""Every ccwkit function the benchmark's trace pass wraps still exists.

`perfbench/spans.py` looks its TARGETS up by module and attribute path, so
a deleted or renamed function would otherwise fail only a traced benchmark
run.  The file is loaded by path and only read."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for name, module, path, _, _ in targets:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []
