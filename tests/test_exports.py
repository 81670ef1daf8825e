import importlib
import importlib.util
import pkgutil
from pathlib import Path

import lindyn


def test_every_export_resolves():
    # a deleted name must not linger in any module's __all__
    names = ["lindyn"] + [f"lindyn.{m.name}"
                          for m in pkgutil.iter_modules(lindyn.__path__)]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{name}.{export}"
            checked += 1
    assert checked > 50


def test_bench_spans_resolve():
    # the bench's tracer wraps these names at install time; a rename or
    # delete in lindyn must fail here, not in a traced bench run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.SPANS) > 10
    for name, module, attr, _ in tracing.SPANS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), name
