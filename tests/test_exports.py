import importlib
import pkgutil

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
