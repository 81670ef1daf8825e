import ast
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


# Exports with no caller in src/lindyn yet, each with the ROADMAP item that
# decides it: 5 re-points the bench spans that wrap them (operator_orbit's
# readers are the bench's OrbitBound and its dynamics.orbit_step span).
PENDING = {
    "operators.CocycleSweep": 5,
    "dynamics.empirical_best": 5,
    "dynamics.operator_orbit": 5,
}


def test_every_export_has_a_caller():
    # a name in a module's __all__ must be read somewhere in src/lindyn
    # outside its own top-level definition; imports and __all__ do not count
    readers, exports = {}, {}
    for path in sorted(Path(lindyn.__file__).parent.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            targets = getattr(stmt, "targets", [getattr(stmt, "target", stmt)])
            own = {getattr(stmt, "name", None)} | {
                t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in own:
                exports[module] = ast.literal_eval(stmt.value)
                continue
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                readers.setdefault(name, set()).add((module, frozenset(own)))
    unused = {f"{module}.{name}" for module, names in exports.items()
              for name in names
              if all(reader == module and name in own
                     for reader, own in readers.get(name, ()))}
    assert unused == set(PENDING), sorted(unused ^ set(PENDING))
