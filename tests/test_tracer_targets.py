"""The benchmark tracer still finds every library function it wraps.

``perfbench/tracer.py`` wraps functions by name; a renamed or deleted
target would only show in a traced benchmark run, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    """Every name the tracer may rebind: the package's and its modules' globals, and wrapped methods."""
    modules = {"": importlib.import_module("discrimlab")}
    for name in tracer.MODULES:
        modules[name] = importlib.import_module(f"discrimlab.{name}")
    out = {(m, k): v for m, mod in modules.items() for k, v in vars(mod).items()}
    for mod_name, attr, _ in tracer.TARGETS:
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            out[(mod_name, attr)] = vars(getattr(modules[mod_name], owner_name))[leaf]
    return out


def test_every_tracer_target_exists_and_is_restored():
    tracer = _load_tracer()
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install("discrimlab")
        assert t.missing == []
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
