"""The benchmark's tracer (perfbench/tracer.py) wraps emodeid functions by
name, so a traced name that is renamed or deleted breaks the benchmark. These
tests catch that without running a workload."""

import importlib.util
import sys
from pathlib import Path

import emodeid.cli  # noqa: F401  (loads every module the tracer rebinds in)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded emodeid module, and of each class it defines."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "emodeid" and not mod_name.startswith("emodeid."):
            continue
        for attr, value in vars(mod).items():
            found[mod_name, attr] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for meth, member in vars(value).items():
                    found[mod_name, attr, meth] = member
    return found


def test_tracer_wraps_every_target_and_uninstall_restores_them():
    tracer_module = _load_tracer()
    before = _bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for module, path in tracer_module.TARGETS:
            owner = sys.modules[f"emodeid.{module}"]
            *cls_name, name = path.split(".")
            if cls_name:
                owner = vars(getattr(owner, cls_name[0]))
                traced = owner[name]
            else:
                traced = getattr(owner, name)
            assert hasattr(traced, "__wrapped__"), f"{module}.{path} is not traced"
        assert hasattr(emodeid.cli.main, "__wrapped__")
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = sorted(".".join(key) for key, value in before.items() if after[key] is not value)
    assert changed == []
    assert after["emodeid.pipeline", "run_pipeline"] is before["emodeid.pipeline", "run_pipeline"]
