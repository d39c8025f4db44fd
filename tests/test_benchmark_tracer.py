"""The benchmark (perfbench/) imports emodeid names and its tracer wraps
emodeid functions by name, so a name that is renamed or deleted breaks the
benchmark. These tests catch that without running a workload."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import emodeid.cli  # noqa: F401  (loads every module the tracer rebinds in)
from emodeid import video

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


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


def test_every_name_the_benchmark_imports_from_emodeid_exists():
    imported = [
        (node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("emodeid.")
        for alias in node.names
    ]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_benchmark_frames_are_written_in_the_format_its_reader_parses(tmp_path):
    # perfbench/inputs.py writes frames through FrameImage.from_array, and
    # perfbench/run.py::read_p6 splits the file at its first three newlines.
    arr = np.arange(5 * 7 * 3).reshape(5, 7, 3)
    path = tmp_path / "frame.ppm"
    video.write_ppm(path, video.FrameImage.from_array(arr))
    assert path.read_bytes() == b"P6\n%d %d\n255\n" % (7, 5) + arr.astype(np.uint8).tobytes()
