"""Every module-level import in src/, tests/ and scripts/ is read in its module
or listed in its ``__all__``, unless the import says ``# noqa: F401``;
``errors.py`` is the one module of the package that decodes JSON; and the CLI
loads neither ``scipy.signal`` nor an HTTP client until a command needs them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        unused += [f"line {node.lineno}: {name}" for name in names if name not in used | {"*"}]
    return unused


def test_the_checker_sees_unused_imports():
    source = (
        "from __future__ import annotations\nimport os, sys\nimport numpy as np\n"
        "import json  # noqa: F401\nfrom pathlib import (\n    Path,\n    PurePath,\n)\n"
        "from re import compile\n__all__ = ['compile']\nprint(sys.argv, np.pi, PurePath)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 5: Path"]


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(ROOT)} {problem}"
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for problem in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def json_decoding_lines(source: str) -> list[int]:
    """The lines that name ``json.load`` or ``json.loads``, or import either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads"):
            if isinstance(node.value, ast.Name) and node.value.id == "json":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in ("load", "loads") for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_checker_sees_json_decoding():
    source = (
        "import json\nfrom json import dumps, loads as parse\nx = json.loads('1')\n"
        "print(json.dumps(x), parse, x.load)\nread = json.load\n"
    )
    assert json_decoding_lines(source) == [2, 3, 5]


def test_json_is_decoded_only_in_errors():
    found = [
        path.name
        for path in sorted((ROOT / "src" / "emodeid").glob("*.py"))
        if json_decoding_lines(path.read_text(encoding="utf-8"))
    ]
    assert found == ["errors.py"]


def test_importing_the_cli_loads_neither_scipy_signal_nor_requests():
    # A fresh interpreter: this test process may have imported them already.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    lazy = {"scipy.signal", "requests", "urllib.request", "http.client"}
    code = f"import sys, emodeid.cli; print(sorted({lazy!r} & set(sys.modules)))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True, timeout=120)
    assert child.stdout == "[]\n"
