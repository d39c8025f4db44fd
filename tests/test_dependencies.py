"""The modules outside the standard library that ``src/emodeid`` imports,
at module level or inside a function, are exactly the ``dependencies`` that
``pyproject.toml`` declares, so a dependency cannot be dropped while an
import of it survives, nor be declared when nothing imports it."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies(pyproject: str) -> set[str]:
    """The names in the ``dependencies`` array, without extras or version
    specifiers, lower-cased with ``-`` as ``_``. Read with a regular
    expression, as ``tomllib`` needs Python 3.11."""
    block = re.search(r"^dependencies = \[(.*?)\]$", pyproject, re.MULTILINE | re.DOTALL)
    return {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', block.group(1))}


def third_party_imports(source: str) -> set[str]:
    """The top-level names of the absolute imports anywhere in ``source`` that
    are not in the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_the_checkers_read_dependencies_and_imports():
    pyproject = (
        '[project]\ndependencies = [\n    "numpy>=1.24",\n    "Foo-Bar[fast]==2",\n]\n\n'
        '[project.optional-dependencies]\ntest = ["pytest>=7"]\n'
    )
    assert declared_dependencies(pyproject) == {"numpy", "foo_bar"}
    source = (
        "from __future__ import annotations\nimport os, numpy.linalg\nfrom . import x\n"
        "from .errors import y\nfrom scipy import signal\ndef f():\n    import requests\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy", "requests"}


def test_src_imports_exactly_the_declared_dependencies():
    imported = set().union(*(third_party_imports(path.read_text(encoding="utf-8"))
                             for path in (ROOT / "src" / "emodeid").rglob("*.py")))
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert imported == declared
