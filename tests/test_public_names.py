"""Every public top-level function, class or constant of ``src/emodeid`` is
named by the package, a script or the benchmark, outside its own definition:
a public name that only tests use belongs in the tests. Click commands are
exempt, since the CLI reaches them by their command names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Only tests call these today. ROADMAP item 6 decides whether `evaluate`
# reads a split file through them or they go.
ALLOWED = {"annotations.split_dataset", "annotations.split_from_ids",
           "annotations.load_split_override"}


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def public_definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Each public top-level name defined in a module, with its line span."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_click_command(node):
                spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
    return {name: span for name, span in spans.items() if not name.startswith("_")}


def references(tree: ast.Module, strings: bool) -> list[tuple[str, int]]:
    """(name, line) for each name, attribute and imported name in a module;
    with ``strings``, also each dotted part of each string constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [(part, node.lineno) for part in node.value.split(".")]
    return found


def names_only_tests_use(sources: dict[str, str], package: str = "src/emodeid/") -> list[str]:
    """``module.name`` for each public definition in ``package`` that no file
    of ``sources`` (path relative to the repo root -> text) names outside the
    definition itself. String constants count in ``perfbench/`` only."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs = {path: references(tree, path.startswith("perfbench/"))
            for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if not (path.startswith(package) and "/" not in path[len(package):]):
            continue
        for name, (first, last) in public_definitions(tree).items():
            if not any(ref == name and not (other == path and first <= line <= last)
                       for other, found in refs.items() for ref, line in found):
                unused.append(f"{Path(path).stem}.{name}")
    return sorted(unused)


def test_the_checker_sees_a_name_only_its_definition_uses():
    sources = {
        "src/emodeid/a.py": (
            "import click\nLIMIT = 3\n_PRIVATE = 1\n\n"
            "def used():\n    return LIMIT\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
            "def traced():\n    pass\n\n"
            "@cli.command('go')\ndef cmd_go():\n    pass\n\n"
            "class Unused:\n    pass\n\nTEXT = 'used'\n"
        ),
        "scripts/s.py": "from emodeid.a import used\nused()\nprint('recursive', 'a.TEXT')\n",
        "perfbench/t.py": "TARGETS = [('a', 'traced')]\n",
    }
    assert names_only_tests_use(sources) == ["a.TEXT", "a.Unused", "a.recursive"]


def test_no_public_name_only_tests_use():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    assert set(names_only_tests_use(sources)) == ALLOWED
