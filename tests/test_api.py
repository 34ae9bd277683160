"""The public library surface and the package's import hygiene."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arccover

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arccover"

# the names the README's Library section documents, in its order
LIBRARY = [
    "JobSpec", "run_job", "run_suite", "Certificate",
    "ArccoverError", "ValidationError", "CapacityExceeded",
    "Permutation", "parse_cycles", "resolve_group",
    "closure", "group_order", "StabilizerChain",
    "CoverJob", "WreathContext", "build_cover_group",
    "build_coset_graph", "quotient_graph",
]


def test_all_is_the_documented_library():
    assert sorted(arccover.__all__) == sorted(["__version__", *LIBRARY])
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*?):", section, flags=re.M)
    assert [name for b in bullets for name in re.findall(r"`(\w+)`", b)] == LIBRARY


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from arccover import *", namespace)
    for name in arccover.__all__:
        assert namespace[name] is getattr(arccover, name)


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names used inside string annotations such as Optional["TableGroup"]."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, as "file:line name"."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree) | _exported_names(tree)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports_in_the_package():
    unused = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unused_imports(path)]
    assert unused == []


def test_package_holds_no_object_arrays():
    """T's entries are integer ids in both formats (`PermGroup.entries`): no
    object array or per-element ufunc is left in the package."""
    hits = [
        f"{path.name}:{line} {needle}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), start=1)
        for needle in ("dtype=object", "frompyfunc", "== object")
        if needle in text
    ]
    assert hits == []


def test_unused_import_detector_flags_a_dead_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Mentions json and path in a docstring."""\n'
        "import json\nimport math\nfrom os import path, sep\nfrom typing import Optional\n"
        "__all__ = ['sep']\n"
        "def f(a: Optional['Decimal']) -> 'Optional[int]':\n    return math.pi\n"
    )
    assert _unused_imports(module) == ["mod.py:2 json", "mod.py:4 path"]


def test_cli_import_pulls_in_no_graph_library():
    """scipy and networkx are installed but unused: importing either would add
    its start-up time to every `arccover` process."""
    code = (
        "import sys, arccover.cli; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_quotient_run_leaves_numpy_ma_unimported(tmp_path):
    """A plain `np.unique` imports `numpy.ma` in numpy 2; no stage of a
    `quotient` run needs it."""
    code = (
        "import contextlib, io, sys\n"
        "from arccover.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['quotient', '--n', '4', '--group', 'A5', '--x', '(1,2)(3,4)',\n"
        "                 '--y', '(1,2,3,4,5)', '--out', sys.argv[1]])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("verb, n, group, y", [
    ("construct", 7, "A5", "(1,2,3,4,5)"),
    ("decompose", 7, "A5", "(1,2,3,4,5)"),
    ("decompose", 4, "A7", "(1,2,3,4,5,6,7)"),
], ids=["construct-A5-n7", "decompose-A5-n7", "decompose-A7-n4-pool"])
def test_runs_without_a_graph_leave_cosetgraph_unimported(verb, n, group, y):
    """Only the graph stages import `cosetgraph` (the package resolves
    `build_coset_graph` and `quotient_graph` on first use), and, as in a
    `quotient` run, no stage needs `numpy.ma`, with a table or on a pool.
    Nor does a job load `decimal` (its numbers are written by str) or the
    suites (`arccover.suite`, loaded by the `suite` verb alone)."""
    code = (
        "import contextlib, io, sys\n"
        "from arccover.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{verb!r}, '--n', '{n}', '--group', {group!r}, '--x', '(1,2)(3,4)',\n"
        f"                 '--y', {y!r}])\n"
        "print(code, *(m in sys.modules for m in\n"
        "              ('arccover.cosetgraph', 'numpy.ma', 'decimal', 'arccover.suite')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["0", "False", "False", "False", "False"]
    assert arccover.quotient_graph.__module__ == "arccover.cosetgraph"


def test_run_suite_resolves_to_the_suite_module():
    import arccover.suite

    assert arccover.run_suite is arccover.suite.run_suite
