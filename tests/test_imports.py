"""A cold process loads only what it runs, and a module imports only
what it uses.

scipy backs exactly one computation, the min-area retiming LP, so it is
imported inside :func:`repro.retime.min_area.min_area_retiming`; the
SAT engine loads when a verdict first asks for it; networkx is a test
oracle only.  Each case runs in a fresh interpreter, because this
suite's own process has long since imported all of them.

No linter runs over ``src/repro``, so an AST scan stands in for one on
the single rule that keeps import lists honest: every module-level
imported name is used by its module.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Modules no process may load unless it asked for what they provide.
HEAVY = ("scipy", "networkx", "repro.sat")

SERVE_START_STOP = """
import asyncio
from repro.serve.server import ReproServer

async def main():
    server = ReproServer(host="127.0.0.1", port=0)
    await server.start()
    await server.shutdown()

asyncio.run(main())
"""

MIN_AREA = """
from repro.bench.iscas import load
from repro.retime.graph import build_retiming_graph
from repro.retime.min_area import min_area_retiming

min_area_retiming(build_retiming_graph(load("s27")))
"""


def _loaded_after(code: str) -> dict:
    """Which of :data:`HEAVY` a fresh interpreter holds after *code*."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps({name: name in sys.modules for name in %r}))\n" % (HEAVY,)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.cli",
        SERVE_START_STOP,
        "from repro.cli import main\nmain(['paper'])",
    ],
    ids=["import-repro", "import-repro-cli", "serve-start-shutdown", "repro-paper"],
)
def test_cold_process_loads_no_heavy_module(code):
    loaded = _loaded_after(code)
    assert not any(loaded.values()), "loaded: %r" % loaded


def test_min_area_retiming_loads_scipy_itself():
    assert _loaded_after(MIN_AREA)["scipy"]


# ---------------------------------------------------------------------------
# No unused imports.
# ---------------------------------------------------------------------------


def _annotation_names(tree: ast.AST):
    """Names inside string annotations (``-> "Circuit"``), which the AST
    keeps as constants rather than as name nodes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            annotations = [arg.annotation for arg in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for leaf in ast.walk(annotation):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    parsed = ast.walk(ast.parse(leaf.value, mode="eval"))
                    yield from (n.id for n in parsed if isinstance(n, ast.Name))


def _unused_in(source: str):
    """``(line, name)`` for each module-level imported name that
    *source* never uses; a name listed in ``__all__`` is exported, so it
    counts as used."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        # ``if TYPE_CHECKING:`` blocks import at module level too.
        for stmt in node.body if isinstance(node, ast.If) else [node]:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = stmt.lineno
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                for alias in stmt.names:
                    imported[alias.asname or alias.name] = stmt.lineno
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_no_module_imports_a_name_it_never_uses():
    """``__init__.py`` files re-export by design, so they are exempt."""
    package = ROOT / "src" / "repro"
    unused = [
        (path.relative_to(package).as_posix(), line, name)
        for path in sorted(package.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_in(path.read_text())
    ]
    assert unused == [], "unused imports: %r" % unused


def test_the_unused_import_scan_sees_what_it_should():
    """A name used in code or in a string annotation is used, a name in
    ``__all__`` is exempt, and anything else imported is reported."""
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from .circuit import Circuit\n"
        "__all__ = ['Dict']\n"
        "def f(x: 'Optional[int]') -> 'Circuit':\n"
        "    return x\n"
    )
    assert _unused_in(source) == [(2, "os"), (3, "List")]
