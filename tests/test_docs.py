"""The documentation is executable — and stays that way.

Every markdown file with ``>>>`` prompts doubles as a doctest (CI also
runs ``pytest --doctest-glob='*.md' README.md docs``); this module pins
the same contract inside the tier-1 suite, plus the cross-links the
docs promise each other.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import pathlib
import re
import shlex

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DOCTESTED = [
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/CLI.md",
    "docs/OBSERVABILITY.md",
    "docs/SERVICE.md",
    "docs/TESTING.md",
]


@pytest.mark.parametrize("relpath", DOCTESTED)
def test_markdown_doctests_pass(relpath):
    failures, tested = doctest.testfile(
        str(ROOT / relpath), module_relative=False, verbose=False
    )
    assert tested > 0, "%s lost its executable snippets" % relpath
    assert failures == 0


def test_theory_md_has_no_broken_doctests():
    # THEORY.md is prose; if snippets are ever added they must pass.
    failures, _ = doctest.testfile(
        str(ROOT / "docs" / "THEORY.md"), module_relative=False, verbose=False
    )
    assert failures == 0


def test_readme_links_the_docs():
    readme = (ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/CLI.md" in readme
    assert "docs/SERVICE.md" in readme


def test_service_manual_cross_links():
    service = (ROOT / "docs" / "SERVICE.md").read_text()
    assert "ARCHITECTURE.md" in service and "CLI.md" in service
    cli = (ROOT / "docs" / "CLI.md").read_text()
    assert "SERVICE.md" in cli, "CLI.md lost its pointer to the service manual"


def test_design_links_architecture():
    assert "docs/ARCHITECTURE.md" in (ROOT / "DESIGN.md").read_text()


def test_theory_maps_experiments_to_artefacts():
    theory = (ROOT / "docs" / "THEORY.md").read_text()
    assert "Performance model" in theory
    for artefact in (
        "results/table1.txt",
        "results/exact_simulator.txt",
        "parallel_speedup.txt",
        "compiled_core_speedup.txt",
    ):
        assert artefact in theory, "THEORY.md no longer maps %s" % artefact


#: The prose docs whose backticked ``repro.…`` names must resolve.
NAMING_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")
)


def _resolve(dotted):
    """Import the longest module prefix of *dotted*, then look the rest
    up as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj


@pytest.mark.parametrize("relpath", NAMING_DOCS)
def test_backticked_repro_names_resolve(relpath):
    text = (ROOT / relpath).read_text()
    dangling = []
    for dotted in sorted(set(re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)", text))):
        try:
            _resolve(dotted)
        except AttributeError:
            dangling.append(dotted)
    assert dangling == [], "%s names what does not exist" % relpath


def test_cli_docstring_mentions_reference():
    import repro.cli

    assert "docs/CLI.md" in repro.cli.__doc__
    assert "--engine" in repro.cli.__doc__


#: Calls that open a named span: the context manager, the decorator and
#: the isolated ``obs.timed`` block.
SPAN_CALLS = {"span", "_span", "traced", "_traced", "timed"}


def _source_span_names():
    """Every span name the library passes to a span call, with ``%s``
    standing for a formatted-in label."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called not in SPAN_CALLS:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod):
                arg = arg.left  # "serve.%s" % op
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
    return names


def _documented_span_names():
    """The span names in OBSERVABILITY.md's span table; a placeholder
    such as the ``<op>`` of ``serve.<op>`` stands for ``%s``."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    table = text.split("| Span | Where | Meaning |", 1)[1].split("\n\n", 1)[0]
    names = set()
    for row in table.splitlines()[2:]:
        for token in re.findall(r"`([^`]+)`", row.split("|")[1]):
            names.add(re.sub(r"<[^>]+>", "%s", token))
    return names


def test_observability_span_table_matches_the_source():
    source = _source_span_names()
    assert "stg.symbolic.compile" in source and "serve.%s" in source
    documented = _documented_span_names()
    assert sorted(source - documented) == [], "spans missing from the table"
    assert sorted(documented - source) == [], "table lists spans the code never opens"


def _cli_access_commands():
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("## CLI access", 1)[1]
    return [
        shlex.split(line.split("#", 1)[0])[3:]
        for line in section.splitlines()
        if line.startswith("    python -m repro ")
    ]


def test_observability_cli_examples_run(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    from repro.obs import RunReport

    commands = _cli_access_commands()
    assert [argv[0] for argv in commands] == ["--trace", "--report"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert "RunReport" in capsys.readouterr().err
    report = RunReport.from_json((tmp_path / "run.json").read_text())
    assert report.meta["command"] == "paper"
