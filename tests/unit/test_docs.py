"""Docs anti-rot tests: the CLI reference must cover every argparse
subcommand and flag, relative markdown links must resolve, the
tutorial's sample output must match what ``repro list`` actually prints,
and the fault-kind tutorial's code and the quickstart example must run.
"""

import argparse
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"

EXPECTED_PAGES = ("architecture.md", "cli.md", "fault-model.md", "adding-a-system.md")


def _subcommands():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("repro parser has no subcommands")


def test_docs_tree_exists_and_is_linked_from_readme():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for page in EXPECTED_PAGES:
        assert (DOCS / page).is_file(), page
    # Every docs page — expected or later-added — must be discoverable.
    for page in sorted(DOCS.glob("*.md")):
        assert "docs/%s" % page.name in readme, "README does not link docs/%s" % page.name


def test_cli_doc_covers_every_subcommand_and_flag():
    text = (DOCS / "cli.md").read_text(encoding="utf-8")
    subcommands = _subcommands()
    assert subcommands, "no subcommands to document?"
    for name, sub in subcommands.items():
        assert "repro %s" % name in text, "docs/cli.md misses subcommand %r" % name
        for action in sub._actions:
            if action.help == argparse.SUPPRESS:
                continue  # hidden legacy aliases stay undocumented
            for opt in action.option_strings:
                if opt in ("-h", "--help") or not opt.startswith("--"):
                    continue
                assert opt in text, "docs/cli.md misses %s of 'repro %s'" % (opt, name)


def test_every_option_has_help_text():
    for name, sub in _subcommands().items():
        for action in sub._actions:
            if action.option_strings:
                assert action.help, "'repro %s' %s has no help" % (name, action.option_strings[-1])


def test_cli_doc_names_no_flag_that_does_not_exist():
    """The reverse of the coverage check: a removed flag must not linger."""
    known = {opt for sub in _subcommands().values() for a in sub._actions for opt in a.option_strings}
    text = (DOCS / "cli.md").read_text(encoding="utf-8")
    for opt in sorted(set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", text))):
        assert opt in known, "docs/cli.md mentions %s, which no subcommand takes" % opt


def _markdown_files():
    return [REPO / "README.md", REPO / "DESIGN.md"] + sorted(DOCS.glob("*.md"))


LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def test_relative_markdown_links_resolve():
    for md in _markdown_files():
        for target in LINK_RE.findall(md.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            assert (md.parent / path).exists(), "%s links to missing %s" % (
                md.relative_to(REPO),
                target,
            )


TEST_PATH_RE = re.compile(
    r"(?<![\w/.-])(?:tests|benchmarks|examples|src)/[\w/.-]*?\.(?:py|json)\b"
)


def test_every_named_test_file_exists():
    """A script, fixture or module the docs name under ``tests/``,
    ``benchmarks/``, ``examples/`` or ``src/`` (a command to run, a golden
    to read) must still be there under that name."""
    for md in _markdown_files():
        for path in sorted(set(TEST_PATH_RE.findall(md.read_text(encoding="utf-8")))):
            assert (REPO / path).is_file(), "%s names missing %s" % (md.relative_to(REPO), path)


#: Names DESIGN.md cites that belong to other code: the standard library,
#: the Python data model and the Java systems the paper studies.
FOREIGN_NAMES = {"ThreadPoolExecutor", "__lt__", "hasNext"}

#: A backticked dotted name, optionally called: `Pipeline.run()`.
CODE_NAME_RE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?`")


def test_every_code_name_in_design_exists():
    """A name DESIGN.md cites in backticks that has an underscore or an
    inner capital (a function, class, constant or field, not an English
    word) is named somewhere under ``src/``, ``tests/`` or ``benchmarks/``."""
    text = re.sub(r"```.*?```", "", (REPO / "DESIGN.md").read_text(encoding="utf-8"), flags=re.S)
    cited = {
        part
        for name in CODE_NAME_RE.findall(text)
        for part in name.split(".")
        if "_" in part or re.search(r"(?<=.)[A-Z]", part)
    }
    defined = set()
    for top in ("src", "tests", "benchmarks"):
        for path in (REPO / top).rglob("*"):
            if path.suffix in (".py", ".json"):
                defined.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    missing = sorted(cited - defined - FOREIGN_NAMES)
    assert not missing, "DESIGN.md cites names no code has: %s" % ", ".join(missing)


def test_tutorial_list_output_matches_reality(capsys):
    """docs/cli.md and docs/adding-a-system.md embed ``repro list`` output;
    it must match what the command actually prints."""
    assert main(["list"]) == 0
    actual = capsys.readouterr().out.splitlines()
    cli_doc = (DOCS / "cli.md").read_text(encoding="utf-8")
    tutorial = (DOCS / "adding-a-system.md").read_text(encoding="utf-8")
    assert actual, "repro list printed nothing"
    for line in actual:
        assert line.rstrip() in cli_doc, "docs/cli.md list sample is stale: %r" % line
    raft_line = next(line for line in actual if line.startswith("miniraft"))
    assert raft_line.rstrip() in tutorial, "adding-a-system.md miniraft sample is stale"


#: Plans the tutorial's kind, arms it on miniraft and checks the one firing.
_TUTORIAL_DRIVE = textwrap.dedent(
    """
    from repro.config import CSnakeConfig
    from repro.core.driver import run_workload, seed_for
    from repro.faults import model_for
    from repro.systems import get_system
    from repro.types import FaultKey

    spec = get_system("miniraft")
    fault = FaultKey("env.node.raft1", "clock_skew")
    plans = model_for("clock_skew").plans_for(fault, CSnakeConfig(), spec.registry)
    assert [p.param("skew_ms") for p in plans] == [2000.0, 10000.0], plans
    trace = run_workload(
        spec, spec.workloads["raft.steady"], plans[0], seed_for("raft.steady", 0, 7)
    )
    injected = [e for e in trace.events if e.injected]
    assert len(injected) == 1 and injected[0].fault == fault, trace.events
    print("ok")
    """
)


def test_fault_kind_tutorial_runs():
    """docs/fault-model.md's "Adding a fault kind" block registers, plans
    and arms as written (in a subprocess: registering shifts the fault-model
    digest of the process that does it)."""
    text = (DOCS / "fault-model.md").read_text(encoding="utf-8")
    section = text[text.index("## Adding a fault kind"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", block + _TUTORIAL_DRIVE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr


def test_quickstart_example_runs():
    """examples/quickstart.py runs the stages by hand and detects both
    seeded toy bugs."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "examples" / "quickstart.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "[DETECTED] TOY-1" in done.stdout and "[DETECTED] TOY-2" in done.stdout, done.stdout
