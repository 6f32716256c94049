"""The command line as a separate process runs it: the console script's entry, `python -m`, and other Python versions.

Each check starts child interpreters from `helpers.child_env()`, so none of
them writes bytecode beside the sources.
"""

import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from helpers import child_env

FIXTURES = Path(__file__).parent / "fixtures"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
FORMATS = ("json", "csv", "text")

# The CI workflow's "console script" loop: each line's expected exit code, then its command line, with fixture
# names standing for their paths.
CONSOLE_LINES = (
    "0 score episodes_canonical.jsonl reviews_canonical.json",
    "0 score episodes_churn.jsonl reviews_churn.json",
    "2 score episodes_invalid.jsonl reviews_canonical.json",
    "2 score episodes_wire_edge.jsonl reviews_wire_edge.json",
    "2 score episodes_blank_lines.jsonl reviews_canonical.json",
    "2 score episodes_lone_cr.jsonl reviews_canonical.json",
    "2 score episodes_not_utf8.jsonl reviews_canonical.json",
    "0 score --p=0.3 --d0-zone=irrational episodes_canonical.jsonl reviews_canonical.json",
    "0 score --memb smoothed episodes_canonical.jsonl reviews_canonical.json",
    "2 score episodes_canonical.jsonl",
    "0 tau 4 2",
    "0 info-index ifs_list.json",
    "0 check choice_table_violating.json",
)
# How the installed `choicetrust` script runs: it imports `entry` and calls it, with the command line in sys.argv.
_AS_SCRIPT = ("-c", "from choicetrust.cli_io import entry; entry()")
_AS_MODULE = ("-m", "choicetrust.cli_io")


def _argv(command: str) -> list[str]:
    """A command line's words, each naming a fixture made its path, as the workflow's loop does."""
    return [str(FIXTURES / word) if (FIXTURES / word).is_file() else word for word in command.split()]


def _run(python: str, how: tuple[str, ...], argv: list[str], cwd: Path) -> tuple[int, str, str]:
    child = subprocess.run(
        [python, *how, *argv], capture_output=True, text=True, env=child_env(), cwd=cwd, timeout=120
    )
    return child.returncode, child.stdout, child.stderr


def _run_all(runs: list[tuple[str, tuple[str, ...], list[str]]], cwd: Path) -> list[tuple[int, str, str]]:
    """`_run` over each (interpreter, how, argv), at most four children at a time."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(lambda run: _run(*run, cwd), runs))


def test_the_workflow_runs_the_same_console_lines():
    if not WORKFLOW.is_file():
        pytest.skip("no CI workflow beside the tests")
    loop = re.search(r"for run in (.*?); do", WORKFLOW.read_text(encoding="utf-8"), re.S)
    assert loop is not None
    assert tuple(re.findall(r'"([^"]*)"', loop[1])) == CONSOLE_LINES


def test_the_console_entry_and_python_m_give_the_same_bytes_and_exit_code(tmp_path):
    cases = [(line, fmt) for line in CONSOLE_LINES for fmt in FORMATS]
    runs = [
        (sys.executable, how, [*_argv(line.partition(" ")[2]), "--format", fmt])
        for line, fmt in cases
        for how in (_AS_SCRIPT, _AS_MODULE)
    ]
    results = _run_all(runs, tmp_path)
    for k, (line, fmt) in enumerate(cases):
        script, module = results[2 * k], results[2 * k + 1]
        assert script == module, (line, fmt)
        assert script[0] == int(line.partition(" ")[0]), (line, fmt, script[2])


def _other_interpreters() -> list[str]:
    """Each of python3.10 ... python3.13 on PATH that runs under `child_env()` and is not this version."""
    found = []
    for version in ("3.10", "3.11", "3.12", "3.13"):
        if (path := shutil.which(f"python{version}")) is None:
            continue
        # A pyenv shim needs the caller's environment to find its interpreter, so ask it for the interpreter first.
        probe = subprocess.run(
            [path, "-c", "import sys; print(sys.executable); print(sys.version_info[:2])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if probe.returncode != 0 or len(lines := probe.stdout.splitlines()) != 2:
            continue
        executable, version_info = lines
        if version_info == str(sys.version_info[:2]) or executable in found:
            continue
        if subprocess.run([executable, "-c", "pass"], env=child_env(), timeout=60).returncode == 0:
            found.append(executable)
    return found


_SCORE_FIXTURES = (
    ("episodes_canonical.jsonl", "reviews_canonical.json"),
    ("episodes_churn.jsonl", "reviews_churn.json"),
    ("episodes_wire_edge.jsonl", "reviews_wire_edge.json"),
)


def test_score_gives_the_same_bytes_under_every_other_python_version(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10-3.13 interpreter runs here")
    lines = [
        ["score", str(FIXTURES / episodes), str(FIXTURES / reviews), "--format", fmt]
        for episodes, reviews in _SCORE_FIXTURES
        for fmt in FORMATS
    ]
    pythons = [sys.executable, *others]
    results = _run_all([(python, _AS_MODULE, argv) for python in pythons for argv in lines], tmp_path)
    expected = results[: len(lines)]
    for k, python in enumerate(others, start=1):
        assert results[k * len(lines): (k + 1) * len(lines)] == expected, python
