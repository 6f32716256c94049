"""Tests of the benchmark's own code: generator, oracle, verifier and tracer.

Not part of the package's test suite; run from the repository root with

    PYTHONPATH=src python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import tracing
import verify
import workloads
from choicetrust import cli_io, pattern_runs, trust_scoring

# Same shapes as the benchmark's, scaled down so each report takes well under a second.
SMALL = {
    "many-small": {"reviewers": 60},
    "few-large": {"objects": 24, "pool": 24},
    "three-period-churn": {"reviewers": 12},
}


@pytest.fixture(params=sorted(SMALL))
def case(request, monkeypatch, tmp_path):
    name = request.param
    monkeypatch.setitem(workloads.SHAPES, name, dataclasses.replace(workloads.SHAPES[name], **SMALL[name]))
    return workloads.generate(name, 7, tmp_path)


def _score(case: workloads.Case, tmp_path: Path) -> tuple[str, int]:
    out = tmp_path / "report"
    code = cli_io.main(run.score_argv(case, out))
    return out.read_text(encoding="utf-8"), code


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    files = []
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / sub).mkdir()
        case = workloads.generate(name, seed, tmp_path / sub)
        files.append((case.episodes_path.read_bytes(), case.reviews_path.read_bytes()))
    assert files[0] == files[1]
    assert files[0] != files[2]


def test_bar_frequency_matches_enumeration():
    for a in range(2, 9):
        for b in range(2, 9):
            counts = Counter(s2 - s1 for s1 in range(a) for s2 in range(b))
            for d in range(1 - a, b):
                assert verify.bar_frequency(a, b, d) == counts[d]


def test_verifier_passes_program_reports(case, tmp_path):
    text, code = _score(case, tmp_path)
    assert verify.Verifier(case).check(text, code) == []


def test_verifier_rejects_wrong_exit_code(case, tmp_path):
    text, code = _score(case, tmp_path)
    assert verify.Verifier(case).check(text, code + 1)


def _corrupt(case: workloads.Case, text: str, field: str, value: str) -> str:
    """Change `field` of the first assessment to `value` in a json or csv report."""
    if case.fmt == "json":
        doc = json.loads(text)
        doc["reviewers"][0]["assessments"][0][field] = value
        return json.dumps(doc)
    lines = text.splitlines()
    header = lines[0].split(",")
    row = next(i for i, line in enumerate(lines) if line.startswith("assessment,"))
    cells = lines[row].split(",")
    cells[header.index(field)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_verifier_rejects_one_corrupted_run_pattern(case, tmp_path):
    text, code = _score(case, tmp_path)
    first = case.reviewers[0]
    pattern = verify.expected_section(first).assessments[0].pattern
    wrong = pattern.replace("ε", "9", 1) if "ε" in pattern else "{" + "ε," * (len(first.periods) - 1) + "ε}"
    problems = verify.Verifier(case).check(_corrupt(case, text, "pattern", wrong), code)
    assert any("run pattern" in p for p in problems)


def test_verifier_rejects_a_wrong_degree(case, tmp_path):
    if len(case.reviewers[0].periods) != 2:
        pytest.skip("degrees exist for two periods only")
    text, code = _score(case, tmp_path)
    degree = verify.expected_section(case.reviewers[0]).assessments[0].degree
    wrong = "0.50000000" if degree != "0.50000000" else "0.25000000"
    problems = verify.Verifier(case).check(_corrupt(case, text, "degree", wrong), code)
    assert any("degree" in p for p in problems)


def test_tracer_reports_every_layer_and_restores_the_program(case, tmp_path):
    modules = {"cli_io": cli_io, "trust_scoring": trust_scoring, "pattern_runs": pattern_runs}
    before = {(owner, attr): getattr(tracing.resolve(modules, owner), attr)
              for owner, attr, _, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    with tracer.installed(modules, "test"):
        text, code = _score(case, tmp_path)
    metrics = tracer.metrics()
    assert verify.Verifier(case).check(text, code) == []
    assert metrics["trust_scoring.assessments"] == case.assessments
    assert metrics["pattern_runs.omega.calls"] == case.assessments
    two_period = case.workload != "three-period-churn"
    assert (metrics["rationality_outcomes.bin_table.calls"] > 0) == two_period
    assert all(metrics[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)
    assert {span[0] for span in tracer.spans} == {"test"}
    after = {(owner, attr): getattr(tracing.resolve(modules, owner), attr)
             for owner, attr, _, _ in tracing.WRAPPED}
    assert after == before


def _benchmark_json() -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_generated_workloads():
    listed = {w["name"]: w["why"] for w in _benchmark_json()["workloads"]}
    assert listed == {name: shape.why for name, shape in workloads.SHAPES.items()}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_listed_metrics(trace, section, monkeypatch, tmp_path):
    name = "many-small"
    monkeypatch.setitem(workloads.SHAPES, name, dataclasses.replace(workloads.SHAPES[name], **SMALL[name]))
    monkeypatch.setattr(run, "ROOT", tmp_path)  # where the traced mode writes its spans
    case = workloads.generate(name, 5, tmp_path)
    result = (run.traced if trace else run.end_to_end)(case, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "few-large", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
