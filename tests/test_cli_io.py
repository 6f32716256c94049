import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import choicetrust
from choicetrust import ChoiceEpisode, DomainError, IfsElement, IfsList, Polarity, Review, cli_io, iter_tau
from choicetrust.cli_io import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    FORMATS,
    ParseError,
    cmd_check,
    cmd_info_index,
    cmd_score,
    cmd_tau,
    load_choice_table,
    load_episodes,
    load_ifs_list,
    load_reviews,
    main,
    tau_rows,
)

FIXTURES = Path(__file__).parent / "fixtures"
EPISODES = "episodes_canonical.jsonl"
REVIEWS = "reviews_canonical.json"


def test_episode_roundtrip(fixtures_dir):
    episodes, problems = load_episodes(fixtures_dir / EPISODES)
    assert problems == []
    assert episodes == [
        ChoiceEpisode("rev-1", 1, ("M", "N", "V", "Z"), ("M", "N", "V"), ("M", "N"), ("M",)),
        ChoiceEpisode("rev-1", 2, ("M", "N", "V", "Z"), ("Z", "V", "N"), ("Z", "V"), ("Z",)),
    ]


def test_reviews_roundtrip(fixtures_dir):
    reviews, problems = load_reviews(fixtures_dir / REVIEWS)
    assert problems == []
    assert reviews == [
        Review("rev-1", "M", 1, Polarity.NEGATIVE, "Bad product"),
        Review("rev-1", "N", 2, Polarity.NEGATIVE, "Not so good product"),
        Review("rev-1", "V", 3, Polarity.POSITIVE, "Relatively good product"),
        Review("rev-1", "Z", 5, Polarity.POSITIVE, "Premium product"),
    ]


def test_ifs_roundtrip(fixtures_dir):
    assert load_ifs_list(fixtures_dir / "ifs_list.json") == IfsList(
        (IfsElement("a", 0.5, 0.5), IfsElement("b", 0.9, 0.1))
    )


def test_choice_table_roundtrip(fixtures_dir):
    table = load_choice_table(fixtures_dir / "choice_table_chain.json")
    assert table.ground_set == ("M", "N", "V", "Z")
    chosen = {
        "M": "M", "N": "N", "V": "V", "Z": "Z",
        "MN": "M", "MV": "M", "MZ": "M", "NV": "N", "NZ": "N", "VZ": "V",
        "MNV": "M", "MNZ": "M", "MVZ": "M", "NVZ": "N", "MNVZ": "M",
    }
    assert table.choices == {frozenset(ids): choice for ids, choice in chosen.items()}


def test_episode_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"reviewer_id": "r", "period": 1, "catalog": ["M"], "wishlist": ["M"], "cart": ["M"], "final": ["M"]}\n'
        '{"reviewer_id": "r", "period": 2, "catalog": ["M"]}\n',
        encoding="utf-8",
    )
    episodes, problems = load_episodes(path)
    assert len(episodes) == 1
    assert len(problems) == 1 and ":2:" in problems[0] and "wishlist" in problems[0]


def test_episode_problems_name_their_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {"reviewer_id": "r", "period": 0, "catalog": ["M"], "wishlist": ["M"], "cart": ["M"], "final": ["M"]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert load_episodes(path) == ([], [f"{path}:1: period must be a positive integer, got 0"])


def test_load_episodes_splits_lines_at_newlines_only(fixtures_dir, tmp_path):
    # U+2028 is a line boundary to str.splitlines() but may stand raw inside a JSON string
    # (here a field the reader ignores: ids may not hold it).
    lines = (fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["note"] = "rev\u20281"
    path = tmp_path / "episodes.jsonl"
    text = json.dumps(first, ensure_ascii=False) + "\n" + lines[1] + "\nnot json\n"
    path.write_text(text, encoding="utf-8")
    episodes, problems = load_episodes(path)
    assert [e.period for e in episodes] == [1, 2]
    assert problems == [f"{path}:3: invalid JSON (Expecting value)"]


def test_score_reports_an_overlong_integer_at_its_line(fixtures_dir, tmp_path):
    path = tmp_path / "episodes.jsonl"
    path.write_text(
        (fixtures_dir / EPISODES).read_text(encoding="utf-8") + '{"period": ' + "1" * 5000 + "}\n",
        encoding="utf-8",
    )
    output, code = cmd_score(path, fixtures_dir / REVIEWS)
    assert code == EXIT_PARTIAL
    assert [e["message"] for e in json.loads(output)["errors"]] == [
        f"{path}:3: invalid JSON (integer literal too long)"
    ]


@pytest.mark.parametrize("document", ["reviews", "graded list", "choice table"])
def test_main_rejects_deeply_nested_json_in_one_line(fixtures_dir, tmp_path, capsys, document):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    argv = {
        "reviews": ["score", str(fixtures_dir / EPISODES), str(deep)],
        "graded list": ["info-index", str(deep)],
        "choice table": ["check", str(deep)],
    }[document]
    assert main(argv) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {deep}: invalid JSON (nested too deeply)\n"


def test_score_keeps_scoring_past_a_deeply_nested_episode_line(fixtures_dir, tmp_path):
    path = tmp_path / "episodes.jsonl"
    path.write_text((fixtures_dir / EPISODES).read_text(encoding="utf-8") + "[" * 200_000 + "\n", encoding="utf-8")
    output, code = cmd_score(path, fixtures_dir / REVIEWS)
    assert code == EXIT_PARTIAL
    assert [e["message"] for e in json.loads(output)["errors"]] == [
        f"{path}:3: invalid JSON (nested too deeply)"
    ]


def test_a_byte_order_mark_is_invalid_json(fixtures_dir, tmp_path):
    path = tmp_path / "episodes.jsonl"
    path.write_text("\ufeff" + (fixtures_dir / EPISODES).read_text(encoding="utf-8"), encoding="utf-8")
    episodes, problems = load_episodes(path)
    assert [e.period for e in episodes] == [2]
    assert problems == [f"{path}:1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"]


def test_score_reports_an_episode_line_with_a_repeated_key(fixtures_dir, tmp_path):
    first, second = (fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines()
    path = tmp_path / "episodes.jsonl"
    path.write_text(first + "\n" + second[:-1] + ', "period": 1}\n', encoding="utf-8")
    output, code = cmd_score(path, fixtures_dir / REVIEWS)
    assert code == EXIT_PARTIAL
    doc = json.loads(output)
    assert [e["message"] for e in doc["errors"]] == [f"{path}:2: invalid JSON (repeated key 'period')"]
    assert doc["reviewers"][0]["periods"] == [1]


@pytest.mark.parametrize(
    "document, text, key",
    [
        ("reviews", '[{"reviewer_id": "rev-1", "object": "M", "rating": 1,\n  "rating": 5}]', "rating"),
        ("graded list", '[{"id": "a", "mu": 0.2, "nu": 0.1, "id": "b"}]', "id"),
        ("choice table", '{"ground_set": ["a"], "choices": [], "ground_set": ["a"]}', "ground_set"),
    ],
    ids=["reviews", "graded list", "choice table"],
)
def test_main_refuses_a_document_with_a_repeated_key(fixtures_dir, tmp_path, capsys, document, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    argv = {
        "reviews": ["score", str(fixtures_dir / EPISODES), str(path)],
        "graded list": ["info-index", str(path)],
        "choice table": ["check", str(path)],
    }[document]
    assert main(argv) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {path}: invalid JSON (repeated key {key!r})\n"


def test_cmd_score_canonical(fixtures_dir):
    output, code = cmd_score(fixtures_dir / EPISODES, fixtures_dir / REVIEWS, fmt="json")
    assert code == EXIT_OK
    doc = json.loads(output)
    assert doc["tool"].startswith("choicetrust ")
    section = doc["reviewers"][0]
    degrees = {a["object"]: a["degree"] for a in section["assessments"]}
    assert degrees == {
        "M": "0.00000000",
        "N": "0.66666667",
        "V": "0.66666667",
        "Z": "0.00000000",
    }
    assert section["overall_rationality"]["realized_rational_count"] == 2


def test_cmd_score_empty_episode_file(tmp_path, fixtures_dir):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        cmd_score(empty, fixtures_dir / REVIEWS)


def test_cmd_score_unknown_object_flagged(tmp_path, fixtures_dir):
    reviews = json.loads((fixtures_dir / REVIEWS).read_text())
    reviews.append({"reviewer_id": "rev-1", "object": "QQ", "rating": 4})
    path = tmp_path / "reviews.json"
    path.write_text(json.dumps(reviews), encoding="utf-8")
    output, code = cmd_score(fixtures_dir / EPISODES, path, fmt="json")
    assert code == EXIT_PARTIAL
    doc = json.loads(output)
    assert doc["flagged_reviews"][0]["object"] == "QQ"
    assert len(doc["reviewers"][0]["assessments"]) == 4


def test_cmd_score_formats_are_renderable(fixtures_dir):
    for fmt in ("json", "csv", "text"):
        output, code = cmd_score(fixtures_dir / EPISODES, fixtures_dir / REVIEWS, fmt=fmt)
        assert code == EXIT_OK and output


def test_cmd_score_partial_on_malformed_episode_line(tmp_path, fixtures_dir):
    good = (fixtures_dir / EPISODES).read_text()
    path = tmp_path / "episodes.jsonl"
    path.write_text(good + "this is not json\n", encoding="utf-8")
    output, code = cmd_score(path, fixtures_dir / REVIEWS, fmt="json")
    assert code == EXIT_PARTIAL
    doc = json.loads(output)
    assert len(doc["reviewers"]) == 1
    assert any(":3:" in e["message"] for e in doc["errors"])


def test_cmd_tau_listing_matches_frequencies():
    rows = list(tau_rows(4, 2))
    assert len(rows) == 16
    freq = {}
    for row in rows:
        freq[row["bar"]] = row["frequency"]
    assert freq == {"A": 3, "B": 2, "C": 1, "D": 4, "E": 3, "F": 2, "G": 1}


def test_cmd_tau_sizes():
    assert len(list(tau_rows(2, 1))) == 2
    assert len(list(tau_rows(3, 2))) == 9
    out = "".join(cmd_tau(3, 2, fmt="csv"))
    assert out.count("\n") == 10  # header + nine rows


def test_cmd_tau_rejects_bad_arguments():
    with pytest.raises(Exception):
        tau_rows(1, 2)
    with pytest.raises(Exception):
        tau_rows(4, 0)


# sha256 of each command's stdout, taken before the four commands shared one
# JSON and one CSV writer; the first four tau listings date from when tau read
# its bar columns from the enumerated bin_table and membership, and the rest
# from when tau built every row before writing any.
_E, _R = str(FIXTURES / EPISODES), str(FIXTURES / REVIEWS)
_IFS = str(FIXTURES / "ifs_list.json")
_CHAIN, _VIOLATING = str(FIXTURES / "choice_table_chain.json"), str(FIXTURES / "choice_table_violating.json")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["tau", "4", "2"], "e89527d3823d29192f8e921600a2245ae2aba43628f11b9e1b52520ee93ad869"),
        (["tau", "3", "3", "--format", "json"], "d92f55f846a557f092c396eec0cb37c21a02843d54bd356ee29eccf8ce696c31"),
        (
            ["tau", "6", "2", "--membership", "smoothed", "--format", "json"],
            "d1fb5ea235ceb8e362798c63db39b9ab674af8b199f2ddb62e97f014d762020c",
        ),
        (["tau", "4", "2", "--format", "csv"], "a086ede251002489b95c8528ec415faddc6dab5220920634044e5e09aa6c9a79"),
        (["score", _E, _R, "--format", "json"], "7060c1581479ad077f67bbfef5a2966e773565d5ec05e6f63eb726a62f9ce629"),
        (["score", _E, _R, "--format", "csv"], "10bdad39f4e4882f4078fa2a0a66ab5e210ca8fd8ffabf1286b3fccf95d0cde7"),
        (["score", _E, _R, "--format", "text"], "d3970a5c5ec0cf9464744ae9af0076d82049f515bae86ce1f69f2f9fb018cce2"),
        (
            ["score", _E, _R, "--membership", "smoothed", "--d0-zone", "irrational", "--p", "0.3", "--format", "csv"],
            "607709964524a8e952b8582fc6e3f1b941c3a0aab751e271474e6c59f7eb55f4",
        ),
        # Taken before score's reviewer sections were rendered from their records.
        (
            ["score", _E, _R, "--membership", "smoothed", "--d0-zone", "irrational", "--p", "0.3", "--format", "json"],
            "7e1baf819e14005d807c73952545293f1a69dc5300d0f28116340daba93caf95",
        ),
        (
            ["score", _E, _R, "--membership", "smoothed", "--d0-zone", "irrational", "--p", "0.3", "--format", "text"],
            "4fc2b32a69c0708c4d2ac46e40daa8b6e021e9cdb00b9dc8977f32b2c70d5015",
        ),
        (["info-index", _IFS, "--format", "json"], "519c5b665457c1fbd9779383353ff9bddcb76534da95889a9dd92e947d70d627"),
        (["info-index", _IFS, "--format", "csv"], "29508743df9248f56a74f92dfcc9ce25fc69a4129b785cf3e34ec720f2f48506"),
        (["info-index", _IFS, "--format", "text"], "a64ca00de86614fc21b634e1146538aaf850415e1f81dc131251c4062bc8a27e"),
        (["check", _CHAIN, "--format", "json"], "50361923f6d3d0b9623732e15198a092f3d1835fd846616f760af9ce639b3b98"),
        (["check", _CHAIN, "--format", "csv"], "5097ae5ddf9b69cdab9db810a11636487c0b68f62a844a2332f83533f0aa07d1"),
        (["check", _CHAIN, "--format", "text"], "7d3d63c2e50f6f6a1f09b17576fea8222ef3073b2c459eab1fb35a50ca5d5c3b"),
        (["check", _VIOLATING, "--format", "json"], "7a396d2960311d401277311f29faf8e5583dca3e8a6a373aea0e659c2da75906"),
        (["check", _VIOLATING, "--format", "csv"], "56c732ff11598777bbc50eaacda14556956c7378c884f0c36ebc36fac30e4e03"),
        (["check", _VIOLATING, "--format", "text"], "52f60b723c134f76ae9dc94db15571c36b908e06be5f38c2b375a27f7c05119a"),
        (["tau", "2", "1", "--format", "json"], "b8cc8787792a1dc559b5bbfb95ff742d5e1efe8493e5beb99652cf12974d6602"),
        (["tau", "2", "1", "--format", "csv"], "c534f35f26cccf6518f7ae2e4efade24420350d4b19072b28ec6a59b970b408a"),
        (["tau", "2", "1"], "4b6043ad329a81808eac76066bd6fc861dd9ca6768fc2c11b8754c440115ea15"),
        (["tau", "10", "2", "--format", "json"], "6ea364d421f2906407601805e587981a9b9539bfb6418ea1c796be830f290473"),
        (["tau", "10", "2", "--format", "csv"], "648edd6ac99be99b12091fc2603e6467497af6735a2e20d269c0ed24ad62e3a4"),
        (["tau", "10", "2"], "4878e5cd97c46e5f652201018df799e7c873e6a4e371ef026433f2b0f84346cc"),
        (["tau", "11", "2", "--format", "json"], "5acab5557e3fef4407728d69bf671a5ad6e32e1d484d40b260651f12699baf15"),
        (["tau", "11", "2", "--format", "csv"], "00ad68026a6eba6ea047f856d4fdfd62a06f76cab6fd5cef84d0c254b9253aef"),
        (["tau", "11", "2"], "20ac30614a043191a900274e5f5aa757d40d5a2fba14fa7b9ee4ca31f218e0a9"),
        (["tau", "40", "2", "--format", "json"], "54522709ded562edb0583814aa83a9bc9a114eef57a7b410b3781847c3e83796"),
        (["tau", "40", "2", "--format", "csv"], "91d7fad18e55689dd358da0e003d04ca6146e842998d5378dfb842f9b11640ac"),
        (["tau", "40", "2"], "622fe08fdba6129e21173041d2cccf51c03a8d06c1beb3cf59bbfec5e401f7b5"),
        (["tau", "5", "4", "--format", "csv"], "764861d072fcd76199ed5afd645cca48ab6d4e21ab84255152ba508d16e8a8de"),
        (["tau", "3", "3"], "b1eda44e48d8f8f6374e1ab64faf96e9820fbf3c5eae0b0de7951b8af42c7ace"),
        (
            ["tau", "300", "2", "--membership", "smoothed", "--format", "json"],
            "3c3f6fe4a45374d2729a918faf6ddfa75089a03c72f1fc361990e551281088f4",
        ),
    ],
)
def test_main_output_is_unchanged(capsys, argv, digest):
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# sha256 of a partial report (flagged reviews and an errors tail), taken
# before score's reviewer sections were rendered from their records.
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "6943456eb997e9fcd830081c571ec4e0751cd8cf0c1eb5071b0491211d889227"),
        ("csv", "5b1d5b097ac949f861d654cdbfcf20440a7af8bf243997383d6f1e7bd7572183"),
        ("text", "dd75b302dfe7521d1e564dfec2a867bee87660acafac833fb46b2a9e348c2ee3"),
    ],
)
def test_partial_report_output_is_unchanged(capsys, fmt, digest):
    assert main(["score", str(FIXTURES / "episodes_invalid.jsonl"), _R, "--format", fmt]) == EXIT_PARTIAL
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert err == ""


def test_tau_refuses_outcome_sets_above_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli_io, "MAX_TAU_ROWS", 16)
    assert len(list(tau_rows(4, 2))) == 16
    for n, t in ((17, 1), (2, 5)):
        with pytest.raises(DomainError):
            tau_rows(n, t)
    monkeypatch.undo()
    for n, t in ((1001, 2), (2, 20), (2, 10**9)):
        assert main(["tau", str(n), str(t)]) == EXIT_FATAL
        assert capsys.readouterr().err == f"error: tau {n} {t} would list n**t > 1000000 patterns\n"
    assert main(["tau", "1", str(10**9)]) == EXIT_FATAL
    assert capsys.readouterr().err == "error: need at least 2 objects per period, got 1\n"


@pytest.mark.parametrize("fmt", FORMATS)
def test_tau_enumerates_only_the_patterns_it_has_written(monkeypatch, fmt):
    enumerated = []

    def counting_iter_tau(ns):
        for pattern in iter_tau(ns):
            enumerated.append(pattern)
            yield pattern

    monkeypatch.setattr(cli_io, "iter_tau", counting_iter_tau)
    chunks = cmd_tau(1000, 2, fmt=fmt)
    first = list(itertools.islice(chunks, 3))
    assert len(first) == 3 and len(enumerated) <= 5


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize(
    "n, message",
    [("1", "need at least 2 objects per period, got 1"), ("1001", "tau 1001 2 would list n**t > 1000000 patterns")],
)
def test_a_refused_tau_leaves_out_as_it_was(tmp_path, capsys, fmt, existing, n, message):
    out = tmp_path / "tau.txt"
    if existing:
        out.write_bytes(b"an earlier listing\n")
    assert main(["tau", n, "2", "--format", fmt, "--out", str(out)]) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {message}\n"
    if existing:
        assert out.read_bytes() == b"an earlier listing\n"
    else:
        assert not out.exists()


def test_cmd_info_index_canonical(fixtures_dir):
    out = cmd_info_index(fixtures_dir / "ifs_list.json")
    assert "H=1.00000000" in out
    assert out.strip().endswith("chosen: a")


def test_cmd_info_index_singleton(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps([{"id": "solo", "mu": 0.2, "nu": 0.1}]), encoding="utf-8")
    assert cmd_info_index(path).strip().endswith("chosen: solo")


def test_cmd_info_index_invalid_grades_name_element(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": "oops", "mu": 0.7, "nu": 0.5}]), encoding="utf-8")
    code = main(["info-index", str(path)])
    assert code == EXIT_FATAL
    assert "oops" in capsys.readouterr().err


@pytest.mark.parametrize("grades", [{"mu": True, "nu": 0}, {"mu": 0.2, "nu": False}])
def test_cmd_info_index_rejects_boolean_grades(tmp_path, capsys, grades):
    path = tmp_path / "bools.json"
    path.write_text(json.dumps([{"id": "a", **grades}]), encoding="utf-8")
    assert main(["info-index", str(path)]) == EXIT_FATAL
    field = next(key for key, grade in grades.items() if isinstance(grade, bool))
    assert capsys.readouterr().err == (
        f"error: {path}: element #0: field {field!r} must be number, got {grades[field]!r}\n"
    )


def test_cmd_info_index_rejects_grades_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('[{"id": "a", "mu": 1' + "0" * 400 + ', "nu": 0}]', encoding="utf-8")
    assert main(["info-index", str(path)]) == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: element #0: field 'mu' must be number, got 1000")
    assert err.count("\n") == 1


def test_text_columns_end_in_a_space(fixtures_dir, tmp_path):
    # Each value fills its column: a 10-character object id, a 5-character bar, a 12-character element id.
    episodes, reviews = tmp_path / "episodes.jsonl", tmp_path / "reviews.json"
    for path, fixture in ((episodes, EPISODES), (reviews, REVIEWS)):
        text = (fixtures_dir / fixture).read_text(encoding="utf-8")
        path.write_text(text.replace('"M"', '"B07XJ8C8F5"'), encoding="utf-8")
    output, code = cmd_score(episodes, reviews, fmt="text")
    assert code == EXIT_OK
    row = "  B07XJ8C8F5 {3,\u03b5}       Decreasing  C    Irrational  0.00000000  yes    complete-rejection"
    assert f"\n{row}\n" in output
    catalog = [f"o{i}" for i in range(1200)]
    report = choicetrust.build_report(
        [ChoiceEpisode("r", 1, catalog, ["o0"], ["o0"], ["o0"]), ChoiceEpisode("r", 2, catalog, *[catalog[1:]] * 3)]
    )
    assert "\n  o0        {1199,\u03b5}    Decreasing  -1199 Irrational  0.00000000         -\n" in (
        cli_io.report_to_text(report)
    )
    graded = tmp_path / "graded.json"
    graded.write_text(json.dumps([{"id": "abcdefghijkl", "mu": 0.2, "nu": 0.1}]), encoding="utf-8")
    assert cmd_info_index(graded).startswith("abcdefghijkl mu=0.2     nu=0.1     H=")
    # A value that fills or overflows a labeled column: mu, a frequency, a bar.
    graded.write_text(json.dumps([{"id": "a", "mu": 0.123456789, "nu": 0.1}]), encoding="utf-8")
    assert cmd_info_index(graded).startswith("a           mu=0.123456789 nu=0.1     H=0.70477576\n")
    head = "".join(itertools.islice(cmd_tau(1000, 2), 2))
    assert head.endswith("\n{\u03b5,\u03b5}      Reflexive   bar=D   f=1000 degree=1.00000000\n")
    assert "\n{100,\u03b5}    Decreasing  bar=-100 f=1   degree=0.00000000\n" in "".join(cmd_tau(101, 2))


def test_cmd_check_chain_and_violation(fixtures_dir):
    good = cmd_check(fixtures_dir / "choice_table_chain.json")
    assert "consistent" in good and "M > N > V > Z" in good
    bad = cmd_check(fixtures_dir / "choice_table_violating.json")
    assert "VIOLATIONS" in bad and "none" in bad


def test_main_score_roundtrip_via_out_file(fixtures_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["parameters"] == {"membership": "minmax", "d0_zone": "rational", "p": "0.50000000"}


def test_main_score_options(fixtures_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "score",
            str(fixtures_dir / EPISODES),
            str(fixtures_dir / REVIEWS),
            "--membership", "smoothed",
            "--d0-zone", "irrational",
            "--p", "0.25",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["parameters"] == {"membership": "smoothed", "d0_zone": "irrational", "p": "0.25000000"}
    degrees = {a["object"]: a["degree"] for a in doc["reviewers"][0]["assessments"]}
    assert degrees["M"] == "0.25000000"


def test_main_missing_file_is_fatal(tmp_path):
    code = main(["score", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope.json")])
    assert code == EXIT_FATAL


def test_main_directory_as_input_is_one_line_error(fixtures_dir, tmp_path, capsys):
    code = main(["score", str(tmp_path), str(fixtures_dir / REVIEWS)])
    assert code == EXIT_FATAL
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path}: Is a directory\n"


def test_main_non_utf8_input_names_the_file(fixtures_dir, tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"reviewer_id": "r\xff"}\n')
    code = main(["score", str(path), str(fixtures_dir / REVIEWS)])
    assert code == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize(
    "entry",
    [{"set": [["a"]], "choice": "a"}, {"set": "ab", "choice": "a"}, {"set": ["a"], "choice": ["a"]}],
)
def test_check_rejects_mistyped_choice_entries(tmp_path, capsys, entry):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"ground_set": ["a", "b"], "choices": [entry]}), encoding="utf-8")
    with pytest.raises(ParseError):
        load_choice_table(path)
    assert main(["check", str(path)]) == EXIT_FATAL
    assert capsys.readouterr().err.startswith(f"error: {path}: choice #0: field ")


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            [{"set": ["a", "b"], "choice": "a"}, {"set": ["b", "a"], "choice": "b"}],
            "choice #3: 'set' ['b', 'a'] is already listed",
        ),
        ([{"set": ["a", "a"], "choice": "a"}], "choice #2: 'set' repeats an id: ['a', 'a']"),
    ],
)
def test_check_rejects_repeated_sets_and_ids(tmp_path, capsys, entries, message):
    singles = [{"set": ["a"], "choice": "a"}, {"set": ["b"], "choice": "b"}]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"ground_set": ["a", "b"], "choices": singles + entries}), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "command, document, message",
    [
        (
            "info-index",
            [{"id": "a", "mu": 0.2, "nu": 0.1}, {"id": "oops", "mu": 0.7, "nu": 0.5}],
            "element #1: element 'oops': mu + nu = 1.2 exceeds 1",
        ),
        (
            "check",
            {"ground_set": ["a", "b"], "choices": [{"set": ["a"], "choice": "a"}]},
            "choice table is missing subsets: {b}, {a,b}",
        ),
        (
            "check",
            {
                "ground_set": ["a", "b"],
                "choices": [
                    {"set": ["a"], "choice": "b"},
                    {"set": ["b"], "choice": "b"},
                    {"set": ["a", "b"], "choice": "a"},
                ],
            },
            "chosen element 'b' is not a member of {a}",
        ),
        (
            "info-index",
            [{"id": "a", "mu": 0.2, "nu": 0.1}, {"id": "a", "mu": 0.5, "nu": 0.1}],
            "element #1: id 'a' is already listed",
        ),
        ("info-index", [{"id": "a\rb", "mu": 0.2, "nu": 0.1}], "element #0: field 'id' must be id, got 'a\\rb'"),
        (
            "check",
            {"ground_set": ["a", "x\ny"], "choices": [{"set": ["a"], "choice": "a"}]},
            "field 'ground_set' must be a list of id strings, got ['a', 'x\\ny']",
        ),
    ],
)
def test_domain_errors_name_the_file(tmp_path, capsys, command, document, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main([command, str(path)]) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_check_messages_quote_ids_that_hold_a_comma(tmp_path, capsys):
    # Shown bare, the id "a,b" made {a,a,b} read as a set with a repeated id.
    ground = ["a", "a,b", "b"]
    path = tmp_path / "table.json"
    choices = [{"set": [x], "choice": x} for x in ground]
    path.write_text(json.dumps({"ground_set": ground, "choices": choices}), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_FATAL
    assert capsys.readouterr().err == (
        f"error: {path}: choice table is missing subsets: {{a,'a,b'}}, {{a,b}}, {{'a,b',b}}, {{a,'a,b',b}}\n"
    )


@pytest.mark.parametrize("bad", ["\n", "\r", "\x00", "\x1e", "\x7f", "\x85", "\u2028", "\u2029", "\ud800"])
@pytest.mark.parametrize("field", ["reviewer_id", "catalog"])
def test_score_rejects_an_episode_id_that_breaks_a_line(fixtures_dir, tmp_path, field, bad):
    first, second = (fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    if field == "reviewer_id":
        record["reviewer_id"] = f"rev{bad}1"
    else:
        record["catalog"].append(f"x{bad}y")
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(record) + "\n" + second + "\n", encoding="utf-8")
    output, code = cmd_score(path, fixtures_dir / REVIEWS, fmt="text")
    assert code == EXIT_PARTIAL
    assert output.splitlines() == output.split("\n")[:-1]
    assert output.split("\n")[-2].startswith(f"  [-] {path}:1: field {field!r} must be ")
    assert "periods [2]" in output


@pytest.mark.parametrize("field", ["reviewer_id", "object"])
def test_score_rejects_a_review_id_that_breaks_a_line(fixtures_dir, tmp_path, field):
    records = json.loads((fixtures_dir / REVIEWS).read_text(encoding="utf-8"))
    records[0][field] += "\u2028"
    reviews = tmp_path / "reviews.json"
    reviews.write_text(json.dumps(records), encoding="utf-8")
    output, code = cmd_score(fixtures_dir / EPISODES, reviews, fmt="text")
    assert code == EXIT_PARTIAL
    assert output.splitlines() == output.split("\n")[:-1]
    assert output.split("\n")[-2] == (
        f"  [-] {reviews}: review #0: field {field!r} must be id, got {records[0][field]!r}"
    )


def test_reports_are_byte_identical_across_runs(fixtures_dir, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(
            ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(out)]
        ) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


# Runs the command its arguments name in every format, then prints the exit codes.
_SCORE_EVERY_FORMAT = """
import sys
from choicetrust.cli_io import main
codes = [main([*sys.argv[1:], "--format", fmt]) for fmt in ("json", "csv", "text")]
print(codes)
"""


def test_score_is_byte_identical_across_hash_seeds(tmp_path):
    # Reviewers share objects, run totals and catalog sizes, so cached scores
    # are reused across reviewers; string hashing must not reach the output.
    rng = random.Random(7)
    pool = [f"item-{k}" for k in range(9)]
    lines, reviews = [], []
    for reviewer in ("zed", "amy", "bob", "kim", "lee", "ann"):
        for period in rng.sample([1, 2, 3], rng.randint(1, 3)):
            catalog = rng.sample(pool, rng.randint(1, 6))
            stages = [catalog[: rng.randint(1, len(catalog))]]
            for _ in range(2):
                stages.append(stages[-1][: rng.randint(1, len(stages[-1]))])
            lines.append(json.dumps({"reviewer_id": reviewer, "period": period, "catalog": catalog,
                                     "wishlist": stages[0], "cart": stages[1], "final": stages[2]}))
        for obj in rng.sample(pool, 3):
            reviews.append({"reviewer_id": reviewer, "object": obj, "rating": rng.randint(1, 5)})
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    reviews_path = tmp_path / "reviews.json"
    reviews_path.write_text(json.dumps(reviews), encoding="utf-8")
    src = Path(choicetrust.__file__).parents[1]
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SCORE_EVERY_FORMAT, "score", str(episodes), str(reviews_path)],
            capture_output=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            timeout=60,
        )
        for seed in ("0", "1")
    ]
    assert [o.returncode for o in outputs] == [0, 0]
    assert outputs[0].stdout.endswith(b"[2, 2, 2]\n")  # some reviews name absent objects
    assert outputs[0].stdout == outputs[1].stdout
    assert outputs[0].stderr == outputs[1].stderr == b""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["score", _E, _R], 0),
        (["score", str(FIXTURES / "episodes_invalid.jsonl"), _R], 2),  # a partial report
        (["tau", "4", "2"], 0),
        (["tau", "3", "3"], 0),
        (["info-index", _IFS], 0),
        (["check", _VIOLATING], 0),
    ],
)
def test_every_command_is_byte_identical_across_hash_seeds(argv, code):
    src = Path(choicetrust.__file__).parents[1]
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SCORE_EVERY_FORMAT, *argv],
            capture_output=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            timeout=60,
        )
        for seed in ("0", "1")
    ]
    assert [o.returncode for o in outputs] == [0, 0]
    assert outputs[0].stdout.endswith(f"{[code] * 3}\n".encode())
    assert outputs[0].stdout == outputs[1].stdout
    assert outputs[0].stderr == outputs[1].stderr


@pytest.mark.parametrize("text", [{"x": [1]}, 7, None])
def test_score_rejects_non_string_comment_text(fixtures_dir, tmp_path, text):
    records = json.loads((fixtures_dir / REVIEWS).read_text(encoding="utf-8"))
    records[0]["comment_text"] = text
    reviews = tmp_path / "reviews.json"
    reviews.write_text(json.dumps(records), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["score", str(fixtures_dir / EPISODES), str(reviews), "--out", str(out)]) == EXIT_PARTIAL
    errors = json.loads(out.read_text(encoding="utf-8"))["errors"]
    assert [e["message"] for e in errors] == [
        f"{reviews}: review #0: field 'comment_text' must be str, got {text!r}"
    ]


def test_score_names_a_non_object_review_once(fixtures_dir, tmp_path):
    reviews = tmp_path / "reviews.json"
    reviews.write_text(json.dumps([7]), encoding="utf-8")
    output, code = cmd_score(fixtures_dir / EPISODES, reviews)
    assert code == EXIT_PARTIAL
    assert [e["message"] for e in json.loads(output)["errors"]] == [
        f"{reviews}: review #0: review must be a JSON object"
    ]


def test_score_reports_each_invalid_episode_in_validation_order(fixtures_dir, tmp_path):
    # One line per validation failure; where a stage has a repeat and an
    # unknown id, the repeat is named, and a stage is checked before the next.
    out = tmp_path / "report.txt"
    argv = ["score", str(fixtures_dir / "episodes_invalid.jsonl"), str(fixtures_dir / REVIEWS)]
    assert main([*argv, "--format", "text", "--out", str(out)]) == EXIT_PARTIAL
    report = out.read_text(encoding="utf-8")
    assert "reviewer rev-1" in report
    assert report[report.index("\nerrors:\n") :] == (
        "\nerrors:\n"
        "  [empty-catalog] attainable set is empty\n"
        "  [catalog-repeat] item 'M' occurs twice in stage 'attainable'\n"
        "  [wishlist-unknown-and-repeat] item 'N' occurs twice in stage 'wishlist'\n"
        "  [cart-not-in-wishlist] item 'V' appears in stage 'cart' but not in the enclosing stage\n"
        "  [final-repeat] item 'N' occurs twice in stage 'final'\n"
        "  [final-not-in-cart] item 'N' appears in stage 'final' but not in the enclosing stage\n"
        "  [empty-final] episode (reviewer 'empty-final', period 1) has an empty final set\n"
    )


@pytest.mark.parametrize(
    "lines, summary",
    [
        (["not json"], "1 problem; first: {path}:1: invalid JSON (Expecting value)"),
        (
            [json.dumps({"reviewer_id": "r", "period": 1, "catalog": ["a"], "wishlist": ["b"], "cart": [], "final": []})],
            "1 problem; first: reviewer 'r': item 'b' appears in stage 'wishlist' but not in the enclosing stage",
        ),
        (["[]", "not json"], "2 problems; first: {path}:1: episode record must be a JSON object"),
    ],
)
def test_score_says_why_no_reviewer_could_be_scored(fixtures_dir, tmp_path, capsys, lines, summary):
    path = tmp_path / "episodes.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert main(["score", str(path), str(fixtures_dir / REVIEWS)]) == EXIT_FATAL
    summary = summary.format(path=path)
    assert capsys.readouterr().err == f"error: {path}: no reviewer could be scored ({summary})\n"


@pytest.mark.parametrize(
    "p", ["1e-999999", "1e999999", "1e-99999999999", "1e99999999999", "nan", "inf", "1/0", "-0.5", "2"]
)
def test_score_rejects_bad_p_at_once(fixtures_dir, capsys, p):
    start = time.perf_counter()
    code = main(["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--p", p])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith("error: --p ") and err.count("\n") == 1


@pytest.mark.parametrize("p", ["0.5", "1/2", "0.25", "1e-3", "3/7", "0.3"])
def test_score_reads_p_exactly(fixtures_dir, tmp_path, p):
    out = tmp_path / "report.json"
    argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--p", p, "--out", str(out)]
    assert main(argv) == EXIT_OK
    expected, _ = cmd_score(fixtures_dir / EPISODES, fixtures_dir / REVIEWS, p=Fraction(p))
    assert out.read_text(encoding="utf-8") == expected


_P_VALUES = [
    "0.25", "1e-3", "1/2", " 0.5 ", "2", "-0.1", "nan", "inf", "1/0", "abc", "", "1e-41", "1e-999999",
    "0." + "0" * 38 + "1",
]


@pytest.mark.parametrize("p", _P_VALUES)
def test_score_and_build_report_read_p_alike(fixtures_dir, capsys, p):
    episodes, _ = load_episodes(fixtures_dir / EPISODES)
    reviews, _ = load_reviews(fixtures_dir / REVIEWS)
    code = main(["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--p", p])
    err = capsys.readouterr().err
    try:
        report = choicetrust.build_report(episodes, reviews, p=p)
    except DomainError as exc:
        # The CLI names the option, the library the parameter; the rest is the same line.
        assert (code, err) == (EXIT_FATAL, f"error: --{exc}\n")
    else:
        assert (code, err) == (EXIT_OK, "")
        assert report.parameters.p == Fraction(p.strip())


# Arbitrary JSON values, and valid records with fields dropped or replaced by them.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Ids from all of Unicode, with the characters that can break a line mixed in.
_ID = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\n\r\x0b\x1e\x7f\x85\u2028\u2029\ud800"),
    max_size=4,
)
_VALID_RECORDS = {
    "episodes": {"reviewer_id": "rev-1", "period": 1, "catalog": ["M", "N"], "wishlist": ["M"],
                 "cart": ["M"], "final": ["M"]},
    "reviews": {"reviewer_id": "rev-1", "object": "M", "rating": 1, "comment_polarity": "negative",
                "comment_text": "Bad product"},
    "graded list": {"id": "a", "mu": 0.5, "nu": 0.5},
    "choice table": {"set": ["a", "b"], "choice": "a"},
}


@st.composite
def _near_valid(draw, document):
    record = dict(_VALID_RECORDS[document])
    for key in draw(st.sets(st.sampled_from(sorted(record)), min_size=1, max_size=2)):
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(_JSON | _ID | st.lists(_ID, max_size=3))
    return record


@st.composite
def _document(draw, document):
    """Text of one input document: any JSON value, or records mostly near-valid."""
    if draw(st.booleans()):
        return json.dumps(draw(_JSON))
    records = draw(st.lists(_near_valid(document) | _JSON, max_size=3))
    if document == "episodes":
        return "".join(json.dumps(r) + "\n" for r in records)
    if document == "choice table":
        ground = draw(st.just(["a", "b"]) | st.lists(_ID, min_size=1, max_size=3, unique=True))
        singles = [{"set": [x], "choice": x} for x in ground]
        return json.dumps({"ground_set": ground, "choices": singles + records})
    return json.dumps(records)


@settings(max_examples=250, deadline=None)
@given(document=st.sampled_from(sorted(_VALID_RECORDS)), fmt=st.sampled_from(["json", "csv", "text"]), data=st.data())
def test_main_ends_in_a_report_or_a_one_line_error(document, fmt, data):
    text = data.draw(_document(document))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = {
            "episodes": ["score", str(path), str(FIXTURES / REVIEWS)],
            "reviews": ["score", str(FIXTURES / EPISODES), str(path)],
            "graded list": ["info-index", str(path)],
            "choice table": ["check", str(path)],
        }[document]
        report = Path(tmp) / "report"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt, "--out", str(report)])
        output = report.read_text(encoding="utf-8") if code != EXIT_FATAL else ""
    assert code in (EXIT_OK, EXIT_FATAL, EXIT_PARTIAL)
    if code == EXIT_FATAL:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        # Every line of the report ends at a "\n", and nothing else breaks one.
        assert output.endswith("\n") and output.splitlines() == output.split("\n")[:-1]


class _Grade(IntEnum):
    LOW = 1
    HUGE = 10**30


_ANY_TEXT = st.text(st.characters(exclude_categories=()))  # lone surrogates too
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats()
    | _ANY_TEXT
    | st.sampled_from([*Polarity, *_Grade])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_ANY_TEXT | st.sampled_from(list(Polarity)), inner, max_size=4),
    max_leaves=25,
)


_JSON_OBJECTS = st.dictionaries(_ANY_TEXT | st.sampled_from(list(Polarity)), _JSON_VALUES, max_size=4)


@settings(max_examples=400, deadline=None)
@example({"floats": [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300]}, "empty", [{}, [], ()], {"last": []})
@example({}, "rows", [True, False, 1, 0, Polarity.NEGATIVE, _Grade.HUGE, "\ud800\x00\u2028é\U0001f600"], {})
@example({}, "rows", [], {})
@given(_JSON_OBJECTS, _ANY_TEXT, st.lists(_JSON_VALUES, max_size=5), _JSON_OBJECTS)
def test_json_writer_equals_indented_json_dumps(head, key, items, tail):
    assume(key not in head and key not in tail and not head.keys() & tail.keys())
    chunks = list(cli_io._json_document(head, key, iter(items), tail))
    assert len(chunks) == len(items) + 2
    assert "".join(chunks) == json.dumps({**head, key: items, **tail}, indent=2, ensure_ascii=True) + "\n"


def test_json_writer_refuses_what_json_dumps_refuses():
    for value in (object(), {"set": {1}}):
        with pytest.raises(TypeError) as ours:
            "".join(cli_io._json_document({}, "items", [value], {}))
        with pytest.raises(TypeError) as stdlib:
            json.dumps({"items": [value]}, indent=2)
        assert str(ours.value) == str(stdlib.value)


# Runs `main` with every import of numpy raising ImportError, then checks
# that nothing loaded numpy.
_WITHOUT_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockNumpy())
from choicetrust.cli_io import main
code = main(sys.argv[1:])
assert "numpy" not in sys.modules
raise SystemExit(code)
"""


def test_score_runs_without_numpy(fixtures_dir, tmp_path):
    out = tmp_path / "report.json"
    argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(out)]
    src = Path(choicetrust.__file__).parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (EXIT_OK, "")
    expected, _ = cmd_score(fixtures_dir / EPISODES, fixtures_dir / REVIEWS)
    assert out.read_text(encoding="utf-8") == expected


def _many_reviewers(tmp_path, count=40):
    """Episode and review files of `count` two-period reviewers; one review names an absent object."""
    catalog = ["a", "b", "c", "d"]
    lines, reviews = [], [{"reviewer_id": "r0", "object": "zz", "rating": 3}]
    for k in range(count):
        for period in (1, 2):
            order = catalog[k % 4:] + catalog[: k % 4] if period == 1 else catalog[::-1]
            lines.append(json.dumps({"reviewer_id": f"r{k}", "period": period, "catalog": catalog,
                                     "wishlist": order[:3], "cart": order[:2], "final": order[:1]}))
        reviews.append({"reviewer_id": f"r{k}", "object": catalog[k % 4], "rating": 1 + k % 5})
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    reviews_path = tmp_path / "reviews.json"
    reviews_path.write_text(json.dumps(reviews), encoding="utf-8")
    return episodes, reviews_path


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["one section", "many sections", "tau"])
def test_a_closed_stdout_is_a_one_line_error(fixtures_dir, tmp_path, command, unbuffered):
    if command == "one section":
        argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS)]
    elif command == "many sections":
        argv = ["score", *map(str, _many_reviewers(tmp_path, 400))]
    else:
        argv = ["tau", "4", "2"]
    env = {"PYTHONPATH": str(Path(choicetrust.__file__).parents[1])}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "choicetrust.cli_io", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    lines = child.stderr.decode("utf-8").splitlines()
    assert child.returncode == EXIT_FATAL, lines
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_score_writes_the_same_bytes_to_stdout_and_to_out(tmp_path, fmt):
    argv = ["score", *map(str, _many_reviewers(tmp_path)), "--format", fmt]
    out = tmp_path / f"report.{fmt}"
    assert main([*argv, "--out", str(out)]) == EXIT_PARTIAL
    child = subprocess.run(
        [sys.executable, "-m", "choicetrust.cli_io", *argv],
        capture_output=True,
        env={"PYTHONPATH": str(Path(choicetrust.__file__).parents[1])},
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (EXIT_PARTIAL, b"")
    assert child.stdout == out.read_bytes()
    assert b"r39" in child.stdout and b"zz" in child.stdout  # the last section and the tail


@pytest.mark.parametrize("fault", ["no reviewer could be scored", "missing reviews file"])
def test_a_fatal_score_leaves_out_as_it_was(fixtures_dir, tmp_path, capsys, fault):
    episodes, reviews = fixtures_dir / EPISODES, fixtures_dir / REVIEWS
    if fault == "no reviewer could be scored":
        episodes = tmp_path / "episodes.jsonl"
        episodes.write_text("not json\n[]\n", encoding="utf-8")
    else:
        reviews = tmp_path / "missing.json"
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    assert main(["score", str(episodes), str(reviews), "--out", str(out)]) == EXIT_FATAL
    assert out.read_bytes() == b"an earlier report\n"
    assert capsys.readouterr().err.count("\n") == 1
