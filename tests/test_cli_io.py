import contextlib
import csv
import errno
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import stat
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
from choicetrust import (
    ChoiceEpisode,
    DomainError,
    IfsElement,
    IfsList,
    Polarity,
    Review,
    ValidatedEpisode,
    cli_commands,
    cli_io,
    iter_tau,
    validate_episode,
)
from choicetrust.cli_commands import cmd_check, cmd_info_index, cmd_tau, load_choice_table, load_ifs_list, tau_rows
from choicetrust.cli_io import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    FORMATS,
    ParseError,
    load_episodes,
    load_reviews,
    main,
)
from helpers import child_env, many_reviewers

FIXTURES = Path(__file__).parent / "fixtures"
EPISODES = "episodes_canonical.jsonl"
REVIEWS = "reviews_canonical.json"


def run_score(capsys, episodes, reviews, *options):
    """`score` run through `main` on the two files: its stdout and exit code."""
    code = main(["score", str(episodes), str(reviews), *options])
    return capsys.readouterr().out, code


def test_episode_roundtrip(fixtures_dir):
    episodes, problems = load_episodes(fixtures_dir / EPISODES)
    assert problems == []
    # Parsing certifies each episode: the loader returns its stage ranks too.
    assert episodes == [
        ValidatedEpisode("rev-1", 1, ("M", "N", "V", "Z"), ("M", "N", "V"), ("M", "N"), ("M",), (3, 2, 1, 0)),
        ValidatedEpisode("rev-1", 2, ("M", "N", "V", "Z"), ("Z", "V", "N"), ("Z", "V"), ("Z",), (0, 1, 2, 3)),
    ]


def test_score_builds_each_episode_once(fixtures_dir, monkeypatch, capsys):
    # The parser certifies each line; build_report takes that record as it is.
    calls = []
    init = ChoiceEpisode.__init__

    def counted(self, *args, **kwargs):
        calls.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChoiceEpisode, "__init__", counted)
    assert main(["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS)]) == EXIT_OK
    assert calls == [ValidatedEpisode] * len((fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines())
    episodes, _ = load_episodes(fixtures_dir / EPISODES)
    assert all(validate_episode(episode) is episode for episode in episodes)
    raw = ChoiceEpisode(*(getattr(episodes[0], name) for name in ChoiceEpisode.__slots__))
    assert validate_episode(raw) == episodes[0]


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
    unnested = {**record, "period": 1, "cart": ["N"]}
    path.write_text(json.dumps(record) + "\n" + json.dumps(unnested) + "\n", encoding="utf-8")
    assert load_episodes(path) == (
        [],
        [
            f"{path}:1: period must be a positive integer, got 0",
            f"{path}:2: item 'N' appears in stage 'cart' but not in the enclosing stage",
        ],
    )


def _episode_line(period, **stages):
    record = {"reviewer_id": "r", "period": period, "catalog": ["a", "b"], "wishlist": ["a"], "cart": ["a"],
              "final": ["a"]}
    return json.dumps({**record, **stages}) + "\n"


def test_score_names_a_repeated_period_at_its_line(fixtures_dir, tmp_path, capsys):
    # The second period-1 line is a problem at its own line, after the nesting problem of the line before it,
    # and the reviewer is scored from the line that was accepted.
    path = tmp_path / "dup.jsonl"
    path.write_text(_episode_line(1) + _episode_line(1, wishlist=["c"]) + _episode_line(1), encoding="utf-8")
    messages = [
        f"{path}:2: item 'c' appears in stage 'wishlist' but not in the enclosing stage",
        f"{path}:3: reviewer 'r' already has period 1 (line 1)",
    ]
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS, "--format", "json")
    assert code == EXIT_PARTIAL
    doc = json.loads(output)
    assert [(s["reviewer_id"], s["periods"]) for s in doc["reviewers"]] == [("r", [1])]
    assert doc["errors"] == [{"reviewer_id": None, "message": m} for m in messages]
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS, "--format", "text")
    assert code == EXIT_PARTIAL
    assert output.endswith("\nerrors:\n" + "".join(f"  [-] {m}\n" for m in messages))


def test_only_an_accepted_line_holds_its_period(tmp_path):
    path = tmp_path / "dup.jsonl"
    # Line 1 is refused, so line 2 holds period 1, and line 4 repeats it with other stages.
    lines = [
        _episode_line(1, final=[]),
        _episode_line(1),
        _episode_line(2),
        _episode_line(1, wishlist=["b"], cart=["b"], final=["b"]),
    ]
    path.write_text("".join(lines), encoding="utf-8")
    episodes, problems = load_episodes(path)
    assert [(e.period, e.final) for e in episodes] == [(1, ("a",)), (2, ("a",))]
    assert problems == [
        f"{path}:1: episode (reviewer 'r', period 1) has an empty final set",
        f"{path}:4: reviewer 'r' already has period 1 (line 2)",
    ]


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


def test_a_lone_cr_between_members_is_whitespace_not_a_line_break(tmp_path, capsys):
    # JSON allows a CR wherever it allows a space: the first record is one episode, not two broken lines.
    episodes, reviews = tmp_path / "episodes.jsonl", tmp_path / "reviews.json"
    first = ('{"reviewer_id": "r", "period": 1,\r"catalog": ["a","b","c"], '
             '"wishlist": ["a","b"], "cart": ["a"], "final": ["a"]}\n')
    episodes.write_bytes((first + _episode_line(2, catalog=["a", "b", "c"])).encode("utf-8"))
    reviews.write_text("[]", encoding="utf-8")
    output, code = run_score(capsys, episodes, reviews, "--format", "json")
    doc = json.loads(output)
    assert [(s["reviewer_id"], s["periods"]) for s in doc["reviewers"]] == [("r", [1, 2])]
    assert (code, doc["errors"]) == (EXIT_OK, [])


def test_a_raw_cr_counts_no_line(tmp_path):
    # A raw CR inside a string is one problem, and the lines after it are numbered by "\n" alone.
    path = tmp_path / "episodes.jsonl"
    path.write_bytes(('{"reviewer_id": "r\rs"}\r\n\r' + _episode_line(1) + "not\rjson\n").encode("utf-8"))
    episodes, problems = load_episodes(path)
    assert [e.period for e in episodes] == [1]
    assert problems == [
        f"{path}:1: invalid JSON (Invalid control character at)",
        f"{path}:3: invalid JSON (Expecting value)",
    ]
    reviews = tmp_path / "reviews.json"
    reviews.write_bytes(b"[\r\r\n\r{]")
    with pytest.raises(ParseError, match=r"reviews\.json:2: invalid JSON \(Expecting property name"):
        load_reviews(reviews)


# Characters that str.isspace() takes for whitespace and JSON does not.
_OTHER_SPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace() and c not in " \t\n\r")


@pytest.mark.parametrize("space", ["\xa0", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\u3000"])
def test_a_line_of_other_whitespace_is_a_problem_not_a_blank_line(tmp_path, space):
    # A blank line holds JSON's whitespace only: spaces, tabs and a CR. Any other line is read as a record.
    assert space in _OTHER_SPACE
    path = tmp_path / "episodes.jsonl"
    path.write_text(_episode_line(1) + " \t\r\n\n" + space + "\n" + _episode_line(2), encoding="utf-8")
    episodes, problems = load_episodes(path)
    assert [e.period for e in episodes] == [1, 2]
    assert problems == [f"{path}:4: invalid JSON (Expecting value)"]


def test_score_reports_an_overlong_integer_at_its_line(fixtures_dir, tmp_path, capsys):
    path = tmp_path / "episodes.jsonl"
    path.write_text(
        (fixtures_dir / EPISODES).read_text(encoding="utf-8") + '{"period": ' + "1" * 5000 + "}\n",
        encoding="utf-8",
    )
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS)
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


def test_score_keeps_scoring_past_a_deeply_nested_episode_line(fixtures_dir, tmp_path, capsys):
    path = tmp_path / "episodes.jsonl"
    path.write_text((fixtures_dir / EPISODES).read_text(encoding="utf-8") + "[" * 200_000 + "\n", encoding="utf-8")
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS)
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


def test_score_reports_an_episode_line_with_a_repeated_key(fixtures_dir, tmp_path, capsys):
    first, second = (fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines()
    path = tmp_path / "episodes.jsonl"
    path.write_text(first + "\n" + second[:-1] + ', "period": 1}\n', encoding="utf-8")
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS)
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


def test_cmd_score_canonical(fixtures_dir, capsys):
    output, code = run_score(capsys, fixtures_dir / EPISODES, fixtures_dir / REVIEWS, "--format", "json")
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


def test_cmd_score_empty_episode_file(tmp_path, fixtures_dir, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["score", str(empty), str(fixtures_dir / REVIEWS)]) == EXIT_FATAL
    assert capsys.readouterr() == ("", f"error: {empty}: episode file contains no records\n")


def test_cmd_score_unknown_object_flagged(tmp_path, fixtures_dir, capsys):
    reviews = json.loads((fixtures_dir / REVIEWS).read_text())
    reviews.append({"reviewer_id": "rev-1", "object": "QQ", "rating": 4})
    path = tmp_path / "reviews.json"
    path.write_text(json.dumps(reviews), encoding="utf-8")
    output, code = run_score(capsys, fixtures_dir / EPISODES, path, "--format", "json")
    assert code == EXIT_PARTIAL
    doc = json.loads(output)
    assert doc["flagged_reviews"][0]["object"] == "QQ"
    assert len(doc["reviewers"][0]["assessments"]) == 4


def test_cmd_score_formats_are_renderable(fixtures_dir, capsys):
    for fmt in ("json", "csv", "text"):
        output, code = run_score(capsys, fixtures_dir / EPISODES, fixtures_dir / REVIEWS, "--format", fmt)
        assert code == EXIT_OK and output


def test_cmd_score_partial_on_malformed_episode_line(tmp_path, fixtures_dir, capsys):
    good = (fixtures_dir / EPISODES).read_text()
    path = tmp_path / "episodes.jsonl"
    path.write_text(good + "this is not json\n", encoding="utf-8")
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS, "--format", "json")
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
_ESC_IFS, _ESC_TABLE = str(FIXTURES / "ifs_list_escaped.json"), str(FIXTURES / "choice_table_escaped.json")
_CE, _CR = str(FIXTURES / "episodes_churn.jsonl"), str(FIXTURES / "reviews_churn.json")  # three periods
# Wire edge cases, a partial report whose error lines name the episode file: run from the tests directory.
_WE, _WR = "fixtures/episodes_wire_edge.jsonl", "fixtures/reviews_wire_edge.json"
# Blank lines of spaces, tabs and a CR, CRLF lines, and lines of U+00A0, a form feed and U+3000, which are not blank.
_BL = "fixtures/episodes_blank_lines.jsonl"
# A lone CR between members, a CRLF line, and a raw CR inside a string.
_LC = "fixtures/episodes_lone_cr.jsonl"
# Lines that are not UTF-8 (Latin-1 text, an overlong "/", an encoded surrogate, a sequence cut short) among
# lines that are, one of them with ids outside ASCII.
_NU = "fixtures/episodes_not_utf8.jsonl"


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
        # Three periods, absent objects, two sections with one (n, p), and ids holding a comma, a quote and a space;
        # taken before the csv and text renderers wrote each (n, p) block once per render.
        (["score", _CE, _CR, "--format", "json"], "af1f99c4f342a4750651a6550087e63726bdaa8667f221999562533877ecc745"),
        (["score", _CE, _CR, "--format", "csv"], "6efd15258e11f0ecec78962e8b072e9ed86a7206e92cff6c81b2b751189fb57b"),
        (["score", _CE, _CR, "--format", "text"], "210f81fe04708dc2e13a154b9150ec7538297c1f5fad6201459d36eac65fd544"),
        # Ids holding ":", a repeated key whose later value is valid, a nested object in a list, a record padded with
        # whitespace, CRLF lines, trailing data, `true` as a period and a null comment_text; taken before the loaders
        # checked each record's wire types in one pass and decoded it without the decoder's Python wrapper.
        (["score", _WE, _WR, "--format", "json"], "92a1a03fa152a9d933807d9e9b4e556c7b5126091b75fa012729b4332420b4b0"),
        (["score", _WE, _WR, "--format", "csv"], "b7a99c2376ba0e47486e7baee6dbb6410151145871984505e864caaf79f7f04c"),
        (["score", _WE, _WR, "--format", "text"], "5e6c92a1b8f2db410dc9da563fbeb47400b1368d5c3dca888c7a49067ca38962"),
        # Taken after a line of whitespace that JSON does not allow became a problem instead of a skipped line.
        (["score", _BL, _R, "--format", "json"], "bf5bfb2a83aca17c134471904c81fad80b15fc75755518f8a10420bdfc14756b"),
        (["score", _BL, _R, "--format", "csv"], "717bcb9e50a435a2bd580d5a3e3be856523f8a7c1e20fd8bf62a98b4fabb7cc2"),
        (["score", _BL, _R, "--format", "text"], "d441d86ed49e59ac033b470bd2bd02417e2a1ce6176fad45b8e21559b9c19f33"),
        # Taken after the reader kept a lone CR as JSON whitespace instead of taking it for a line break.
        (["score", _LC, _R, "--format", "json"], "9c29e402a79321cd4439fa5a08e38382bc6f808426322c10a1616073e017dd6c"),
        (["score", _LC, _R, "--format", "csv"], "3991c8e06cf222d6146fb95a15dc2571f519e4476cbb4508031a53e6b2ccce9a"),
        (["score", _LC, _R, "--format", "text"], "c280cf203b31999c6aaf7b9845e395008a25b2dda94568ec8dbcee56d1024e59"),
        # Taken after each episode line was decoded on its own, so that one that is not UTF-8 costs that line alone.
        (["score", _NU, _R, "--format", "json"], "2e462173fa5ea7991a7369837df298791d21af525f28cc270cd5063e5317011a"),
        (["score", _NU, _R, "--format", "csv"], "2225546e0bc6e4037bb56d0b6ba17f1c725066bdd93f51ba62bc03398bf7c95c"),
        (["score", _NU, _R, "--format", "text"], "e2e97c18ec84c883322d1008056c4d5dbd782e4390f1641df1cf4c303fbeb9f0"),
        (["info-index", _IFS, "--format", "json"], "519c5b665457c1fbd9779383353ff9bddcb76534da95889a9dd92e947d70d627"),
        (["info-index", _IFS, "--format", "csv"], "29508743df9248f56a74f92dfcc9ce25fc69a4129b785cf3e34ec720f2f48506"),
        (["info-index", _IFS, "--format", "text"], "a64ca00de86614fc21b634e1146538aaf850415e1f81dc131251c4062bc8a27e"),
        (["check", _CHAIN, "--format", "json"], "50361923f6d3d0b9623732e15198a092f3d1835fd846616f760af9ce639b3b98"),
        (["check", _CHAIN, "--format", "csv"], "5097ae5ddf9b69cdab9db810a11636487c0b68f62a844a2332f83533f0aa07d1"),
        (["check", _CHAIN, "--format", "text"], "7d3d63c2e50f6f6a1f09b17576fea8222ef3073b2c459eab1fb35a50ca5d5c3b"),
        (["check", _VIOLATING, "--format", "json"], "7a396d2960311d401277311f29faf8e5583dca3e8a6a373aea0e659c2da75906"),
        (["check", _VIOLATING, "--format", "csv"], "56c732ff11598777bbc50eaacda14556956c7378c884f0c36ebc36fac30e4e03"),
        (["check", _VIOLATING, "--format", "text"], "52f60b723c134f76ae9dc94db15571c36b908e06be5f38c2b375a27f7c05119a"),
        # Ids and numbers that JSON escapes or spells out; taken while info-index and check wrote json through the
        # streaming writer.
        (["info-index", _ESC_IFS, "--format", "json"], "59d62515b3fa416204f35dbf80fc0e1bb306c88c70dab01718a64075febe4676"),
        (["info-index", _ESC_IFS, "--format", "csv"], "49a77255ec7bfe82af940621fae4eb999cdae992005b4a2b8ea99fda9c50eaaa"),
        (["info-index", _ESC_IFS, "--format", "text"], "8bfa9ec38c1aa3f9bf2bae15d703d24cef13ba9358058736d64dfec63acab2c3"),
        (["check", _ESC_TABLE, "--format", "json"], "fa98089768cebf821e3bdc36a650b50197d493b2311c938ce48d5f44b2e6e786"),
        (["check", _ESC_TABLE, "--format", "csv"], "f3c04c3fc118728538f645f44c6fb26c073b035493aae2002e8d6ad527f9b64b"),
        (["check", _ESC_TABLE, "--format", "text"], "e362c92b303f824fca082addeb771881dbb82c96f045df286c49ae198373ea8f"),
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
def test_main_output_is_unchanged(capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(FIXTURES.parent)
    assert main(argv) == (EXIT_PARTIAL if {_WE, _BL, _LC, _NU} & {*argv} else EXIT_OK)
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_ci_runs_the_console_script_on_every_episode_fixture():
    # The workflow's loop runs each command line as the installed script and as `python -m`, in every format.
    workflow = (FIXTURES.parents[1] / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    looped = re.findall(r'"\d score (episodes_\S+\.jsonl) ', workflow)
    assert sorted(looped) == sorted(path.name for path in FIXTURES.glob("episodes_*.jsonl"))


# sha256 of a partial report (flagged reviews and an errors tail), run from
# the tests directory so that the episode path in its error lines is relative.
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "973624649c3de69cfecb91bfe112a09807854cec455bb3641e46226f30f0fcce"),
        ("csv", "408c57c38635eccef21b8d22f9b9a4ec2be560855befaf30441392ee3b8315db"),
        ("text", "ef1bf88b13ea4269dd4aa325e8419c34468bdf9c2bf5d5c2d47c344e41fc98fc"),
    ],
)
def test_partial_report_output_is_unchanged(capsys, monkeypatch, fmt, digest):
    monkeypatch.chdir(FIXTURES.parent)
    argv = ["score", "fixtures/episodes_invalid.jsonl", "fixtures/reviews_canonical.json", "--format", fmt]
    assert main(argv) == EXIT_PARTIAL
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert err == ""


@pytest.mark.parametrize("fault", [ValueError, ZeroDivisionError])
def test_a_fault_of_the_program_is_not_written_as_an_input_error(monkeypatch, capsys, fault):
    # Only a ChoiceTrustError is a problem of the input; a bug in a pipeline function propagates instead.
    def broken(*args, **kwargs):
        raise fault("a bug")

    monkeypatch.setattr(cli_io, "build_report", broken)
    with pytest.raises(fault, match="a bug"):
        main(["score", _E, _R])
    assert "error:" not in capsys.readouterr().err


def test_tau_refuses_outcome_sets_above_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli_commands, "MAX_TAU_ROWS", 16)
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

    monkeypatch.setattr(cli_commands, "iter_tau", counting_iter_tau)
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


def test_text_columns_end_in_a_space(fixtures_dir, tmp_path, capsys):
    # Each value fills its column: a 10-character object id, a 5-character bar, a 12-character element id.
    episodes, reviews = tmp_path / "episodes.jsonl", tmp_path / "reviews.json"
    for path, fixture in ((episodes, EPISODES), (reviews, REVIEWS)):
        text = (fixtures_dir / fixture).read_text(encoding="utf-8")
        path.write_text(text.replace('"M"', '"B07XJ8C8F5"'), encoding="utf-8")
    output, code = run_score(capsys, episodes, reviews, "--format", "text")
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


def test_main_out_of_memory_is_one_line_error(fixtures_dir, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_io, "build_report", exhausted)
    code = main(["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS)])
    assert code == EXIT_FATAL
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_main_non_utf8_input_names_the_file(fixtures_dir, tmp_path, capsys):
    # A document that is not UTF-8 ends the run; an episode line that is not costs that line alone.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"reviewer_id": "r\xff"}]')
    assert main(["score", str(fixtures_dir / EPISODES), str(path)]) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte at byte 19)\n"
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"reviewer_id": "r\xff"}\n')
    assert main(["score", str(path), str(fixtures_dir / REVIEWS)]) == EXIT_FATAL
    assert capsys.readouterr().err == (
        f"error: {path}: no reviewer could be scored (1 problem; first: {path}:1: not UTF-8 text "
        "(invalid start byte at byte 18))\n"
    )


def test_an_undecodable_episode_line_is_one_problem(fixtures_dir, tmp_path):
    # The byte is counted within its line; every other line is read, the CRLF and blank ones as ever.
    lines = (fixtures_dir / EPISODES).read_bytes().split(b"\n")
    path = tmp_path / "episodes.jsonl"
    path.write_bytes(lines[0] + b"\r\n \r\n" + b'{"reviewer_id": "caf\xe9"}\n' + b"\xc3\n" + lines[1])
    episodes, problems = load_episodes(path)
    assert [e.period for e in episodes] == [1, 2]
    assert problems == [
        f"{path}:3: not UTF-8 text (invalid continuation byte at byte 20)",
        f"{path}:4: not UTF-8 text (unexpected end of data at byte 0)",
    ]


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
def test_score_rejects_an_episode_id_that_breaks_a_line(fixtures_dir, tmp_path, capsys, field, bad):
    first, second = (fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    if field == "reviewer_id":
        record["reviewer_id"] = f"rev{bad}1"
    else:
        record["catalog"].append(f"x{bad}y")
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(record) + "\n" + second + "\n", encoding="utf-8")
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS, "--format", "text")
    assert code == EXIT_PARTIAL
    assert output.splitlines() == output.split("\n")[:-1]
    assert output.split("\n")[-2].startswith(f"  [-] {path}:1: field {field!r} must be ")
    assert "periods [2]" in output


@pytest.mark.parametrize("field", ["reviewer_id", "object"])
def test_score_rejects_a_review_id_that_breaks_a_line(fixtures_dir, tmp_path, capsys, field):
    records = json.loads((fixtures_dir / REVIEWS).read_text(encoding="utf-8"))
    records[0][field] += "\u2028"
    reviews = tmp_path / "reviews.json"
    reviews.write_text(json.dumps(records), encoding="utf-8")
    output, code = run_score(capsys, fixtures_dir / EPISODES, reviews, "--format", "text")
    assert code == EXIT_PARTIAL
    assert output.splitlines() == output.split("\n")[:-1]
    assert output.split("\n")[-2] == (
        f"  [-] {reviews}: review #0: field {field!r} must be id, got {records[0][field]!r}"
    )


def test_a_path_that_breaks_a_line_is_named_by_ascii(fixtures_dir, tmp_path, capsys):
    # A newline in a file name would split an error line in two; such a path is written as ascii() writes it.
    second = (fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines()[1]
    path = tmp_path / "z\nw.jsonl"
    name = ascii(str(path))
    path.write_text("{}\n" + second + "\n", encoding="utf-8")
    output, code = run_score(capsys, path, fixtures_dir / REVIEWS, "--format", "text")
    assert code == EXIT_PARTIAL
    assert output.split("\n")[-3:] == ["errors:", f"  [-] {name}:1: missing field 'reviewer_id'", ""]
    path.write_text("{}\n", encoding="utf-8")
    assert main(["score", str(path), str(fixtures_dir / REVIEWS)]) == EXIT_FATAL
    assert capsys.readouterr().err == (
        f"error: {name}: no reviewer could be scored (1 problem; first: {name}:1: missing field 'reviewer_id')\n"
    )
    path.unlink()
    assert main(["score", str(path), str(fixtures_dir / REVIEWS)]) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {name}: No such file or directory\n"
    path.write_text("{}", encoding="utf-8")
    for command, message in [
        ("info-index", "graded list must be a JSON array"), ("check", "missing field 'ground_set'")
    ]:
        assert main([command, str(path)]) == EXIT_FATAL
        assert capsys.readouterr().err == f"error: {name}: {message}\n"


def test_a_path_with_an_undecodable_byte_is_named_by_ascii(fixtures_dir, tmp_path, capsys):
    # The byte 0xff of a file name reaches argv as a lone surrogate, which UTF-8 cannot encode.
    second = (fixtures_dir / EPISODES).read_text(encoding="utf-8").splitlines()[1]
    path = tmp_path / os.fsdecode(b"x\xff.jsonl")
    path.write_text("{}\n" + second + "\n", encoding="utf-8")
    out = tmp_path / "o.txt"
    argv = ["score", str(path), str(fixtures_dir / REVIEWS), "--format", "text", "--out", str(out)]
    assert main(argv) == EXIT_PARTIAL
    assert capsys.readouterr() == ("", "")
    assert out.read_text(encoding="utf-8").endswith(f"  [-] {ascii(str(path))}:1: missing field 'reviewer_id'\n")


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
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SCORE_EVERY_FORMAT, "score", str(episodes), str(reviews_path)],
            capture_output=True,
            env=child_env(PYTHONHASHSEED=seed),
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
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SCORE_EVERY_FORMAT, *argv],
            capture_output=True,
            env=child_env(PYTHONHASHSEED=seed),
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


def test_score_names_a_non_object_review_once(fixtures_dir, tmp_path, capsys):
    reviews = tmp_path / "reviews.json"
    reviews.write_text(json.dumps([7]), encoding="utf-8")
    output, code = run_score(capsys, fixtures_dir / EPISODES, reviews)
    assert code == EXIT_PARTIAL
    assert [e["message"] for e in json.loads(output)["errors"]] == [
        f"{reviews}: review #0: review must be a JSON object"
    ]


def test_score_reports_each_invalid_episode_in_validation_order(fixtures_dir, tmp_path):
    # One line per validation failure, named by its file and line in every
    # format; where a stage has a repeat and an unknown id, the repeat is
    # named, and a stage is checked before the next.
    episodes = fixtures_dir / "episodes_invalid.jsonl"
    messages = [
        f"{episodes}:3: attainable set is empty",
        f"{episodes}:4: item 'M' occurs twice in stage 'attainable'",
        f"{episodes}:5: item 'N' occurs twice in stage 'wishlist'",
        f"{episodes}:6: item 'V' appears in stage 'cart' but not in the enclosing stage",
        f"{episodes}:7: item 'N' occurs twice in stage 'final'",
        f"{episodes}:8: item 'N' appears in stage 'final' but not in the enclosing stage",
        f"{episodes}:9: episode (reviewer 'empty-final', period 1) has an empty final set",
    ]
    argv = ["score", str(episodes), str(fixtures_dir / REVIEWS)]
    out = {fmt: tmp_path / f"report.{fmt}" for fmt in FORMATS}
    for fmt, path in out.items():
        assert main([*argv, "--format", fmt, "--out", str(path)]) == EXIT_PARTIAL
    report = out["text"].read_text(encoding="utf-8")
    assert "reviewer rev-1" in report
    assert report[report.index("\nerrors:\n") :] == "\nerrors:\n" + "".join(f"  [-] {m}\n" for m in messages)
    errors = json.loads(out["json"].read_text(encoding="utf-8"))["errors"]
    assert errors == [{"reviewer_id": None, "message": m} for m in messages]
    with out["csv"].open(encoding="utf-8", newline="") as f:
        rows = [row for row in csv.DictReader(f) if row["record"] == "error"]
    assert [(row["reviewer_id"], row["message"]) for row in rows] == [("", m) for m in messages]


@pytest.mark.parametrize(
    "lines, summary",
    [
        (["not json"], "1 problem; first: {path}:1: invalid JSON (Expecting value)"),
        (
            [json.dumps({"reviewer_id": "r", "period": 1, "catalog": ["a"], "wishlist": ["b"], "cart": [], "final": []})],
            "1 problem; first: {path}:1: item 'b' appears in stage 'wishlist' but not in the enclosing stage",
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
    episodes, _ = load_episodes(fixtures_dir / EPISODES)
    reviews, _ = load_reviews(fixtures_dir / REVIEWS)
    expected = cli_io.report_to_json(choicetrust.build_report(episodes, reviews, p=Fraction(p)))
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
    text = data.draw(_document(document)).encode("utf-8")
    if document == "episodes":  # and any bytes at all after the records' lines, or in their place
        text = data.draw(st.sampled_from([text, b""])) + data.draw(st.binary(max_size=32))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(text)
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


# Line contents: blank ones of spaces, tabs and CRs, records, and ones that also hold whitespace JSON does not allow.
# A lone CR may stand anywhere JSON whitespace may: in the padding, between a record's members, and at a line's end.
_BLANK = st.text(" \t\r", max_size=3)
_NOT_BLANK = st.tuples(_BLANK, st.sampled_from(_OTHER_SPACE), st.text(" \t\r" + _OTHER_SPACE, max_size=2)).map("".join)
_SEPARATORS = st.sampled_from([(", ", ": "), (",\r", ":\r"), ("\r,", "\r: ")])
_RECORD_LINE = st.tuples(
    _BLANK, st.builds(json.dumps, _near_valid("episodes") | _JSON, separators=_SEPARATORS), _BLANK
).map("".join)
_LINE = st.tuples(_RECORD_LINE | _BLANK | _NOT_BLANK, st.sampled_from(["", "\r"])).map("".join)
# Bytes that are not UTF-8 wherever they stand between two characters: a stray continuation byte, a sequence cut
# short, an overlong "/", an encoded surrogate and Latin-1 text.
_NOT_UTF8 = st.sampled_from([b"\x80", b"\xe2\x82", b"\xc0\xaf", b"\xed\xa0\x80", b"\xff", b"caf\xe9"])
_UNDECODABLE_LINE = st.builds(
    lambda line, at, bad: line[:at].encode() + bad + line[at:].encode(), _LINE, st.integers(0, 99), _NOT_UTF8
)


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE.map(str.encode) | _UNDECODABLE_LINE, max_size=8))
def test_every_episode_line_is_a_record_or_a_problem(lines):
    # No line is dropped but a blank one: each other line is an episode or a problem, exactly one, and each line
    # that is not UTF-8 is a problem naming that line.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episodes.jsonl"
        path.write_bytes(b"\n".join(lines))
        episodes, problems = load_episodes(path)
    assert len(episodes) + len(problems) == sum(1 for line in lines if line.strip(b" \t\r"))
    named = [p.partition(": not UTF-8 text (")[0] for p in problems if ": not UTF-8 text (" in p]
    assert named == [f"{path}:{n}" for n, line in enumerate(lines, start=1) if not _is_utf8(line)]


@settings(max_examples=200, deadline=None)
@given(st.lists(_near_valid("reviews") | _JSON, max_size=5))
def test_every_review_entry_is_a_record_or_a_problem(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reviews.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        reviews, problems = load_reviews(path)
    assert len(reviews) + len(problems) == len(doc)


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
    # The writer lays out the text of one json.dumps call, as info-index and check write their documents.
    assume(key not in head and key not in tail and not head.keys() & tail.keys())
    encode = lambda item: json.dumps(item, indent=2).replace("\n", "\n    ")  # an item at the list's depth
    chunks = list(cli_io._json_document(head, key, iter(items), tail, encode))
    assert len(chunks) == len(items) + 2
    assert "".join(chunks) == json.dumps({**head, key: items, **tail}, indent=2, ensure_ascii=True) + "\n"


def test_json_writer_refuses_what_json_dumps_refuses():
    # Head and tail fields are written by json.dumps; items only by `encode`.
    for value in (object(), {"set": {1}}):
        for head, tail in (({"field": value}, {}), ({}, {"field": value})):
            with pytest.raises(TypeError) as ours:
                "".join(cli_io._json_document(head, "items", ["item"], tail, str))
            with pytest.raises(TypeError) as stdlib:
                json.dumps({**head, "items": ["item"], **tail}, indent=2)
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


def test_score_runs_without_numpy(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(out)]
    child = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (EXIT_OK, "")
    expected, _ = run_score(capsys, fixtures_dir / EPISODES, fixtures_dir / REVIEWS)
    assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["one section", "many sections", "tau"])
def test_a_closed_stdout_is_a_one_line_error(fixtures_dir, tmp_path, command, unbuffered):
    if command == "one section":
        argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS)]
    elif command == "many sections":
        argv = ["score", *map(str, many_reviewers(tmp_path, 400))]
    else:
        argv = ["tau", "4", "2"]
    env = child_env(PYTHONUNBUFFERED="1") if unbuffered else child_env()
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["score", "--help"]], ids=" ".join)
def test_help_or_the_version_on_a_full_stdout_is_a_one_line_error(argv, unbuffered):
    # Unbuffered, argparse's own write would fail at once, and argparse would drop its error.
    env = child_env(PYTHONUNBUFFERED="1") if unbuffered else child_env()
    with open("/dev/full", "wb") as full:
        child = subprocess.run(
            [sys.executable, "-m", "choicetrust.cli_io", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    error = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (child.returncode, child.stderr.decode("utf-8")) == (EXIT_FATAL, error)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_score_writes_the_same_bytes_to_stdout_and_to_out(tmp_path, fmt):
    argv = ["score", *map(str, many_reviewers(tmp_path)), "--format", fmt]
    out = tmp_path / f"report.{fmt}"
    assert main([*argv, "--out", str(out)]) == EXIT_PARTIAL
    child = subprocess.run(
        [sys.executable, "-m", "choicetrust.cli_io", *argv],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (EXIT_PARTIAL, b"")
    assert child.stdout == out.read_bytes()
    assert b"r39" in child.stdout and b"zz" in child.stdout  # the last section and the tail


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv",
    [["tau", "4", "2"], ["tau", "3", "3"], ["info-index", _IFS], ["check", _VIOLATING], ["info-index", "empty.json"]],
)
def test_the_other_commands_run_alike_under_python_m(tmp_path, monkeypatch, capsys, argv, fmt):
    monkeypatch.chdir(tmp_path)
    Path("empty.json").write_text("[]", encoding="utf-8")
    argv = [*argv, "--format", fmt]
    code = main(argv)
    out, err = capsys.readouterr()
    child = subprocess.run(
        [sys.executable, "-m", "choicetrust.cli_io", *argv], capture_output=True, env=child_env(), timeout=60
    )
    assert (child.returncode, child.stdout.decode("utf-8"), child.stderr.decode("utf-8")) == (code, out, err)
    assert code == (EXIT_FATAL if "empty.json" in argv else EXIT_OK)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "episodes, reviews, code",
    [(_E, _R, EXIT_OK), (str(FIXTURES / "episodes_invalid.jsonl"), _R, EXIT_PARTIAL), (_E, "missing.json", EXIT_FATAL)],
)
def test_score_runs_alike_under_python_m(tmp_path, monkeypatch, capsys, episodes, reviews, code, fmt):
    monkeypatch.chdir(tmp_path)
    argv = ["score", episodes, reviews, "--format", fmt]
    assert main(argv) == code
    out, err = capsys.readouterr()
    child = subprocess.run(
        [sys.executable, "-m", "choicetrust.cli_io", *argv], capture_output=True, env=child_env(), timeout=60
    )
    assert (child.returncode, child.stdout.decode("utf-8"), child.stderr.decode("utf-8")) == (code, out, err)


def test_entry_freezes_the_heap_once_then_exits_with_mains_code(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    # Patched too, or the collector would stay off for the rest of the session.
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli_io, "main", lambda: calls.append("main") or EXIT_PARTIAL)
    with pytest.raises(SystemExit) as exited:
        cli_io.entry()
    assert calls == ["freeze", "disable", "main"]
    assert exited.value.code == EXIT_PARTIAL


def test_importing_cli_io_and_running_main_leave_the_collector_on(fixtures_dir, tmp_path):
    argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(tmp_path / "r.json")]
    assert main(argv) == EXIT_OK
    assert gc.isenabled()
    child = subprocess.run(
        [sys.executable, "-c", "import gc, choicetrust.cli_io; print(gc.isenabled())"],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (EXIT_OK, b"True\n", b"")


def test_a_runs_cyclic_garbage_does_not_grow_with_its_input(tmp_path):
    # As the process entry runs it: frozen, with the collector off. Each run's garbage is then all that
    # gc.collect() finds, and it must not grow when the input does.
    sizes = []
    for count in (200, 800):
        (tmp_path / str(count)).mkdir()
        episodes, reviews = many_reviewers(tmp_path / str(count), count)
        # One rejected record of each kind per ten reviewers: an error must leave no cycle behind either.
        junk = ["{", '{"reviewer_id": 1}', '{"reviewer_id": "r0", "period": 1, "catalog": ["a"], "wishlist": ["b"], '
                '"cart": [], "final": []}', '{"reviewer_id": "r1", "period": 2, "catalog": ["a"], "wishlist": ["a"], '
                '"cart": ["a"], "final": ["a"]}']
        with episodes.open("a", encoding="utf-8") as lines:
            lines.writelines(line + "\n" for line in junk * (count // 10))
        records = json.loads(reviews.read_text(encoding="utf-8"))
        records += [{"reviewer_id": "r2", "object": "a", "rating": 9}, 7] * (count // 10)
        reviews.write_text(json.dumps(records), encoding="utf-8")
        sizes.append((episodes, reviews))
    small, large = sizes
    runs = [
        [["score", str(episodes), str(reviews), "--format", fmt] for episodes, reviews in (small, large)]
        for fmt in FORMATS
    ]
    runs.append([["tau", "4", "2"], ["tau", "8", "2"]])
    # A graded list of 20 and of 80 elements, and complete choice tables over 3 and 6 objects that choose by
    # one order, so every subset is checked and the first order tried fits.
    lists, tables = [], []
    for count, objects in ((20, "abc"), (80, "abcdef")):
        lists.append(tmp_path / f"ifs{count}.json")
        lists[-1].write_text(json.dumps([{"id": f"e{k}", "mu": k / (2 * count), "nu": 0.25} for k in range(count)]))
        subsets = [s for size in range(1, len(objects) + 1) for s in itertools.combinations(objects, size)]
        tables.append(tmp_path / f"table{len(objects)}.json")
        tables[-1].write_text(json.dumps({"ground_set": list(objects),
                                          "choices": [{"set": list(s), "choice": s[0]} for s in subsets]}))
    for command, paths in (("info-index", lists), ("check", tables)):
        runs += [[[command, str(path), "--format", fmt] for path in paths] for fmt in FORMATS]
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for argvs in runs:
            garbage = []
            for argv in argvs:
                assert main([*argv, "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_PARTIAL)
                garbage.append(gc.collect())
            assert garbage[0] == garbage[1], argvs
    finally:
        gc.enable()
        gc.unfreeze()


def test_main_in_process_freezes_nothing(fixtures_dir, tmp_path):
    before = gc.get_freeze_count()
    argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(tmp_path / "r.json")]
    try:
        assert main(argv) == EXIT_OK
        assert gc.get_freeze_count() == before
    finally:
        if gc.get_freeze_count() != before:
            gc.unfreeze()


def test_importing_cli_io_freezes_nothing():
    child = subprocess.run(
        [sys.executable, "-c", "import gc, choicetrust.cli_io; print(gc.get_freeze_count())"],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (EXIT_OK, b"0\n", b"")


def _imported(*argv):
    """The exit code of `python -m choicetrust.cli_io` run on `argv`, and the modules it imported."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "choicetrust.cli_io", *argv],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    return child.returncode, {line.rpartition("|")[2].strip() for line in child.stderr.decode("utf-8").splitlines()}


def test_python_m_loads_cli_io_once():
    # The running module stands in for `choicetrust.cli_io` when `cli_commands` imports its helpers.
    code, imported = _imported("tau", "4", "2")
    assert code == EXIT_OK and "choicetrust.cli_commands" in imported
    assert "choicetrust.cli_io" not in imported


# Tokens of command lines that `_plain_score` reads and of lines it must leave to argparse: abbreviations, "--",
# values and positionals that start with "-", values out of their choices, help, the version and other commands.
_ARGV_TOKENS = [
    "score", "tau", "check", "info-index", "E", "R", "a=b", "", " ", "-", "--", "-1", "-0.5", "0.3", "1/2",
    "--out", "--out=", "--out=x", "--out=-x", "--out=--version", "--p", "--p=0.3", "--p=-0.5", "--p==", "--P",
    "--format", "--format=csv", "--format=xml", "--form", "--form=csv", "json", "csv", "text", "xml",
    "--membership", "--memb", "minmax", "smoothed", "--d0-zone", "--d0-zone=irrational", "--d0", "rational",
    "irrational", "-h", "--help", "--version",
]
_ARGVS = st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8)


@settings(max_examples=400)
@given(_ARGVS | _ARGVS.flatmap(lambda extra: st.permutations(["E", "R", *extra])).map(lambda rest: ["score", *rest]))
@example(["score", "E", "R", "--format", "csv", "--format=text", "--p", "0.3"])
@example(["score", "E", "--out=", "R", "--d0-zone", "irrational"])
def test_a_plain_score_line_parses_as_argparse_parses_it(argv):
    plain = cli_io._plain_score(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(cli_io._build_parser().parse_args(argv))
    except SystemExit:  # help, the version or a usage error: argparse's to write
        parsed = None
    assert plain is None or vars(plain) == parsed


def test_a_plain_score_line_never_loads_argparse(fixtures_dir):
    episodes, reviews = str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS)
    code, imported = _imported("score", episodes, reviews, "--p=0.3", "--format", "csv", "--out", os.devnull)
    assert code == EXIT_OK and {"argparse", "gettext", "locale"}.isdisjoint(imported)
    # Any other line is argparse's to parse.
    for argv in (["score", "--help"], ["tau", "4", "2"], ["score", episodes, reviews, "--form", "csv"]):
        code, imported = _imported(*argv)
        assert code == EXIT_OK and "argparse" in imported


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


def _failing_mid_stream(fault):
    """A json renderer that writes the report's head and first section, then raises `fault`."""

    def render(report):
        yield from itertools.islice(cli_io._json_stream(report), 2)
        raise fault

    return render


@pytest.mark.parametrize(
    "fault", [MemoryError(), OSError(28, "No space left on device"), DomainError("broken renderer")]
)
def test_a_score_that_fails_mid_stream_leaves_no_out_file(fixtures_dir, tmp_path, monkeypatch, capsys, fault):
    monkeypatch.setitem(cli_io._REPORT_RENDERERS, "json", _failing_mid_stream(fault))
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    assert main(["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(out)]) == EXIT_FATAL
    assert not out.exists()
    assert capsys.readouterr().err.count("\n") == 1


def test_a_score_that_fails_mid_stream_keeps_a_device_out(fixtures_dir, monkeypatch, capsys):
    removed = []
    monkeypatch.setattr(os, "unlink", removed.append)
    monkeypatch.setattr(os, "remove", removed.append)
    monkeypatch.setitem(cli_io._REPORT_RENDERERS, "json", _failing_mid_stream(MemoryError()))
    argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", os.devnull]
    assert main(argv) == EXIT_FATAL
    assert removed == []
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_out_is_named_in_the_error(fixtures_dir, monkeypatch, capsys):
    removed = []
    monkeypatch.setattr(os, "unlink", removed.append)
    argv = ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", "/dev/full"]
    assert main(argv) == EXIT_FATAL
    assert removed == []
    assert capsys.readouterr() == ("", "error: /dev/full: No space left on device\n")


def test_a_failed_write_to_out_is_named_in_the_error(fixtures_dir, tmp_path, monkeypatch, capsys):
    class Full(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    opened = lambda path, mode, encoding: io.TextIOWrapper(io.BufferedWriter(Full(path, mode)), encoding=encoding)
    monkeypatch.setattr(cli_io, "open", opened, raising=False)
    out = tmp_path / "report.json"
    assert main(["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(out)]) == EXIT_FATAL
    assert not out.exists()
    assert capsys.readouterr() == ("", f"error: {out}: {os.strerror(errno.ENOSPC)}\n")
