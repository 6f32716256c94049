import json

import pytest

from choicetrust.cli_io import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    ParseError,
    choice_table_to_json,
    cmd_check,
    cmd_info_index,
    cmd_score,
    cmd_tau,
    episodes_to_jsonl,
    ifs_list_to_json,
    load_choice_table,
    load_episodes,
    load_ifs_list,
    load_reviews,
    main,
    reviews_to_json,
    tau_rows,
)

EPISODES = "episodes_canonical.jsonl"
REVIEWS = "reviews_canonical.json"


def test_episode_roundtrip(fixtures_dir, tmp_path):
    episodes, problems = load_episodes(fixtures_dir / EPISODES)
    assert not problems and len(episodes) == 2
    out = tmp_path / "eps.jsonl"
    out.write_text(episodes_to_jsonl(episodes), encoding="utf-8")
    again, problems = load_episodes(out)
    assert not problems and again == episodes


def test_reviews_roundtrip(fixtures_dir, tmp_path):
    reviews, problems = load_reviews(fixtures_dir / REVIEWS)
    assert not problems and len(reviews) == 4
    out = tmp_path / "reviews.json"
    out.write_text(reviews_to_json(reviews), encoding="utf-8")
    again, problems = load_reviews(out)
    assert not problems and again == reviews


def test_ifs_roundtrip(fixtures_dir, tmp_path):
    lst = load_ifs_list(fixtures_dir / "ifs_list.json")
    out = tmp_path / "ifs.json"
    out.write_text(ifs_list_to_json(lst), encoding="utf-8")
    assert load_ifs_list(out) == lst


def test_choice_table_roundtrip(fixtures_dir, tmp_path):
    table = load_choice_table(fixtures_dir / "choice_table_chain.json")
    out = tmp_path / "table.json"
    out.write_text(choice_table_to_json(table), encoding="utf-8")
    again = load_choice_table(out)
    assert again.ground_set == table.ground_set and again.choices == table.choices


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
    rows = tau_rows(4, 2)
    assert len(rows) == 16
    freq = {}
    for row in rows:
        freq[row["bar"]] = row["frequency"]
    assert freq == {"A": 3, "B": 2, "C": 1, "D": 4, "E": 3, "F": 2, "G": 1}


def test_cmd_tau_sizes():
    assert len(tau_rows(2, 1)) == 2
    assert len(tau_rows(3, 2)) == 9
    out = cmd_tau(3, 2, fmt="csv")
    assert out.count("\n") == 10  # header + nine rows


def test_cmd_tau_rejects_bad_arguments():
    with pytest.raises(Exception):
        tau_rows(1, 2)
    with pytest.raises(Exception):
        tau_rows(4, 0)


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
    assert capsys.readouterr().err.startswith(f"error: {path}: field ")


def test_reports_are_byte_identical_across_runs(fixtures_dir, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(
            ["score", str(fixtures_dir / EPISODES), str(fixtures_dir / REVIEWS), "--out", str(out)]
        ) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
