"""The worked-example table: coverage, determinism and the control hook."""

import json
from pathlib import Path

from spectral_lb.reproduce import build_rows, format_table, rows_to_json


def test_all_rows_pass():
    rows = build_rows()
    bad = [r for r in rows if not r.passed]
    assert not bad, [(r.example, r.quantity) for r in bad]


def test_expected_examples_covered():
    rows = build_rows()
    examples = {r.example for r in rows}
    for needed in (
        "five-cycle",
        "petersen",
        "srg-parameters",
        "cartesian-hamming",
        "dodecahedron",
        "multipartite",
        "line-graphs",
        "twigs",
        "johnson",
        "kneser",
        "direct-product",
        "composition",
        "triangulations",
        "shrikhande",
        "ratio-bounds",
        "essential-vertices",
        "lambda-star",
        "circulants",
        "star-free",
        "cubic-claw-free",
    ):
        assert needed in examples, needed


def test_negative_control_isolated_to_petersen():
    rows = build_rows(perturb="petersen")
    failing = {r.example for r in rows if not r.passed}
    assert failing == {"petersen"}


def test_json_round_trips_and_sorts():
    rows = build_rows()
    doc = rows_to_json(rows)
    text1 = json.dumps(doc, indent=2, sort_keys=True)
    text2 = json.dumps(rows_to_json(build_rows()), indent=2, sort_keys=True)
    assert text1 == text2
    assert doc["passed"] is True


def test_table_renders():
    rows = build_rows()[:5]
    table = format_table(rows)
    assert "example" in table and "pass" in table


def test_rows_match_the_published_table():
    # the benchmark compares every row's (example, quantity, expected) with this file
    published = Path(__file__).resolve().parents[1] / "bench" / "reproduce_published.json"
    rows = [[r.example, r.quantity, r.expected] for r in build_rows()]
    assert rows == json.loads(published.read_text())
