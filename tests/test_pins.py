import json

import pytest

import pins


@pytest.fixture
def summary_rows():
    return json.loads(pins.PINS_PATH.read_text())["pins"]["c12_summary"]


def _scaled(rows, factor):
    """rows with the first metric cell multiplied by factor."""
    rows = [list(row) for row in rows]
    rows[1][1] = repr(float(rows[1][1]) * factor)
    return rows


def test_same_builds_compare_byte_for_byte(summary_rows):
    pins.check("c12_summary", summary_rows)
    with pytest.raises(AssertionError, match="compared byte for byte"):
        pins.check("c12_summary", _scaled(summary_rows, 1 + 5e-13))


def test_other_builds_compare_to_1e_12_relative_and_say_so(monkeypatch, summary_rows):
    monkeypatch.setattr(pins, "environment", lambda: {"numpy": "other"})
    pins.check("c12_summary", _scaled(summary_rows, 1 + 5e-13))
    with pytest.raises(AssertionError, match=r"compared to 1e-12 relative.*largest relative "
                                             r"difference 1e-09"):
        pins.check("c12_summary", _scaled(summary_rows, 1 + 1e-9))


def test_a_missing_row_is_a_difference(summary_rows):
    with pytest.raises(AssertionError, match="1 row"):
        pins.check("c12_summary", summary_rows[:-1])
