import json

import pytest

from retword.checks import Check


def test_of_maps_booleans_to_pass_and_fail():
    assert Check.of("x", True) == Check("x", "pass")
    assert Check.of("x", False, "at letter a") == Check("x", "fail", "at letter a")
    assert Check.of("x", True).passed
    assert not Check.of("x", False).passed


@pytest.mark.parametrize("outcome", ["found", "absent"])
def test_search_outcomes_are_not_passes(outcome):
    assert not Check("search", outcome).passed


def test_search_is_found_with_its_witness_or_absent_with_its_bound():
    assert Check.search("delay", 0, "no delay <= 64") == Check("delay", "found", witness=0)
    assert Check.search("pair", [2, 1], "no pair <= 6") == Check("pair", "found", witness=[2, 1])
    assert Check.search("pair", None, "no pair <= 6") == Check("pair", "absent", "no pair <= 6")


def test_unknown_outcome_refused():
    with pytest.raises(ValueError):
        Check("x", "maybe")


def test_json_key_order_and_omissions():
    assert Check("x", "pass").as_json() == {"name": "x", "outcome": "pass"}
    both = Check("x", "found", detail="d", witness=[1, 2]).as_json()
    assert list(both) == ["name", "outcome", "witness", "detail"]
    assert json.dumps(Check("x", "absent", "no pair <= 6").as_json()) == (
        '{"name": "x", "outcome": "absent", "detail": "no pair <= 6"}'
    )


def test_falsy_witness_and_detail_kept():
    assert Check("delay", "found", witness=0).as_json()["witness"] == 0
    assert Check("x", "pass", detail="").as_json()["detail"] == ""
    assert Check("x", "found", witness=False).as_json()["witness"] is False
