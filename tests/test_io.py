import json
from datetime import datetime, timedelta

import pytest

from shelfhom.errors import DistributivityViolation, ParseError
from shelfhom.io import (
    dump_report,
    finish_report,
    load_structure,
    structure_from_doc,
    structure_to_doc,
)
from shelfhom.tables import MultiShelf, Shelf


GOOD = {"size": 2, "ops": [[[0, 0], [1, 1]]]}


def test_round_trip_single_op(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(GOOD))
    shelf = load_structure(path)
    assert isinstance(shelf, Shelf)
    assert structure_to_doc(shelf)["ops"] == GOOD["ops"]


def test_round_trip_multi_op():
    doc = {
        "size": 2,
        "ops": [[[0, 0], [1, 1]], [[0, 1], [0, 1]]],
        "labels": ["p", "q"],
    }
    ms = structure_from_doc(doc)
    assert isinstance(ms, MultiShelf)
    assert len(ms.ops) == 2


@pytest.mark.parametrize("doc", [
    [],                                      # not an object
    {"ops": [[[0]]]},                        # missing size
    {"size": 1},                             # missing ops
    {"size": 0, "ops": [[[0]]]},             # bad size
    {"size": 2, "ops": []},                  # empty ops
    {"size": 2, "ops": [[[0, 0], [1]]]},     # ragged
    {"size": 2, "ops": [[[0, 7], [1, 1]]]},  # entry out of range
    {"size": 2, "ops": [[[0, 0], [1, 1]]], "labels": ["only-one"]},
    {"size": 2, "ops": [[[0, 0], [1, 1]]], "labels": [0, 1]},  # not strings
    {"size": True, "ops": [[[0]]]},          # JSON true is not a size
    {"size": 2, "ops": [[[0, True], [0, 1]]]},  # nor a table entry
])
def test_structural_problems_raise_parse_error(doc):
    with pytest.raises(ParseError):
        structure_from_doc(doc)


def test_law_violations_keep_their_own_type():
    doc = {"size": 3, "ops": [[[ (x + y) % 3 for y in range(3)] for x in range(3)]]}
    with pytest.raises(DistributivityViolation):
        structure_from_doc(doc)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_structure(tmp_path / "nope.json")


def test_finish_report_and_dump(tmp_path):
    report = finish_report({"x": 1}, no_timestamp=True)
    assert report == {"schema": 1, "x": 1}
    stamped = finish_report({"x": 1})
    when = datetime.fromisoformat(stamped["generated_at"])
    assert when.utcoffset() == timedelta(0)
    path = tmp_path / "r.json"
    text = dump_report(report, path)
    assert path.read_text() == text
    assert json.loads(text) == report
