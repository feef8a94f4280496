import gc
import json
import sys

import numpy as np
import pytest

from stackgrasp._json import (
    DocumentError,
    box_row,
    grasp_rect,
    integer,
    json_list,
    load,
    number,
    number_list,
    read_file,
    string,
)
from stackgrasp.geometry import AABox, OrientedRect
from stackgrasp.perception import parse_predictions


class TestLoad:
    def test_document(self):
        assert load('{"a": [1, 2.5, "x", null]}') == {"a": [1, 2.5, "x", None]}

    @pytest.mark.parametrize(
        "text, message",
        [("[1,", "not valid JSON"), ("[" * 200_000 + "]" * 200_000, "nested too deeply")],
    )
    def test_errors_are_at_the_root(self, text, message):
        with pytest.raises(DocumentError, match=message) as exc:
            load(text)
        assert exc.value.where == "$"


    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_integer_past_the_digit_limit(self):
        with pytest.raises(DocumentError, match="not valid JSON") as exc:
            load("[" + "1" * (sys.get_int_max_str_digits() + 1) + "]")
        assert exc.value.where == "$"


def dense_predictions_text(n: int, seed: int = 0) -> str:
    """A predictions document of n detections and a relation row for every
    ordered pair, about 3n**2 decoded containers."""
    rng = np.random.default_rng(seed)
    detections = [
        {"id": i, "category": "cup", "bbox": [10.0 * i, 0.0, 10.0 * i + 8.0, 8.0], "score": 0.5,
         "grasps": [{"rect": [10.0 * i + 4.0, 4.0, 6.0, 2.0, 0.0], "confidence": 0.9}]}
        for i in range(n)
    ]
    relations = [
        {"pair": [a, b], "probs": [float(p) for p in rng.dirichlet([1.0] * 3)]}
        for a in range(n) for b in range(n) if a != b
    ]
    return json.dumps({"detections": detections, "relations": relations})


def failing_parse(text):
    raise ValueError("no good")


class TestReadFile:
    """read_file pauses the cyclic garbage collector while it reads and
    parses, and leaves it on or off as it found it."""

    @pytest.fixture
    def collector(self):
        """Sets the collector's state for a test and restores it after."""
        was_on = gc.isenabled()

        def set_state(on: bool) -> None:
            gc.enable() if on else gc.disable()

        yield set_state
        set_state(was_on)

    @pytest.mark.parametrize("on", [True, False])
    def test_paused_during_a_read_and_restored(self, tmp_path, collector, on):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2]}')
        collector(on)
        states = []

        def parse(text):
            states.append(gc.isenabled())
            return load(text)

        assert read_file(path, parse) == {"a": [1, 2]}
        assert states == [False]
        assert gc.isenabled() is on

    @pytest.mark.parametrize("on", [True, False])
    @pytest.mark.parametrize(
        "name, text, parse, message",
        [
            ("missing.json", None, load, "No such file"),
            ("bad.json", "[1,", load, "not valid JSON"),
            ("doc.json", "[]", failing_parse, "no good"),
        ],
        ids=["missing", "bad-json", "parse-error"],
    )
    def test_restored_after_an_error(self, tmp_path, collector, on, name, text, parse, message):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        collector(on)
        with pytest.raises(DocumentError, match=message) as exc:
            read_file(path, parse)
        assert exc.value.where == str(path)
        assert gc.isenabled() is on

    def test_no_collection_while_a_dense_file_is_read(self, tmp_path, collector):
        path = tmp_path / "dense.json"
        path.write_text(dense_predictions_text(60))
        collector(True)
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(record)
        try:
            preds = read_file(path, parse_predictions)
        finally:
            gc.callbacks.remove(record)
        assert len(preds.detections) == 60 and len(preds.relations) == 60 * 59
        assert started == []


class TestFields:
    def test_integer_takes_only_integers(self):
        assert integer("n", 7) == 7
        for value in (True, 7.0, float("inf"), "7", None, [7]):
            with pytest.raises(ValueError, match="n must be an integer"):
                integer("n", value)

    def test_number_reads_integers_as_floats(self):
        assert number("x", 0.5) == 0.5
        assert type(number("x", 2)) is float
        for value in (True, "0.5", None, [0.5]):
            with pytest.raises(ValueError, match="x must be a number"):
                number("x", value)

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="x is too large for a float"):
            number("x", 10**400)
        with pytest.raises(ValueError, match=r"bbox\[1\] is too large for a float"):
            number_list("bbox", [0, 10**400, 1.5])

    def test_string(self):
        assert string("s", "cup") == "cup"
        for value in (5, None, ["cup"], True):
            with pytest.raises(ValueError, match="s must be a string"):
                string("s", value)


class TestLists:
    def test_json_list(self):
        assert json_list({"a": [1]}, "a") == [1]
        assert json_list({}, "a") == []
        with pytest.raises(DocumentError, match="a: expected a list, got dict") as exc:
            json_list({"a": {}}, "a")
        assert exc.value.where == "a"
        with pytest.raises(DocumentError, match=r"x\[0\].a: expected a list"):
            json_list({"a": 5}, "a", "x[0].a")

    def test_number_list(self):
        values = number_list("bbox", [0, 1.5, 2, 3.25], 4)
        assert values == [0.0, 1.5, 2.0, 3.25]
        assert all(type(v) is float for v in values)
        assert number_list("probs", [1, 0]) == [1.0, 0.0]

    @pytest.mark.parametrize(
        "value, message",
        [
            ([0, 0, 10], "bbox needs 4 values, got 3"),
            ((0, 0, 10, 10), "bbox must be a list"),
            ("0 0 10 10", "bbox must be a list"),
            ([0, 0, 10, True], r"bbox\[3\] must be a number, got True"),
            ([0, 0, "10", 10], r"bbox\[2\] must be a number, got '10'"),
            ([0, None, 10, 10], r"bbox\[1\] must be a number, got None"),
        ],
    )
    def test_number_list_names_the_bad_item(self, value, message):
        with pytest.raises(ValueError, match=message):
            number_list("bbox", value, 4)


class TestRowReaders:
    def test_box_row(self):
        row = {"id": 3, "category": "cup", "bbox": [1.0, 2.0, 3.0, 4.0]}
        assert box_row(row) == (3, "cup", AABox(1.0, 2.0, 3.0, 4.0))
        # integer coordinates take the strict path and are read as floats
        instance_id, category, box = box_row({**row, "bbox": [1, 2, 3, 4]})
        assert (instance_id, category, box) == (3, "cup", AABox(1.0, 2.0, 3.0, 4.0))
        assert all(type(v) is float for v in box.as_tuple())

    @pytest.mark.parametrize(
        "row, message",
        [
            (True, "expected an object, got bool"),
            ([3, "cup"], "expected an object, got list"),
            ({"id": 3.0, "category": "", "bbox": [0]}, "id must be an integer"),
            ({"id": 3, "category": "", "bbox": [0]}, "empty category name"),
            ({"id": 3, "category": 5, "bbox": [0]}, "category must be a string"),
            ({"id": 3, "category": "cup", "bbox": [0, 0, 1]}, "bbox needs 4 values"),
            ({"id": 3, "category": "cup", "bbox": [0.0, 0.0, 1e200, 1e200]}, "overflows to inf"),
        ],
    )
    def test_box_row_names_the_first_bad_field(self, row, message):
        with pytest.raises(ValueError, match=message):
            box_row(row)

    def test_box_row_missing_field(self):
        with pytest.raises(KeyError, match="category"):
            box_row({"id": 3, "bbox": [0.0, 0.0, 1.0, 1.0]})

    def test_grasp_rect(self):
        assert grasp_rect({"rect": [1.0, 2.0, 3.0, 4.0, 5.0]}) == OrientedRect(1.0, 2.0, 3.0, 4.0, 5.0)
        rect = grasp_rect({"rect": [1, 2, 3, 4, 5], "owner": 1})
        assert rect == OrientedRect(1.0, 2.0, 3.0, 4.0, 5.0) and type(rect.x) is float

    @pytest.mark.parametrize(
        "row, message",
        [
            (None, "expected an object, got NoneType"),
            ({"rect": (1.0, 2.0, 3.0, 4.0, 5.0)}, "rect must be a list"),
            ({"rect": [1.0, 2.0, 3.0, 4.0]}, "rect needs 5 values"),
            ({"rect": [1.0, 2.0, "3", 4.0, 5.0]}, r"rect\[2\] must be a number"),
            ({"rect": [1.0, 2.0, 0.0, 4.0, 5.0]}, "degenerate rectangle"),
        ],
    )
    def test_grasp_rect_errors(self, row, message):
        with pytest.raises(ValueError, match=message):
            grasp_rect(row)
