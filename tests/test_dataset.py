import itertools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgrasp._json import DocumentError
from stackgrasp.dataset import (
    SceneGrasp,
    SceneObject,
    SceneRecord,
    hflip,
    load_scene,
    parse_scene,
    record_to_predictions,
    relation_label,
    rot90,
    serialize_scene,
)
from stackgrasp.geometry import AABox, OrientedRect

from stackgrasp.simulation import TrialConfig, generate_scene

from oracle_utils import reference_hflip, reference_rot90, scan_relation_label


def sample_record() -> SceneRecord:
    return SceneRecord(
        width=640,
        height=480,
        objects=(
            SceneObject(1, "cup", AABox(100.0, 80.0, 220.0, 200.0)),
            SceneObject(2, "notebook", AABox(130.5, 120.25, 190.0, 170.0)),
            SceneObject(5, "pen", AABox(400.0, 300.0, 520.0, 340.0)),
        ),
        grasps=(
            SceneGrasp(1, OrientedRect(160.0, 140.0, 60.0, 24.0, -30.0)),
            SceneGrasp(2, OrientedRect(160.0, 145.0, 40.0, 16.0, 15.5)),
            SceneGrasp(5, OrientedRect(460.0, 320.0, 80.0, 20.0, 0.0)),
        ),
        relations=((2, 1),),
        image_path="scenes/0001.png",
        depth_path="scenes/0001.pgm",
    )


class TestSceneRecordValidation:
    def test_bad_size(self):
        with pytest.raises(ValueError, match="bad image size"):
            SceneRecord(width=0, height=480, objects=(), grasps=(), relations=())

    def test_duplicate_ids(self):
        objs = (
            SceneObject(1, "cup", AABox(0, 0, 10, 10)),
            SceneObject(1, "box", AABox(20, 20, 30, 30)),
        )
        with pytest.raises(ValueError, match="duplicate object ids"):
            SceneRecord(width=100, height=100, objects=objs, grasps=(), relations=())

    def test_box_outside_image(self):
        objs = (SceneObject(1, "cup", AABox(0, 0, 120, 10)),)
        with pytest.raises(ValueError, match="outside the image"):
            SceneRecord(width=100, height=100, objects=objs, grasps=(), relations=())

    def test_unknown_grasp_owner(self):
        objs = (SceneObject(1, "cup", AABox(0, 0, 10, 10)),)
        grasps = (SceneGrasp(9, OrientedRect(5, 5, 4, 2, 0)),)
        with pytest.raises(ValueError, match="owner 9"):
            SceneRecord(width=100, height=100, objects=objs, grasps=grasps, relations=())

    def test_relation_unknown_object(self):
        objs = (SceneObject(1, "cup", AABox(0, 0, 10, 10)),)
        with pytest.raises(ValueError, match="unknown object"):
            SceneRecord(
                width=100, height=100, objects=objs, grasps=(), relations=((1, 9),)
            )

    def test_self_relation(self):
        objs = (SceneObject(1, "cup", AABox(0, 0, 10, 10)),)
        with pytest.raises(ValueError, match="related to itself"):
            SceneRecord(
                width=100, height=100, objects=objs, grasps=(), relations=((1, 1),)
            )

    def test_conflicting_relation(self):
        objs = (
            SceneObject(1, "cup", AABox(0, 0, 10, 10)),
            SceneObject(2, "box", AABox(20, 20, 30, 30)),
        )
        with pytest.raises(ValueError, match="conflicting or duplicate"):
            SceneRecord(
                width=100,
                height=100,
                objects=objs,
                grasps=(),
                relations=((1, 2), (2, 1)),
            )

    def test_lookup_helpers(self):
        rec = sample_record()
        assert [g.owner for g in rec.grasps_of(1)] == [1]


class TestRelationLabel:
    def test_all_classes(self):
        rec = sample_record()
        assert relation_label(rec.above, 2, 1) == 1
        assert relation_label(rec.above, 1, 2) == 2
        assert relation_label(rec.above, 1, 5) == 0
        assert relation_label(rec.above, 2, 9) == relation_label(rec.above, 9, 2) == 0

    def test_above_is_a_cached_read_only_index(self):
        rec = sample_record()
        assert rec.above == {1: {2}, 2: set(), 5: set()}
        assert list(rec.above) == [1, 2, 5]  # record order
        assert all(type(on) is frozenset for on in rec.above.values())
        assert rec.above is rec.above
        with pytest.raises(TypeError):
            rec.above[5] = frozenset({1})

    def test_a_record_pickles_after_its_index_is_read(self):
        rec = sample_record()
        assert rec.above[1] == {2}
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec
        assert copy.above == rec.above


@st.composite
def related_records(draw):
    """A record of up to seven objects, each ordered pair related one way,
    the other or not at all."""
    ids = draw(st.lists(st.integers(-5, 50), max_size=7, unique=True))
    relations = []
    for a, b in itertools.combinations(ids, 2):
        way = draw(st.sampled_from(["none", "above", "below"]))
        if way != "none":
            relations.append((a, b) if way == "above" else (b, a))
    objects = tuple(SceneObject(i, "cup", AABox(0.0, 0.0, 1.0, 1.0)) for i in ids)
    return SceneRecord(10, 10, objects, (), relations=tuple(draw(st.permutations(relations))))


class TestRelationLabelOracle:
    """``relation_label`` over ``SceneRecord.above`` gives the class of a
    scan of the relations tuple (tests/oracle_utils.scan_relation_label),
    for every ordered pair and for ids the record lacks."""

    @staticmethod
    def assert_matches_scan(rec):
        ids = [o.instance_id for o in rec.objects] + [-6, 51]
        for a, b in itertools.product(ids, repeat=2):
            assert relation_label(rec.above, a, b) == scan_relation_label(rec, a, b), (a, b)

    @settings(max_examples=200, deadline=None)
    @given(related_records())
    def test_hand_built_records(self, rec):
        self.assert_matches_scan(rec)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), depth=st.integers(0, 4))
    def test_generated_records(self, seed, depth):
        self.assert_matches_scan(generate_scene(seed, TrialConfig(count_range=(1, 6), max_stack_depth=depth)))


class TestParseSerialize:
    def test_round_trip_preserves_record(self):
        rec = sample_record()
        assert parse_scene(serialize_scene(rec)) == rec

    def test_decoded_document_parses_like_text(self):
        text = serialize_scene(sample_record())
        assert parse_scene(json.loads(text)) == parse_scene(text)

    def test_serialize_parse_serialize_byte_identical(self):
        text = serialize_scene(sample_record())
        assert serialize_scene(parse_scene(text)) == text

    def test_optional_paths_omitted(self):
        rec = SceneRecord(
            width=64,
            height=48,
            objects=(SceneObject(1, "cup", AABox(0.0, 0.0, 10.0, 10.0)),),
            grasps=(),
            relations=(),
        )
        data = json.loads(serialize_scene(rec))
        assert "path" not in data["image"]
        assert "depth_path" not in data
        assert parse_scene(serialize_scene(rec)) == rec

    def test_field_order_is_canonical(self):
        text = serialize_scene(sample_record())
        data = json.loads(text)
        assert list(data) == ["image", "depth_path", "objects", "grasps", "relations"]
        assert list(data["objects"][0]) == ["id", "category", "bbox"]
        assert list(data["grasps"][0]) == ["owner", "rect"]
        assert list(data["relations"][0]) == ["above", "below"]


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(DocumentError, match="not valid JSON") as exc:
            parse_scene("[1,")
        assert exc.value.where == "$"

    def test_top_level_not_object(self):
        with pytest.raises(DocumentError, match="top level"):
            parse_scene("[]")

    def test_missing_image(self):
        with pytest.raises(DocumentError) as exc:
            parse_scene("{}")
        assert exc.value.where == "image"

    def test_bad_object_bbox(self):
        data = {
            "image": {"width": 100, "height": 100},
            "objects": [{"id": 1, "category": "cup", "bbox": [0, 0, 10]}],
        }
        with pytest.raises(DocumentError, match="bbox needs 4") as exc:
            parse_scene(json.dumps(data))
        assert exc.value.where == "objects[0]"

    def test_bad_grasp_rect(self):
        data = {
            "image": {"width": 100, "height": 100},
            "objects": [{"id": 1, "category": "cup", "bbox": [0, 0, 10, 10]}],
            "grasps": [{"owner": 1, "rect": [5, 5, 4, 2]}],
        }
        with pytest.raises(DocumentError, match="rect needs 5") as exc:
            parse_scene(json.dumps(data))
        assert exc.value.where == "grasps[0]"

    def test_bad_relation(self):
        data = {
            "image": {"width": 100, "height": 100},
            "objects": [
                {"id": 1, "category": "cup", "bbox": [0, 0, 10, 10]},
                {"id": 2, "category": "box", "bbox": [20, 20, 30, 30]},
            ],
            "relations": [{"above": 1, "below": 2}, {"above": 1}],
        }
        with pytest.raises(DocumentError) as exc:
            parse_scene(json.dumps(data))
        assert exc.value.where == "relations[1]"

    @pytest.mark.parametrize("key", ["objects", "grasps", "relations"])
    def test_array_of_wrong_type(self, key):
        data = {"image": {"width": 100, "height": 100}, key: 5}
        with pytest.raises(DocumentError, match="expected a list") as exc:
            parse_scene(json.dumps(data))
        assert exc.value.where == key

    def test_record_validation_reported_at_root(self):
        data = {
            "image": {"width": 100, "height": 100},
            "objects": [
                {"id": 1, "category": "cup", "bbox": [0, 0, 10, 10]},
                {"id": 1, "category": "box", "bbox": [20, 20, 30, 30]},
            ],
        }
        with pytest.raises(DocumentError, match="duplicate object ids") as exc:
            parse_scene(json.dumps(data))
        assert exc.value.where == "$"


class TestFileIo:
    def test_save_load(self, tmp_path):
        rec = sample_record()
        path = tmp_path / "scene.json"
        path.write_text(serialize_scene(rec))
        assert load_scene(path) == rec

    def test_load_error_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(DocumentError, match="bad.json"):
            load_scene(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="gone.json"):
            load_scene(tmp_path / "gone.json")

    def test_load_error_reads_file_then_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"image": {"width": "640", "height": 480}}))
        with pytest.raises(DocumentError) as exc:
            load_scene(path)
        assert str(exc.value) == f"{path}: image: width must be an integer, got '640'"
        with pytest.raises(DocumentError) as exc:
            load_scene(tmp_path / "gone.json")
        assert str(exc.value) == f"{tmp_path / 'gone.json'}: No such file or directory"


class TestHflip:
    def test_frozen_mapping(self):
        rec = sample_record()
        flipped = hflip(rec)
        assert flipped.objects[0].box == AABox(420.0, 80.0, 540.0, 200.0)
        g = flipped.grasps[0].rect
        assert g.x == 480.0 and g.y == 140.0
        assert g.theta == 30.0
        assert flipped.relations == rec.relations
        assert (flipped.width, flipped.height) == (rec.width, rec.height)

    def test_involution_up_to_rounding(self):
        rec = sample_record()
        back = hflip(hflip(rec))
        for orig, twice in zip(rec.objects, back.objects):
            assert twice.box.xmin == pytest.approx(orig.box.xmin)
            assert twice.box.xmax == pytest.approx(orig.box.xmax)
        for orig, twice in zip(rec.grasps, back.grasps):
            assert twice.rect.x == pytest.approx(orig.rect.x)
            assert twice.rect.theta == pytest.approx(orig.rect.theta)

    def test_boundary_angle_stays_in_range(self):
        rec = SceneRecord(
            width=100,
            height=100,
            objects=(SceneObject(1, "cup", AABox(10.0, 10.0, 30.0, 30.0)),),
            grasps=(SceneGrasp(1, OrientedRect(20.0, 20.0, 10.0, 4.0, -90.0)),),
            relations=(),
        )
        assert hflip(rec).grasps[0].rect.theta == -90.0


class TestRot90:
    def test_single_turn_frozen_mapping(self):
        rec = SceneRecord(
            width=100,
            height=50,
            objects=(SceneObject(1, "cup", AABox(5.0, 15.0, 15.0, 25.0)),),
            grasps=(SceneGrasp(1, OrientedRect(10.0, 20.0, 8.0, 4.0, 10.0)),),
            relations=(),
        )
        turned = rot90(rec)
        assert (turned.width, turned.height) == (50, 100)
        assert turned.objects[0].box == AABox(15.0, 85.0, 25.0, 95.0)
        g = turned.grasps[0].rect
        assert (g.x, g.y) == (20.0, 90.0)
        assert g.theta == -80.0  # 10 + 90 wrapped into [-90, 90)

    def test_four_turns_identity(self):
        rec = sample_record()
        back = rot90(rec, 4)
        assert back.width == rec.width and back.height == rec.height
        for orig, turned in zip(rec.objects, back.objects):
            assert turned.box.as_tuple() == pytest.approx(orig.box.as_tuple())
        for orig, turned in zip(rec.grasps, back.grasps):
            assert turned.rect.x == pytest.approx(orig.rect.x)
            assert turned.rect.y == pytest.approx(orig.rect.y)
            assert turned.rect.theta == pytest.approx(orig.rect.theta)

    def test_negative_turns_wrap(self):
        rec = sample_record()
        assert rot90(rec, -1) == rot90(rec, 3)

    def test_zero_turns_is_identity(self):
        rec = sample_record()
        assert rot90(rec, 0) is rec


# angles at and next to the wrap points of [-90, 90), where a second
# normalization could differ from the first, and any others
_ANGLES = st.one_of(
    st.sampled_from([-90.0, -45.0, -0.0, 0.0, 45.0, 90.0, 135.0, 44.99999999999999,
                     -45.00000000000001, 89.99999999999999, -89.99999999999999, 1e-300]),
    st.floats(-1e6, 1e6),
)


@st.composite
def augment_records(draw):
    """A scene of up to three objects with up to four grasps each."""
    width, height = draw(st.integers(1, 1000)), draw(st.integers(1, 1000))

    def span(limit):
        ends = st.lists(st.integers(0, 8 * limit), min_size=2, max_size=2, unique=True)
        lo, hi = sorted(draw(ends))
        return lo / 8, hi / 8

    coords = st.floats(-1e4, 1e4)
    objects, grasps = [], []
    for i in range(1, draw(st.integers(0, 3)) + 1):
        (x0, x1), (y0, y1) = span(width), span(height)
        objects.append(SceneObject(i, "cup", AABox(x0, y0, x1, y1)))
        for x, y, theta in draw(st.lists(st.tuples(coords, coords, _ANGLES), max_size=4)):
            grasps.append(SceneGrasp(i, OrientedRect(x, y, 10.0, 4.0, theta)))
    return SceneRecord(width, height, tuple(objects), tuple(grasps), relations=())


class TestAugmentReference:
    """``hflip`` and ``rot90`` give the records of the field-by-field
    references (tests/oracle_utils.py), to the bit: ``repr`` writes every
    float exactly and tells -0.0 from 0.0."""

    @settings(max_examples=300, deadline=None)
    @given(record=augment_records(), turns=st.integers(-5, 5))
    def test_matches_reference(self, record, turns):
        assert repr(hflip(record)) == repr(reference_hflip(record))
        assert repr(rot90(record, turns)) == repr(reference_rot90(record, turns))


class TestRecordToPredictions:
    def test_detections_and_grasps(self):
        preds = record_to_predictions(sample_record())
        assert [d.instance_id for d in preds.detections] == [1, 2, 5]
        assert all(d.score == 1.0 for d in preds.detections)
        assert all(
            c.confidence == 1.0
            for cands in preds.grasp_candidates.values()
            for c in cands
        )
        assert len(preds.grasp_candidates[1]) == 1

    def test_one_hot_relations_cover_all_ordered_pairs(self):
        preds = record_to_predictions(sample_record())
        assert len(preds.relations) == 6  # 3 objects, ordered pairs
        assert preds.relations[(2, 1)] == (0.0, 1.0, 0.0)
        assert preds.relations[(1, 2)] == (0.0, 0.0, 1.0)
        assert preds.relations[(1, 5)] == (1.0, 0.0, 0.0)
