"""The contract of the four value types built per anchor or per input row:
``OrientedAnchor``, ``OrientedRect``, ``AABox`` and ``GraspCandidate`` are
frozen, slotted dataclasses whose ``__init__`` takes the fields in order,
validates them and normalizes ``theta``. Construction, ``replace``, pickle
and deep copy keep that contract, and every rejected argument raises the
exception type and text recorded below."""

import copy
import dataclasses
import inspect
import math
import pickle
import weakref

import pytest

from stackgrasp.anchors import OrientedAnchor
from stackgrasp.geometry import AABox, OrientedRect
from stackgrasp.perception import GraspCandidate

RECT = OrientedRect(1.0, 2.0, 3.0, 4.0, 100.0)
SAMPLES = [
    OrientedAnchor(1.0, 2.0, 24.0, 24.0, -67.5, (0, 1), 0),
    RECT,
    AABox(0.0, 1.0, 2.0, 3.0),
    GraspCandidate(RECT, 0.5),
]
IDS = [type(s).__name__ for s in SAMPLES]


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_init_takes_the_fields_in_order(sample):
    cls = type(sample)
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert params == [f.name for f in dataclasses.fields(cls)]
    values = {name: getattr(sample, name) for name in params}
    assert cls(**values) == cls(*values.values()) == sample


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_slotted_and_frozen(sample):
    assert not hasattr(sample, "__dict__")
    name = dataclasses.fields(sample)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(sample, name, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(sample, name)
    # the frozen __setattr__ that dataclasses generates for a slotted class
    # raises TypeError for a name that is not a field (3.10 to 3.13)
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        sample.extra = 1
    assert not hasattr(sample, "extra")
    with pytest.raises(TypeError):
        weakref.ref(sample)


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(sample):
    for twin in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample)):
        assert type(twin) is type(sample)
        assert twin == sample and hash(twin) == hash(sample)
        assert repr(twin) == repr(sample)


def test_replace_validates_again():
    assert RECT.theta == -80.0
    assert dataclasses.replace(RECT, theta=270.0).theta == -90.0
    with pytest.raises(ValueError, match="empty box"):
        dataclasses.replace(SAMPLES[2], xmin=5.0)
    with pytest.raises(ValueError, match="grasp confidence 2.0"):
        dataclasses.replace(SAMPLES[3], confidence=2.0)
    anchor = dataclasses.replace(SAMPLES[0], orient_index=3)
    assert (anchor.orient_index, anchor.cell) == (3, (0, 1))


nan, inf = math.nan, math.inf


def _with(args, i, bad):
    return args[:i] + (bad,) + args[i + 1:]


# every rejected argument list with the exception type and text that the
# dataclass-generated constructors with __post_init__ checks raised
BAD_ARGUMENTS = [
    *(
        (OrientedRect, _with((1.0, 2.0, 3.0, 4.0, 5.0), i, bad), ValueError,
         f"non-finite rectangle parameter {name}")
        for i, name in enumerate(("x", "y", "w", "h", "theta"))
        for bad in (nan, inf, -inf)
    ),
    (OrientedRect, (1.0, 2.0, 0.0, 4.0, 5.0), ValueError, "degenerate rectangle: w=0.0, h=4.0"),
    (OrientedRect, (1.0, 2.0, 3.0, 1e-07, 5.0), ValueError, "degenerate rectangle: w=3.0, h=1e-07"),
    (OrientedRect, (1.0, "2", 3.0, 4.0, 5.0), TypeError, "must be real number, not str"),
    (OrientedRect, (10**400, 2.0, 3.0, 4.0, 5.0), OverflowError, "int too large to convert to float"),
    *(
        (AABox, _with((0.0, 1.0, 2.0, 3.0), i, bad), ValueError,
         f"non-finite box coordinate {name}")
        for i, name in enumerate(("xmin", "ymin", "xmax", "ymax"))
        for bad in (nan, inf, -inf)
    ),
    (AABox, (2.0, 0.0, 1.0, 1.0), ValueError, "empty box: (2.0, 0.0, 1.0, 1.0)"),
    (AABox, (0.0, 1.0, 1.0, 1.0), ValueError, "empty box: (0.0, 1.0, 1.0, 1.0)"),
    (AABox, (0.0, 0.0, 1e-200, 1e-200), ValueError,
     "box area underflows to 0: (0.0, 0.0, 1e-200, 1e-200)"),
    (AABox, (-1e200, -1e200, 1e200, 1e200), ValueError,
     "box area overflows to inf: (-1e+200, -1e+200, 1e+200, 1e+200)"),
    (AABox, (0.0, 0.0, "1", 1.0), TypeError, "must be real number, not str"),
    (GraspCandidate, (RECT, nan), ValueError, "grasp confidence nan outside [0, 1]"),
    (GraspCandidate, (RECT, inf), ValueError, "grasp confidence inf outside [0, 1]"),
    (GraspCandidate, (RECT, -inf), ValueError, "grasp confidence -inf outside [0, 1]"),
    (GraspCandidate, (RECT, 2.0), ValueError, "grasp confidence 2.0 outside [0, 1]"),
    (GraspCandidate, (RECT, -0.5), ValueError, "grasp confidence -0.5 outside [0, 1]"),
    (GraspCandidate, (RECT, "0.5"), TypeError, "must be real number, not str"),
]


@pytest.mark.parametrize(
    "cls, args, error, message", BAD_ARGUMENTS,
    ids=[f"{c.__name__}{a!r:.60}" for c, a, _, _ in BAD_ARGUMENTS],
)
def test_rejected_arguments(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error
    assert str(info.value) == message
