"""The simulator's random draw order is part of its contract: a seed must
give the same scenes and the same noisy predictions at every commit, so
that seeded results and trial logs never move. These digests were recorded
before the draws were batched; any change to what is drawn, in what order,
or how a draw becomes a value changes them."""

import hashlib
import json

import numpy as np
import pytest

from stackgrasp.dataset import scene_to_json_dict
from stackgrasp.simulation import (
    LiveScene,
    NoiseModel,
    TrialConfig,
    generate_scene,
    oracle_predict,
    remove_object,
)

from oracle_utils import predictions_to_json_dict

SCENE_CONFIGS = {
    "shallow": TrialConfig(count_range=(2, 4)),
    "deep": TrialConfig(
        count_range=(6, 9),
        target_rule="deepest",
        noise=NoiseModel(relation_flip_prob=0.1, box_sigma=2.0),
    ),
    "flat": TrialConfig(count_range=(1, 6), max_stack_depth=0),
    "crowded": TrialConfig(count_range=(1, 24)),
}

SCENE_DIGESTS = {
    "shallow": "b92cacd87558dd464438a9629aa62b8d8d2df54a62391874c033d8132345c244",
    "deep": "bdaa9bc0540bb1b1b74cb962faaede003edfafedd1f23006b1be18cd0016af1d",
    "flat": "8308130639552557d1d4111f1c44606d3974dfd6e02399d836e42150dfce30bd",
    "crowded": "827fe99fbcd4f45711522b3e1441902499d96ea2e42af8646968254c3c7abc4e",
}

# every noise field non-zero, so every variate reaches the output
NOISE = NoiseModel(
    drop_prob=0.15, box_sigma=3.0, angle_sigma=7.5, relation_flip_prob=0.3, score_sigma=0.2
)

PREDICTION_DIGESTS = {
    "fresh": "45d57816cd0805d46b0fe3a2d0da70dd769270a535408b00519b9a2876b57b35",
    # a generator whose buffered 32-bit half is pending when the call starts
    "pending-half": "28ac246634fadb4d4f202ea179e8f73cfb6f283a1b71b21ebbf17a9bc44b5a72",
}


def _digest(documents) -> str:
    h = hashlib.sha256()
    for doc in documents:
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENE_CONFIGS))
def test_generated_scenes_are_pinned(name):
    cfg = SCENE_CONFIGS[name]
    docs = (scene_to_json_dict(generate_scene(seed, cfg)) for seed in range(30))
    assert _digest(docs) == SCENE_DIGESTS[name]


def _prediction_documents(pending_half: bool):
    """Oracle predictions over generated scenes, and over the same scenes
    with their lowest-id objects taken away, at two coverage thresholds.
    Each document also holds the detection order and two draws made after
    the call, which pin how far the call advanced the generator."""
    for seed in range(12):
        live = LiveScene(generate_scene(seed, SCENE_CONFIGS["crowded" if seed % 2 else "deep"]))
        for removed in range(3):
            for threshold in (0.8, 0.5):
                rng = np.random.default_rng([seed, removed, int(threshold * 10)])
                if pending_half:
                    rng.integers(0, 2)
                preds = oracle_predict(live, NOISE, rng, threshold)
                yield {
                    "predictions": predictions_to_json_dict(preds),
                    "order": [d.instance_id for d in preds.detections],
                    "after": [int(rng.integers(0, 1000)), float(rng.random())],
                }
            if len(live.objects) == 1:
                break
            remove_object(live, min(live.objects))


@pytest.mark.parametrize("name", sorted(PREDICTION_DIGESTS))
def test_oracle_predictions_are_pinned(name):
    docs = _prediction_documents(pending_half=name == "pending-half")
    assert _digest(docs) == PREDICTION_DIGESTS[name]
