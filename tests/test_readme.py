"""The README's code and format examples run and parse as printed."""

import json
import re
from pathlib import Path

import pytest

from stackgrasp.dataset import parse_scene
from stackgrasp.perception import parse_predictions
from stackgrasp.simulation import parse_sim_config

from test_cli import README_SIM

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> dict[str, str]:
    """Every ```lang block of the README by the line that introduces it."""
    return dict(re.findall(rf"([^\n]+)\n\n```{lang}\n(.*?)```", README, flags=re.DOTALL))


JSON = blocks("json")
SCENE = JSON["Scene record, the ground-truth format:"]
PREDICTIONS = JSON["Predictions, what a detector reports about one scene:"]
SIM_CONFIG = JSON["Simulation config:"]


def test_python_examples_run(tmp_path, monkeypatch, capsys):
    code = list(blocks("python").values())
    assert len(code) == 2
    # the planning example reads the predictions example
    (tmp_path / "scene_preds.json").write_text(PREDICTIONS)
    monkeypatch.chdir(tmp_path)
    for i, text in enumerate(code):
        exec(compile(text, f"README.md python block {i}", "exec"), {"__name__": "readme"})
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("text, parse", [(SCENE, parse_scene), (PREDICTIONS, parse_predictions)],
                         ids=["scene", "predictions"])
def test_format_examples_parse(text, parse):
    parse(text)


def test_sim_config_example_is_the_tested_config():
    # README_SIM's rates (500/500, 289/500) are the ones the README prints
    assert json.loads(SIM_CONFIG) == README_SIM
    assert [name for name, _, _ in parse_sim_config(SIM_CONFIG)[1]] == ["shallow", "deep"]
