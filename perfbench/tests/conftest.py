"""Fast tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from airmia import cli, harness  # noqa: E402
from airmia.scenarios import ScenarioConfig, ScenarioCounts  # noqa: E402

SMALL_COUNTS = {"provider_train": 240, "surrogate_train": 120, "provider_test": 200,
                "member_eval": 60, "nonmember_eval": 60}


@pytest.fixture(scope="session")
def small_cell(tmp_path_factory):
    """One persisted `airmia run` cell at reduced counts (seed 11)."""
    out = tmp_path_factory.mktemp("cell")
    config = out / "config.json"
    config.write_text(json.dumps({"scenario": "full-strong", "seed": 11,
                                  "counts": SMALL_COUNTS}))
    assert cli.dispatch(["run", "--config", str(config), "--out", str(out)]) == 0
    return out / "full-strong" / "11"


@pytest.fixture
def cell_copy(small_cell, tmp_path):
    """A copy of the small cell that a test may corrupt."""
    return Path(shutil.copytree(small_cell, tmp_path / "cell"))


@pytest.fixture(scope="session")
def small_matrix():
    """run_all over three seeds at reduced counts and epochs, as documents."""
    base = ScenarioConfig(scenario="full-strong", seed=11, counts=ScenarioCounts(**SMALL_COUNTS))
    reports, summary = harness.run_all(
        [31, 32, 33], base_config=base,
        hyper_for=lambda c: harness.PipelineHyper.for_config(c, 40, 60))
    return [r.to_document() for r in reports], summary
