"""Each file contract is written down in one module of the package: the
JSON layout in `audio.write_json` and the sample id in
`simulate.ExtractionSample.sample_id`."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "confusionkit"


@pytest.mark.parametrize("needle,home", [("json.dump(", "audio.py"), ("sample_{", "simulate.py")])
def test_stated_in_one_module(needle, home):
    holders = sorted(p.name for p in SRC.glob("*.py") if needle in p.read_text())
    assert holders == [home]
