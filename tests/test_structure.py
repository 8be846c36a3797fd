"""Each file contract is written down in one module of the package: the
JSON layout in `audio.write_json` and the sample id in
`simulate.ExtractionSample.sample_id`. The test oracles stand apart from the
package they check."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "confusionkit"


@pytest.mark.parametrize("needle,home", [("json.dump(", "audio.py"), ("sample_{", "simulate.py")])
def test_stated_in_one_module(needle, home):
    holders = sorted(p.name for p in SRC.glob("*.py") if needle in p.read_text())
    assert holders == [home]


def test_oracles_import_nothing_from_the_package():
    """tests/oracles.py must not call the code it checks."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert "numpy" in imported
    assert [m for m in imported if m.startswith(("confusionkit", "."))] == []
