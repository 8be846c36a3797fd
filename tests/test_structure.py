"""Each file contract is written down in one module of the package: the
JSON layout in `audio.write_json` and the sample id in
`simulate.ExtractionSample.sample_id`. The test oracles stand apart from the
package they check."""

import ast
import re
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


def test_every_public_name_has_a_caller():
    """No public function or class in `src/` serves only the tests: each is
    referenced in the package beyond its own definition, or named by the
    benchmark in `perfbench/`. Re-exports in `__init__.py` do not count."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    used = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    for path in (SRC.parents[1] / "perfbench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text()))
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []
