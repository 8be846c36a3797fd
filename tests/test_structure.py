"""Each file contract is written down in one module of the package: the
JSON layout in `audio.write_json`, the CSV layout in `audio.write_table` and
the sample id in `simulate.ExtractionSample.sample_id`. So is each input rule:
the front-end's refusals in `embedding.front_end_refusal`, and the seed and
real-number rules in `simulate.check_seed` and `simulate.check_number`; so is the (pi, phi) distance, in
`postfilter.similarity_features`, and only `postfilter.py` runs the
separator. The test oracles stand apart from the package they check."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "confusionkit"


@pytest.mark.parametrize("needle,home", [
    ("json.dump(", "audio.py"), ("csv.writer(|DictWriter(", "audio.py"),
    ("sample_{", "simulate.py"), ("vecdot(d, d)", "postfilter.py"),
    ("hop is 0 samples", "embedding.py"), ("mel bands are empty", "embedding.py"),
    ("shorter than one", "embedding.py"), ("non-negative integer", "simulate.py"),
    ("must be a number", "simulate.py")])
def test_stated_in_one_module(needle, home):
    """Only `home` holds the needle, or any of its `|`-separated alternatives."""
    holders = sorted(p.name for p in SRC.glob("*.py")
                     if any(n in p.read_text() for n in needle.split("|")))
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


def _public_names(node):
    """The public names a module-level statement defines: a function, a
    class, or the upper-case targets of an assignment (constants)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def test_every_public_name_has_a_caller():
    """No public function, class or constant in `src/` serves only the
    tests: each is read in the package beyond its own definition, or named
    by the benchmark in `perfbench/`. Re-exports in `__init__.py` do not
    count, nor does an assignment, which stores a name without reading it."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    used = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    for path in (SRC.parents[1] / "perfbench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text()))
    unused = [f"{module}.{name}" for module, tree in trees.items() for node in tree.body
              for name in _public_names(node) if name not in used]
    assert unused == []


def test_only_postfilter_reads_the_separator():
    """The row memos, and run_pipeline's audio files, are the one way into
    the separator: no other module in `src/` reads `toy_separator` (simulate.py
    only defines it, and `__init__.py` only imports it)."""
    readers = sorted({p.name for p in SRC.glob("*.py")
                      for node in ast.walk(ast.parse(p.read_text()))
                      if isinstance(node, ast.Name) and node.id == "toy_separator"
                      or isinstance(node, ast.Attribute) and node.attr == "toy_separator"})
    assert readers == ["postfilter.py"]


def test_readme_lists_the_config_keys():
    """README's "Config keys (all optional)" sentence names exactly the keys
    the CLI takes from a config file."""
    from confusionkit.cli import _CONFIG_KEYS

    readme = (SRC.parents[1] / "README.md").read_text()
    sentence = re.search(r"Config keys \(all optional\):(.*?)\.\s", readme, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(_CONFIG_KEYS)
