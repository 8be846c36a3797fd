"""The benchmark's own checks, run as ordinary tests.

perfbench/ measures every change against output digests pinned in
perfbench/reference.json. These tests run its self-test and one pass of
each workload, so a change that alters a benchmarked output, or breaks
what the benchmark calls, fails here and not only at benchmark time.
They check correctness only and assert no timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def test_selftest_passes():
    proc = _python(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_workload_reproduces_its_reference_digests():
    proc = _python(
        str(PERFBENCH / "run.py"),
        "--workload", "all", "--seed", "203", "--seconds", "0", "--trace", "0",
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {"corpus", "train", "score", "cli"}
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, (name, result)
        # At least three repetitions are checked in full: the later ones run
        # on features memoized by the first, and must reproduce it too.
        parts = max(len(case) for case in reference["digests"][name].values())
        assert result["attempted"] >= 3 * parts, (name, result)
