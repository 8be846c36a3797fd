"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

    python3 perfbench/selftest.py

For every workload it checks that the end-to-end run emits exactly the
metrics named in BENCHMARK.json, that every per-layer value of the traced
run is a finite number (the traced run emits BENCHMARK.json's per-layer
names by construction), that the traced run reproduces the untraced
digests, and that a corrupted reference digest is counted as a failure.
It also checks that another seed changes the corpus digest. Prints one
line per failed check; exits 1 if any failed.
"""

import run  # pins BLAS threads before numpy loads; keep first

import copy
import json
import math
import sys


def main() -> int:
    run.import_package()
    import workloads

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    base = run.load_reference()
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)
            print(f"FAIL: {what}")

    def measure(name, seed, trace, reference):
        return run.measure(name, seed, 0.0, trace, workloads.TINY, reference)

    for name in run.WORKLOAD_NAMES:
        reference = {"encoder_sha256": base["encoder_sha256"], "digests": {}}
        _, first = measure(name, 0, False, reference)  # no reference yet: records parts
        expect(first.first is not None, f"{name}: first repetition failed")
        if first.first is None:
            continue
        reference["digests"][name] = {"0": first.first.parts}

        result, _ = measure(name, 0, False, reference)
        expect(result["correct"] and result["failed"] == 0, f"{name}: digests not reproduced")
        expect(set(result["metrics"]) == end_to_end,
               f"{name}: end-to-end metrics {sorted(result['metrics'])}")
        traced, _ = measure(name, 0, True, reference)
        expect(traced["correct"], f"{name}: traced run changed the digests")
        bad_values = [k for k, m in traced["metrics"].items() if not math.isfinite(m["value"])]
        expect(not bad_values, f"{name}: non-finite per-layer metrics {bad_values}")

        corrupt = copy.deepcopy(reference)
        parts = corrupt["digests"][name]["0"]
        parts[min(parts)] = "0" * 64
        bad, _ = measure(name, 0, False, corrupt)
        # exactly one part fails, in every repetition
        expect(not bad["correct"] and bad["failed"] * len(parts) == bad["attempted"],
               f"{name}: corrupted digest gave {bad['failed']} of {bad['attempted']} failed")

        if name == "corpus":
            _, other = measure(name, 1, False, reference)
            expect(other.first is not None
                   and other.first.parts["audio"] != first.first.parts["audio"],
                   "corpus: seed 1 gave the same corpus digest as seed 0")

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
