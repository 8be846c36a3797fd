"""confusionkit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload corpus --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 10 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory. The workload's inputs are made from
``seed % workloads.CASES``, so every run is checked against the output
digests stored in ``reference.json``. ``--trace 0`` times repetitions of
the workload for ``--seconds`` (and at least three of them) and reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics named in ``BENCHMARK.json``.
The last line of standard output is the JSON result.
"""

import os

# Pinned before numpy loads: more BLAS threads change PL1/GL1 projections
# and hence the digests, and spend CPU time without saving wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE_PATH = HERE / "reference.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("corpus", "train", "score", "cli")
SETUP_REPEATS = 3
MIN_REPS = 3  # a median needs three values; train's repetitions take ~7 s each


class PackageMissing(RuntimeError):
    pass


def import_package() -> float:
    """Import confusionkit from this checkout's src/; return its import seconds.

    numpy and scipy load first, so the figure covers the package's own
    import-time work, which counts towards set-up.
    """
    if not (SRC / "confusionkit" / "__init__.py").is_file():
        raise PackageMissing(f"no confusionkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.io.wavfile  # noqa: F401
    import scipy.signal  # noqa: F401

    t0 = time.perf_counter()
    import confusionkit

    elapsed = time.perf_counter() - t0
    if not Path(confusionkit.__file__).resolve().is_relative_to(SRC):
        raise PackageMissing(f"confusionkit imported from {confusionkit.__file__}, not {SRC}")
    return elapsed


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Tally:
    """Counts checked outputs: a part fails on an exception, a non-finite
    value or a digest that differs from the expected one."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first = None  # the first successful repetition's Checked

    def error(self, exc: BaseException) -> None:
        print(f"# repetition failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.attempted += len(self.expected) if self.expected else 1
        self.failed += len(self.expected) if self.expected else 1

    def check(self, checked) -> None:
        if self.first is None:
            self.first = checked
        want = self.expected if self.expected is not None else self.first.parts
        for name in sorted(set(want) | set(checked.parts)):
            self.attempted += 1
            if checked.parts.get(name) != want.get(name):
                self.failed += 1
                print(f"# digest mismatch in {name}: {checked.parts.get(name)} "
                      f"!= {want.get(name)}", file=sys.stderr)


def _repeat(workload, inputs, tally: Tally):
    """One repetition and its check; returns (wall seconds, Checked) or None."""
    t0 = time.perf_counter()
    try:
        out = workload.rep(inputs)
        elapsed = time.perf_counter() - t0
        checked = workload.check(inputs, out)
    except Exception as exc:  # a failed repetition is counted, never fatal
        tally.error(exc)
        return None
    tally.check(checked)
    return elapsed, checked


def _setup(workload, case, ctx, repeats):
    times, inputs = [], None
    for _ in range(repeats):
        inputs = None  # release the previous copy before building the next
        t0 = time.perf_counter()
        inputs = workload.prepare(case, ctx)
        times.append(time.perf_counter() - t0)
    return inputs, times


def _end_to_end(workload, inputs, tally, seconds, setup_s):
    rates, reps = [], 0
    start = time.perf_counter()
    while True:
        done = _repeat(workload, inputs, tally)
        reps += 1
        if done is not None:
            rates.append(done[1].work / done[0])
        if reps >= MIN_REPS and time.perf_counter() - start >= seconds:
            break
    print(f"# {len(rates)} repetitions, items/s: {' '.join(f'{r:.4g}' for r in rates)}",
          file=sys.stderr)
    return {
        "throughput": (statistics.median(rates) if rates else 0.0, "items/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(workload, case, ctx, tally, seconds, trace_path):
    from tracer import LayerStats, Tracer, write_spans

    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.prepare(case, ctx)
    finally:
        tracer.uninstall()
    phases = [("setup", list(tracer.spans))]

    overheads, gaps = [], []
    start = time.perf_counter()
    while True:
        plain = _repeat(workload, inputs, tally)
        tracer.reset()
        tracer.install()
        try:
            traced = _repeat(workload, inputs, tally)
        finally:
            tracer.uninstall()
        if plain is not None and traced is not None:
            phases.append((f"rep{len(phases)}", list(tracer.spans)))
            overheads.append(traced[0] - plain[0])
            gaps.append(traced[0] - tracer.top_level_s())
        if time.perf_counter() - start >= seconds:
            break
    write_spans(trace_path, phases)

    stats = LayerStats()
    stats.add(phases[0][1])
    for _, spans in phases[1:]:
        stats.add(spans, 1.0 / (len(phases) - 1))
    quality = tally.first.quality if tally.first else {}
    cpu = os.times()
    return layer_metrics(stats, quality, {
        "run.cpu_s": cpu.user + cpu.system,
        "trace.overhead_s": statistics.median(overheads) if overheads else 0.0,
        "trace.untraced_s": statistics.median(gaps) if gaps else 0.0,
    })


# Per-layer metrics counted only where the caller is a given function:
# metric prefix -> (traced function, calling function).
CALLED_FROM = {
    "training.toy_separator": ("simulate.toy_separator", "training.train_encoder"),
    "training.pooled_features": ("embedding.pooled_features", "training.train_encoder"),
}
ATTRIBUTES = ("samples", "frames", "bytes")  # summed span attributes, see tracer.MEASURES


def layer_value(name: str, stats, quality: dict, diagnostics: dict) -> float:
    """One per-layer metric, dispatched on its ``<module>.<function>.<measure>`` name."""
    if name in diagnostics:
        return diagnostics[name]
    fn, _, measure = name.rpartition(".")
    if fn == "quality":
        return quality.get(measure, 0.0)
    if name == "embedding.encode.unique_frac":  # distinct waveforms per encode call
        encodes = stats.count(fn)
        return len(stats.encoded) / encodes if encodes else 0.0
    if measure == "calls":
        return stats.called_from(*CALLED_FROM[fn]) if fn in CALLED_FROM else stats.count(fn)
    if measure == "self_s":
        return stats.seconds(fn)
    if measure in ("p50_us", "p90_us"):
        return stats.percentile_us(fn, int(measure[1:3]) / 100)
    if measure in ATTRIBUTES:
        return stats.attr(fn, measure)
    raise ValueError(f"no rule for per-layer metric {name}")


def layer_metrics(stats, quality: dict, diagnostics: dict) -> dict:
    """BENCHMARK.json's per-layer metrics: one traced set-up plus one traced repetition."""
    with open(BENCHMARK_PATH) as fh:
        per_layer = json.load(fh)["per_layer"]
    return {m["name"]: (layer_value(m["name"], stats, quality, diagnostics), m["unit"])
            for m in per_layer}


def measure(name: str, seed: int, seconds: float, trace: bool, size=None,
            reference: dict | None = None, import_s: float = 0.0) -> tuple[dict, Tally]:
    """Run one workload; return the result object the benchmark prints and its Tally."""
    import workloads

    reference = load_reference() if reference is None else reference
    case = seed % workloads.CASES
    workload = workloads.WORKLOADS[name]
    scratch = OUT / f"tmp-{name}-{os.getpid()}"
    ctx = workloads.Context(size or workloads.FULL, reference["encoder_sha256"], scratch)
    tally = Tally(reference["digests"].get(name, {}).get(str(case)))
    try:
        if trace:
            OUT.mkdir(exist_ok=True)
            metrics = _traced(workload, case, ctx, tally, seconds,
                              OUT / f"trace-{name}-{seed}.jsonl")
        else:
            inputs, times = _setup(workload, case, ctx, SETUP_REPEATS)
            metrics = _end_to_end(workload, inputs, tally, seconds,
                                  import_s + statistics.median(times))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {  # every timed loop runs at least once, so attempted >= 1
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, tally


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        import_s = import_package()
    except (PackageMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, tally = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                            import_s=import_s)
    import workloads

    item = workloads.WORKLOADS[args.workload].item
    print(f"# workload {args.workload} (throughput counts {item}): "
          f"{json.dumps(environment(args.seed))}")
    for key, metric in result["metrics"].items():
        print(f"{key:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_frac':44s} {result['failed'] / result['attempted']:>16.6g} "
          f"frac ({result['failed']} of {result['attempted']} checked outputs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
