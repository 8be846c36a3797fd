"""Span tracer that wraps confusionkit's public functions from outside the package.

Every wrapped call records a span (name, start, end, parent, attributes)
in memory. Wrappers replace the original function object in every
confusionkit module namespace that binds it, so calls through names
imported with ``from .x import f`` are traced as well. Nothing under
``src/`` is modified; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from pathlib import Path

TARGETS = {
    "audio": ("si_sdr", "save_wav", "load_wav"),
    "simulate": ("synth_utterance", "make_extraction_sample", "build_corpus",
                 "toy_separator", "generate_corpus", "load_corpus"),
    "embedding": ("mel_filterbank", "log_mel_features", "pooled_features", "encode"),
    "losses": ("multitask_loss",),
    "training": ("train_encoder", "eval_embedding_quality", "triplet_batch",
                 "prototypical_batch", "ge2e_batch", "ce_batch"),
    "postfilter": ("similarity_features", "build_validation_records", "run_pipeline",
                   "apply_postfilter", "tune_linear", "tune_rectangular"),
    "evaluate": ("paired_eval_records", "quadrant_stats", "confusion_rate",
                 "margin_analysis"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# Attribute measures, taken after the call; their cost is excluded from
# the parent span's self time (it still shows in trace.overhead_s).
MEASURES = {
    "simulate.synth_utterance": lambda a, k, r: {"samples": len(r)},
    "embedding.log_mel_features": lambda a, k, r: {"frames": r.frames.shape[0]},
    # A strided fingerprint: hashing every sample would cost as much as the
    # front-end it measures.
    "embedding.encode": lambda a, k, r: {
        "waveform": hashlib.blake2b(_arg(a, k, 1, "w").samples[::61].tobytes(),
                                    digest_size=16).hexdigest()
    },
    "audio.save_wav": lambda a, k, r: _file_bytes(_arg(a, k, 1, "path")),
    "audio.load_wav": lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")),
}


def _cli_span_name(args, kwargs) -> str:
    """``cli.main(argv)`` spans are named after the subcommand."""
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """In-memory span recorder with install/uninstall of module wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs, excluded_s]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        name_of = _cli_span_name if name == "cli.main" else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name_of(args, kwargs) if name_of else name, 0.0, 0.0, parent, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
                if parent >= 0:
                    spans[parent][5] += clock() - span[2]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Patch every confusionkit namespace that binds a target function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [importlib.import_module("confusionkit")] + [
            importlib.import_module(f"confusionkit.{m}") for m in TARGETS
        ]
        for mod_name, funcs in TARGETS.items():
            mod = importlib.import_module(f"confusionkit.{mod_name}")
            for fname in funcs:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def top_level_s(self) -> float:
        """Summed duration of spans called directly by the benchmark."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)


def write_spans(path: Path, phases: list[tuple[str, list[list]]]) -> None:
    """Write every phase's spans as JSONL; parents are ids within a phase."""
    with open(path, "w") as fh:
        for phase, spans in phases:
            for i, (name, start, end, parent, attrs, _) in enumerate(spans):
                fh.write(json.dumps({"phase": phase, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "attrs": attrs}) + "\n")


def _percentile_us(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


class LayerStats:
    """Per-function totals accumulated over one or more traced phases."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.attrs: dict[str, dict[str, float]] = {}
        self.parent_calls: dict[tuple[str, str], int] = {}
        self.encoded: set[str] = set()

    def add(self, spans: list[list], weight: float = 1.0) -> None:
        """Fold in one phase's spans, scaling additive totals by weight."""
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, attrs, excluded) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + weight
            self.self_s[name] = self.self_s.get(name, 0.0) + weight * (dur - child_s[i] - excluded)
            self.durations.setdefault(name, []).append(dur)
            parent_name = spans[parent][0] if parent >= 0 else ""
            key = (name, parent_name)
            self.parent_calls[key] = self.parent_calls.get(key, 0) + weight
            for k, v in (attrs or {}).items():
                if k == "waveform":
                    self.encoded.add(v)
                    continue
                slot = self.attrs.setdefault(name, {})
                slot[k] = slot.get(k, 0.0) + weight * v

    def count(self, name: str) -> float:
        return self.calls.get(name, 0)

    def seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get(name, {}).get(key, 0.0)

    def percentile_us(self, name: str, q: float) -> float:
        return _percentile_us(self.durations.get(name, []), q)

    def called_from(self, name: str, parent: str) -> float:
        return self.parent_calls.get((name, parent), 0)
