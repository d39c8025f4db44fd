"""Span tracer that wraps emodeid's public functions from outside the package.

A wrapped function is rebound in every loaded ``emodeid`` module namespace
that holds it, because modules import functions by name (``anonymize`` calls
its own binding of ``poly_roots``, ``cli`` its own ``read_wav``). Methods are
rebound on their class. Each thread keeps its own parent stack, since
``run_batch`` runs ``run_pipeline`` on a thread pool. Spans stay in memory
until :meth:`Tracer.write`.

Self time of a span is its duration minus the time of the spans nested
directly inside it on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from math import prod

import numpy as np

# (module, attribute path) of every wrapped callable. The per-layer metric
# names are "<module>.<attribute path>.calls" and ".self_s".
TARGETS = [
    ("dsp", "frame_signal"),
    ("dsp", "lpc_levinson"),
    ("dsp", "lpc_residual"),
    ("dsp", "poly_roots"),
    ("dsp", "poles_to_coeffs"),
    ("dsp", "synthesize"),
    ("dsp", "overlap_add"),
    ("dsp", "mel_spectrogram"),
    ("dsp", "mel_filterbank"),
    ("anonymize", "anonymize_mcadams"),
    ("anonymize", "warp_pole_angles"),
    ("wavio", "read_wav"),
    ("wavio", "write_wav"),
    ("video", "read_ppm"),
    ("video", "write_ppm"),
    ("video", "blur_region"),
    ("video", "mask_frames"),
    ("video", "SidecarDetector.detect"),
    ("clients", "mllm_request_payload"),
    ("clients", "request_digest"),
    ("clients", "MockMllmClient.generate"),
    ("clients", "MockLlmClient.complete"),
    ("pipeline", "DirectoryMediaSource.frame_count"),
    ("pipeline", "DirectoryMediaSource.load_frame"),
    ("pipeline", "DirectoryMediaSource.load_audio"),
    ("pipeline", "segment_audio"),
    ("pipeline", "default_prompts"),
    ("pipeline", "judge_emotion"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "run_batch"),
    ("pipeline", "write_results"),
    ("annotations", "load_annotations"),
    ("metrics", "evaluate"),
    ("metrics", "ablation_report"),
]
CLI_COMMANDS = ["anonymize-audio", "mask-frames", "run-pipeline", "evaluate"]


def _payload_bytes(payload):
    """Raw array bytes behind an MLLM request, computed from shape and dtype."""
    arrays = payload.get("frames", []) + payload.get("spectrograms", [])
    return sum(prod(a["shape"]) * np.dtype(a["dtype"]).itemsize for a in arrays)


# name -> (bytes counted before the call, bytes counted after the call),
# each a function of the call's positional arguments.
BYTES = {
    "wavio.read_wav": (lambda args: os.path.getsize(args[0]), None),
    "wavio.write_wav": (None, lambda args: os.path.getsize(args[0])),
    "video.read_ppm": (lambda args: os.path.getsize(args[0]), None),
    "video.write_ppm": (None, lambda args: os.path.getsize(args[0])),
    "clients.request_digest": (lambda args: _payload_bytes(args[0]), None),
}
BYTES_UNITS = {"clients.request_digest": "bytes_computed"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, name_of_call=None):
        before, after = BYTES.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of_call(args, kwargs) if name_of_call else name
            stack = self._stack()
            span = {"id": next(self._ids), "name": span_name, "thread": threading.get_ident(),
                    "parent": stack[-1]["id"] if stack else None, "child_s": 0.0,
                    "bytes": before(args) if before else 0, "error": None}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]
                if after and span["error"] is None:
                    span["bytes"] = after(args)
                self.spans.append(span)

        return traced

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "emodeid" and not mod_name.startswith("emodeid."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        import emodeid.cli

        for module, path in TARGETS:
            mod = sys.modules[f"emodeid.{module}"]
            name = f"{module}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(mod, path)
                self._rebind(original, self._wrap(name, original))

        def cli_name(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.main.{argv[0]}"

        self._rebind(emodeid.cli.main, self._wrap("cli.main", emodeid.cli.main, cli_name))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def metrics(self, workers: int) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        names = [f"{m}.{p}" for m, p in TARGETS] + [f"cli.main.{c}" for c in CLI_COMMANDS]
        by_name = {name: [] for name in names}
        for span in self.spans:
            by_name[span["name"]].append(span)
        out = {}
        for name, mine in by_name.items():
            out[f"{name}.calls"] = (len(mine), "count")
            out[f"{name}.self_s"] = (
                sum(s["end"] - s["start"] - s["child_s"] for s in mine), "s")
            if name in BYTES:
                out[f"{name}.bytes"] = (
                    sum(s["bytes"] for s in mine), BYTES_UNITS.get(name, "bytes"))
        misses = [s for s in by_name["clients.MockMllmClient.generate"] if s["error"]]
        out["clients.MockMllmClient.generate.errors"] = (len(misses), "count")

        runs = sorted(s["end"] - s["start"] for s in by_name["pipeline.run_pipeline"])
        tail_pct = max([p for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
                        if len(runs) * (1.0 - p / 100.0) >= 10.0], default=50.0)
        out["pipeline.run_pipeline.p50_s"] = (_percentile(runs, 50.0), "s")
        out["pipeline.run_pipeline.tail_s"] = (_percentile(runs, tail_pct), "s")
        out["pipeline.run_pipeline.tail_pct"] = (tail_pct, "%")
        out["pipeline.run_pipeline.samples"] = (len(runs), "count")
        batch_wall = sum(s["end"] - s["start"] for s in by_name["pipeline.run_batch"])
        out["pipeline.run_batch.busy_ratio"] = (
            sum(runs) / (workers * batch_wall) if batch_wall else 0.0, "ratio")
        return out


def _percentile(values, pct):
    """Nearest-rank percentile of sorted values; 0.0 when there are none."""
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * pct // 100))
    return values[int(rank) - 1]
