"""Spans recorded from the benchmark's own wrappers around public calls.

With tracing off, ``Tracer.call`` is a plain call, so the untraced run pays
one extra Python frame per wrapped call and nothing else.  With tracing on,
each call records a span (name, size tag, start, end, parent, operation id,
failed flag).  Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

LAYERS = ("solver", "flowsplit", "network", "mlp", "datagen", "analysis", "cli")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {
            "id": len(self.spans),
            "name": name,
            "tag": tag,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "failed": False,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span["failed"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, tag: str | None = None):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, tag=tag, **kwargs)

        return wrapped

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def metric_name(name: str, tag: str | None) -> str:
    return f"{name}_s" + (f".{tag}" if tag else "")


def summarize(spans: list[dict]) -> dict:
    """Per-span-name median durations, and per-layer calls, failures and
    self time (span time minus the time its child spans cover)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    durations: dict[str, list[float]] = defaultdict(list)
    layers = {
        layer: {"calls": 0, "failed": 0, "self_s": 0.0} for layer in LAYERS
    }
    for s in spans:
        dur = s["end"] - s["start"]
        durations[metric_name(s["name"], s["tag"])].append(dur)
        layer = layers.get(s["name"].split(".")[0])
        if layer is None:
            continue
        layer["calls"] += 1
        layer["failed"] += int(s["failed"])
        layer["self_s"] += dur - child_time[s["id"]]
    return {
        "median_s": {k: statistics.median(v) for k, v in durations.items()},
        "count": {k: len(v) for k, v in durations.items()},
        "layers": layers,
    }
