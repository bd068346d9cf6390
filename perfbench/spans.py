"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around each public call
it makes into a layer of the library; nothing inside ``src/`` is traced.
Each span keeps its name, layer, start, end, the span that was open on the
same thread when it began (its parent) and the run id. Spans stay in memory
until :meth:`Tracer.dump` writes them once, at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``enabled=False`` makes :meth:`span` a bare timer."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Span] = []  # guarded-by: _lock
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Time the body; when enabled, also record it as a span."""
        stack = self._stack.__dict__.setdefault("ids", [])
        record = Span(name, layer, time.perf_counter(), 0.0,
                      stack[-1] if stack else None, self.run_id)
        if self.enabled:
            with self._lock:
                self.spans.append(record)
                stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            if self.enabled:
                stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: total span time minus the time its child spans cover."""
        with self._lock:
            spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: Dict[str, float] = {}
        for span, children in zip(spans, child_time):
            out[span.layer] = out.get(span.layer, 0.0) + span.duration - children
        return out

    def dump(self, path) -> None:
        """Write every span and the per-layer self times as one JSON file."""
        with self._lock:
            spans = [asdict(s) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "spans": spans,
                       "self_seconds": self.self_seconds()}, handle)
