"""In-memory spans recorded by the ledger around calls into each layer.

The ledger measures layers from outside: it stamps ``perf_counter`` before
and after each call into a layer's public function and records the interval
here.  Nothing under ``src/`` knows it is being traced.  Spans stay in memory
until the run ends and are then written as one JSON file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List


class Tracer:
    """An append-only span table: ``(name, start, end, parent)`` per span."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        #: (name index, start, end, parent span id or -1)
        self.spans: List[tuple] = []

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record one span; returns its id (usable as a ``parent``)."""
        self.spans.append((self.name_id(name), start, end, parent))
        return len(self.spans) - 1

    def open(self, name: str, start: float, parent: int = -1) -> int:
        """Record a span whose end is not known yet (see :meth:`close`)."""
        return self.add(name, start, start, parent)

    def close(self, span_id: int, end: float) -> None:
        name_id, start, _end, parent = self.spans[span_id]
        self.spans[span_id] = (name_id, start, end, parent)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out = [0.0] * len(self.names)
        for name_id, start, end, _parent in self.spans:
            out[name_id] += end - start
        return dict(zip(self.names, out))

    def nesting_errors(self) -> int:
        """Spans that start before or end after their parent (must be 0)."""
        errors = 0
        for _name_id, start, end, parent in self.spans:
            if end < start:
                errors += 1
            elif parent >= 0:
                _pn, pstart, pend, _pp = self.spans[parent]
                if start < pstart or end > pend:
                    errors += 1
        return errors

    # -- output --------------------------------------------------------------

    def write(self, path: str, counts: Dict[str, float]) -> None:
        """Write the spans (µs since the first span) and boundary counts."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        body = {
            "run_id": self.run_id,
            "names": self.names,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [name_id, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent]
                for name_id, start, end, parent in self.spans
            ],
            "counts": counts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle, separators=(",", ":"))
