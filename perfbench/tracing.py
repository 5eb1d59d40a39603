"""Spans recorded around calls into the program's public entry points.

The traced run patches module attributes, class methods and registry
entries with timing wrappers and restores every original with
:meth:`Tracer.restore`.  Spans stay in memory
(name, start, end, parent) and are written out once, when the run ends.

A layer's *self time* is the duration of its spans minus the part their
direct child spans cover, so nested layers (a CSR build inside a
vectorized call) are attributed once.  The harness opens a root span
around each timed pass; the root's self time is the pass's unattributed
time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Single-threaded by design: spans nest through one stack, which is
    right for the benchmark process (the daemon and shard workers are
    other processes and report their own figures).
    """

    def __init__(self) -> None:
        #: ``[id, parent id or None, name, start, end]`` per span.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # spans and counters
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable:
        """``fn`` inside a ``name`` span; ``on_result`` sees each result."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function or a classmethod) by a traced
        twin until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrap(name, original.__func__, on_result)
            )
        else:
            replacement = self.wrap(name, original, on_result)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def replace_item(self, mapping: dict, key: Any, value: Any) -> None:
        """Set ``mapping[key] = value`` in place until :meth:`restore`.

        In place matters: the program compares registry entries by value
        against the same dict (``repro.fuzz.differential._batched_runner``),
        so a traced copy of a registry would change the code path.
        """
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``{"self_s", "total_s", "count"}``."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (sid, _, name, start, end), kids in zip(self.spans, covered):
            entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "count": 0})
            entry["self_s"] += (end - start) - kids
            entry["total_s"] += end - start
            entry["count"] += 1
        return out

    def self_s(self, name: str) -> float:
        return self.layers().get(name, {}).get("self_s", 0.0)

    def calls(self, name: str) -> int:
        return int(self.layers().get(name, {}).get("count", 0))

    def write(self, path: Path) -> None:
        """All spans as JSON lines (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with path.open("w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_s": start - t0,
                            "end_s": end - t0,
                        }
                    )
                    + "\n"
                )
