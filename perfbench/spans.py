"""Spans and counts for the traced run.

A span is [name, start, end, parent index, case id].  The tracer records
spans around the calls the benchmark makes into each layer and, by
patching the program's public functions for the length of a traced pass,
around the calls one layer makes into another.  The program's files are
never changed.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from time import perf_counter

LAYERS = ("polynomials", "linalg", "geometry", "blending", "tfp", "horn", "mle", "serialize", "cli")


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    case = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, amount=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.case = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch (owner, attribute, span name, result hook) targets.

        A module-level function is replaced in every loaded module of the
        package that imported it by name; a method is replaced on its class.
        """
        package = [m for key, m in sys.modules.items() if key.split(".")[0] == "toric_precision"]
        for owner, attr, name, on_result in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, on_result)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- derived numbers ------------------------------------------------------

    def summarize(self, first: int) -> dict[str, float]:
        """Per-name time and per-layer self time of the spans from index first on.

        A span nested in a span of the same name is not counted again, so
        recursion and wrapper-inside-wrapper calls are not double counted.
        """
        spans = self.spans
        child_time = [0.0] * (len(spans) - first)
        for record in spans[first:]:
            if record[3] >= first:
                child_time[record[3] - first] += record[2] - record[1]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for offset, record in enumerate(spans[first:]):
            name, start, end, parent = record[0], record[1], record[2], record[3]
            layer = name.split(".")[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += (end - start) - child_time[offset]
            while parent >= first and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < first:
                key = f"{name}_s"
                out[key] = out.get(key, 0.0) + (end - start)
        out["trace.spans"] = float(len(spans) - first)
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, case in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "case": case}) + "\n")
