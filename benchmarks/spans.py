"""Span recorder for the traced run, and the self-time arithmetic.

The recorder wraps public functions of the program's modules from the
outside: each call becomes one span ``(name, start, end, parent)`` plus
counter increments taken at the same boundary.  Spans stay in memory
and are written once, when the traced child ends.

A function is replaced wherever callers look it up: every loaded
``flowner`` module whose namespace holds the original object gets the
wrapper, so ``corpus_io.parse_standoff`` is traced as well as
``standoff.parse_standoff``.  The recorder keeps one stack and assumes
one thread, which holds because the benchmark runs every subcommand
with ``--jobs 1``.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "flowner"


def _bytes_written(args) -> dict:
    # Deferred: the files are sized after the traced chain, outside every span.
    root, ids = Path(args["path"]), [doc.doc_id for doc in args["corpus"].documents]
    return {"bytes": lambda: sum(os.path.getsize(root / f"{doc_id}{ext}")
                                 for doc_id in ids for ext in (".txt", ".ann"))}


def _conversion(args, result) -> dict:
    report = result[1]
    return {"entities_mapped": sum(report.mapped.values()),
            "entities_dropped": sum(report.dropped.values())}


# (module, qualified name, counter(bound arguments, result) -> increments)
TARGETS = [
    ("cli", "main", None),
    ("corpus_io", "load_corpus_dir", lambda a, r: {"docs": len(r)}),
    ("corpus_io", "load_document", None),
    ("corpus_io", "write_corpus_dir", lambda a, r: _bytes_written(a)),
    ("corpus_io", "atomic_write_text", None),
    ("corpus_io", "atomic_write_json", None),
    ("standoff", "parse_standoff", None),
    ("standoff", "serialize_standoff", None),
    ("model", "validate_corpus", None),
    ("model", "validate_document", None),
    ("schema", "convert_corpus", _conversion),
    ("schema", "default_softcite_table", None),
    ("gazetteer", "ingest", None),
    ("gazetteer", "build_gazetteer", lambda a, r: {"names_kept": len(r)}),
    ("gazetteer", "Gazetteer.from_json_dict", None),
    ("gazetteer", "Gazetteer.to_json_dict", None),
    ("tagger", "TaggerPredictor.__init__", None),
    ("tagger", "default_ruleset", None),
    ("tagger", "tag", lambda a, r: {"kchars": len(a["doc_text"]) / 1000,
                                    "entities": len(r)}),
    ("tagger", "silver_annotate", None),
    ("tagger", "fuse", None),
    ("evaluation", "score", None),
    ("evaluation", "match_document",
     lambda a, r: {"gold_x_pred": len(a["gold"]) * len(a["pred"]),
                   "pairs_matched": len(r)}),
    ("evaluation", "render_report", None),
    ("stats", "corpus_stats", None),
    ("stats", "document_stats", None),
    ("stats", "count_nested", lambda a, r: {"entities": len(a["doc"].entities)}),
    ("stats", "tokenize", None),
    ("experiment", "make_splits", None),
    ("experiment", "aggregate", None),
    ("experiment", "render_table", None),
]


class Recorder:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list = []          # [name, start, end, parent index]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.calls: dict = defaultdict(list)   # span name -> bound args, when asked
        self.missing: list[str] = []
        self._deferred: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None, keep_args: bool = False):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter or keep_args else None

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if keep_args:
                    self.calls[name].append(bound)
                if counter:
                    for key, value in counter(bound.arguments, result).items():
                        if callable(value):
                            self._deferred.append((name, key, value))
                        else:
                            self.counts[name][key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS, keep_args=("corpus_io.load_corpus_dir",)) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, qualname, counter in targets:
            name = f"{module_name}.{qualname}"
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(name, raw.__func__, counter, name in keep_args))
                self._replace(owner, attr, raw, new)
            elif path:
                self._replace(owner, attr, raw,
                              self.wrap(name, raw, counter, name in keep_args))
            else:
                new = self.wrap(name, raw, counter, name in keep_args)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, key, raw, new)

    def _replace(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        """Restore the original functions and settle deferred counters."""
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        for name, key, thunk in self._deferred:
            self.counts[name][key] += thunk()
        self._deferred.clear()


# --------------------------------------------------------------------------
# Self-time arithmetic (pure functions over recorded spans)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children[i], start, end)
            for i, (_name, start, end, _parent) in enumerate(spans)]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, per-call durations."""
    out: dict[str, dict] = {}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "durations": []})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        row["durations"].append(end - start)
    return out


def module_self(summary: dict) -> dict[str, float]:
    """Self seconds per module (the span name's first component)."""
    totals: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        totals[name.split(".", 1)[0]] += row["self_s"]
    return dict(totals)
