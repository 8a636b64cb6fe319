"""Occurrence counts, token counts and nesting fraction for a corpus.

Token counts use the toolkit tokenizer: maximal runs of alphanumerics,
with every punctuation character (underscore included) as its own token.
Published token figures for this corpus family were produced by an
unspecified tokenizer, so ours are reported as "toolkit tokens" and only
compared loosely.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .model import Corpus, Document

TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_")


def tokenize(text: str) -> list[tuple[int, int]]:
    """Token spans (start, end) under the toolkit tokenizer."""
    return [m.span() for m in TOKEN_RE.finditer(text)]


@dataclass
class StatsReport:
    labels: Counter = field(default_factory=Counter)
    entities: int = 0
    nested_entities: int = 0
    tokens: int = 0
    annotated_tokens: int = 0
    documents: int = 0

    @property
    def nesting_fraction(self) -> float:
        return self.nested_entities / self.entities if self.entities else 0.0

    def to_json_dict(self) -> dict:
        return {
            "documents": self.documents,
            "labels": dict(sorted(self.labels.items(), key=lambda kv: (-kv[1], kv[0]))),
            "entities": self.entities,
            "tokens": self.tokens,
            "annotated_tokens": self.annotated_tokens,
            "nesting_fraction": round(self.nesting_fraction, 6),
        }


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def count_nested(doc: Document) -> int:
    """Entities whose extent lies strictly inside another entity's extent.

    One sort and one sweep: with the distinct extents ordered by
    ``(start, -end)``, an extent is nested iff an earlier one ends at or
    after its end.  Entities that share one extent do not nest each other;
    each of them counts when their shared extent is nested.
    """
    extents = Counter((e.start, e.end) for e in doc.entities)
    nested = 0
    max_end = -1
    for (_start, end), n in sorted(extents.items(), key=lambda kv: (kv[0][0], -kv[0][1])):
        if max_end >= end:
            nested += n
        max_end = max(max_end, end)
    return nested


def document_stats(doc: Document) -> StatsReport:
    report = StatsReport(documents=1)
    for ent in doc.entities:
        report.labels[ent.label.base] += 1
    report.entities = len(doc.entities)
    report.nested_entities = count_nested(doc)

    token_spans = tokenize(doc.text)
    report.tokens = len(token_spans)
    covered = _merge_intervals([(f.start, f.end)
                                for e in doc.entities for f in e.fragments])
    # Two sorted sweeps: a token is annotated if it overlaps any covered interval.
    k = 0
    annotated = 0
    for t_start, t_end in token_spans:
        while k < len(covered) and covered[k][1] <= t_start:
            k += 1
        if k < len(covered) and covered[k][0] < t_end:
            annotated += 1
    report.annotated_tokens = annotated
    return report


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Pool per-document stats; order-independent by construction."""
    total = StatsReport()
    for doc in corpus.documents:
        one = document_stats(doc)
        total.labels.update(one.labels)
        total.entities += one.entities
        total.nested_entities += one.nested_entities
        total.tokens += one.tokens
        total.annotated_tokens += one.annotated_tokens
        total.documents += 1
    return total
