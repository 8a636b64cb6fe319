"""Occurrence counts, token counts and nesting fraction for a corpus.

Token counts use the toolkit tokenizer, :func:`tokenize`: maximal runs of
alphanumerics, with every punctuation character (underscore included) as
its own token.  Published token figures for this corpus family were
produced by an unspecified tokenizer, so ours are reported as "toolkit
tokens" and only compared loosely.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple

from .model import Corpus, Document

TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_")
# tokenize(text[, start[, end]]): the token strings of text[start:end].
tokenize = TOKEN_RE.findall
_alnum_run = re.compile(r"[^\W_]+").fullmatch


class StatsReport(namedtuple("StatsReport", "labels entities nested_entities tokens "
                                            "annotated_tokens documents")):
    __slots__ = ()

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
    """Counts for one document.

    A token is annotated if it overlaps a fragment.  The tokens found in
    each merged fragment interval are counted without listing every token
    of the text: tokenizing just the interval yields each token that
    overlaps it once, clipped to it.  Only an alphanumeric run crossing the
    gap between two intervals is found in both, so one is taken off for
    each such gap.
    """
    text = doc.text
    covered = _merge_intervals([(f.start, f.end)
                                for e in doc.entities for f in e.fragments])
    annotated = 0
    for start, end in covered:
        annotated += len(tokenize(text, start, end))
    n = len(text)
    for (_s, gap_start), (gap_end, _e) in zip(covered, covered[1:]):
        if gap_end < n and _alnum_run(text, gap_start - 1, gap_end + 1):
            annotated -= 1
    return StatsReport(Counter(e.label.base for e in doc.entities), len(doc.entities),
                       count_nested(doc), len(tokenize(text)), annotated, 1)


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Pool per-document stats; order-independent by construction."""
    labels: Counter = Counter()
    entities = nested = tokens = annotated = 0
    for doc in corpus.documents:
        one = document_stats(doc)
        labels.update(one.labels)
        entities += one.entities
        nested += one.nested_entities
        tokens += one.tokens
        annotated += one.annotated_tokens
    return StatsReport(labels, entities, nested, tokens, annotated, len(corpus.documents))
