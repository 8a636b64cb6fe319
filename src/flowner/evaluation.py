"""Entity matching and precision/recall/F1 scoring.

Gold and predicted entities are paired one-to-one per document with a
maximum-cardinality bipartite matching over the compatibility relation
(strict: same base label and identical fragments; relaxed: same base
label and a shared character).  Maximum matching, rather than a greedy
pass, makes the pair count well-defined, order-independent and testable
against brute force.  Which maximum matching is returned is fixed by two
steps: compatible pairs are first taken greedily in preference order
(larger character overlap, then smaller gold start offset, then smaller
pred start offset), then each unmatched gold, in input order (canonical
for a document), is augmented along its pairs in the same order.  This
is deterministic but does not maximize total overlap: relaxed gold
``[3,7)``, ``[5,10)`` and pred ``[1,6)``, ``[3,8)`` pair ``[3,7)-[3,8)``
(overlap 4) and ``[5,10)-[1,6)`` (1), not the pairs of overlap 3 and 3.

Matching a document takes time near-linear in its entity count plus its
candidate pairs, not gold×pred.  Candidates come from an index: strict
mode hash-joins gold and pred on (base label[, qualifier], fragments);
relaxed mode sorts each label's entities by start and sweeps them, pairing
only gold and pred whose extents overlap.  The candidates state the
relation once: every strict candidate is compatible, and a relaxed one is
kept when ``char_overlap``, computed once per candidate for the preference
order, is positive.  So the matched pairs and their tie-breaks are exactly
those of the all-pairs test.

There is one entry point, :func:`match_document`, and it works on index
positions.  ``score`` calls it once per document with the document's
entity tuples as they are: a :class:`Document` keeps them canonical and
free of duplicates, so an entity is told by its index, with no sort and
no set of entities.

Every score is P/R/F1 of tp/fp/fn counts pooled over a set of labels
(:func:`_micro`), with P and R 0 on empty denominators so pooling is
total.  A report stores only its per-label counts; ``overall`` is derived
from them, pooled over the label filter, and an empty filter is no
filter.  Inter-annotator agreement is the same computation with the
second annotator in the prediction role; swapping the arguments swaps P
and R exactly and leaves F1 unchanged.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from enum import Enum
from heapq import heappop, heappush
from typing import Iterator, Mapping, Optional, Sequence

from .model import Corpus, Entity
from .standoff import _LINE_BREAK_RE


class MatchMode(str, Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class DocSetMismatch(ValueError):
    """Gold and prediction corpora cover different doc_id sets."""


def char_overlap(a: Entity, b: Entity) -> int:
    """Shared character positions between the two fragment unions."""
    total = 0
    # Fields by index and spans unpacked: this runs for every candidate pair.
    for a_start, a_end in a[2]:
        for b_start, b_end in b[2]:
            overlap = ((a_end if a_end < b_end else b_end)
                       - (a_start if a_start > b_start else b_start))
            if overlap > 0:
                total += overlap
    return total


def _augment(root: int, adj: Mapping[int, list[int]],
             match_g: dict[int, int], match_p: dict[int, int]) -> None:
    """One Kuhn augmentation step from a free gold vertex: a depth-first
    search whose stack is the alternating path, flipped when it reaches a
    free pred."""
    visited: set[int] = set()
    stack = [(root, iter(adj[root]))]
    while stack:
        # The top gold's next unvisited pred, or the top is exhausted.
        for pi in stack[-1][1]:
            if pi not in visited:
                break
        else:
            stack.pop()
            continue
        visited.add(pi)
        owner = match_p.get(pi)
        if owner is None:
            for gi, _neighbors in reversed(stack):
                match_p[pi] = gi
                match_g[gi], pi = pi, match_g.get(gi)
            return
        stack.append((owner, iter(adj[owner])))


def _candidate_pairs(gold: Sequence[Entity], pred: Sequence[Entity], mode: MatchMode,
                     qualifier_sensitive: bool) -> Iterator[tuple[int, int]]:
    """Index pairs (gi, pi) that may be compatible, each exactly once.

    Strict mode joins on (label, fragments), so its candidates are exactly
    the compatible pairs.  Relaxed mode sweeps each label's entities by
    start and pairs those whose extents overlap; such a candidate is
    compatible if the two share a character, which discontinuous entities
    with overlapping extents need not.  Touching extents (one ends where
    the other starts) share no character and are not paired.
    """
    # An EntityLabel is the tuple (base, qualifier).
    def label_key(e: Entity):
        return e[1] if qualifier_sensitive else e[1][0]

    if mode == MatchMode.STRICT:
        index: dict[tuple, list[int]] = defaultdict(list)
        for pi, p in enumerate(pred):
            index[label_key(p), p[2]].append(pi)
        for gi, g in enumerate(gold):
            for pi in index.get((label_key(g), g[2]), ()):
                yield gi, pi
        return

    events: dict[object, list[tuple[int, int, int, int]]] = defaultdict(list)
    for side, entities in enumerate((gold, pred)):
        for i, e in enumerate(entities):
            fragments = e[2]
            events[label_key(e)].append((fragments[0][0], side, i, fragments[-1][1]))
    for group in events.values():
        group.sort()
        # Per side, a heap of the (end, index) of entities started so far,
        # popped of those ending at or before the current start.
        active: tuple[list, list] = ([], [])
        for start, side, i, end in group:
            other = active[1 - side]
            while other and other[0][0] <= start:
                heappop(other)
            if side:
                for _e, j in other:
                    yield j, i
            else:
                for _e, j in other:
                    yield i, j
            heappush(active[side], (end, i))


def match_document(gold: Sequence[Entity], pred: Sequence[Entity], mode: MatchMode,
                   qualifier_sensitive: bool = False) -> dict[int, int]:
    """Maximum-cardinality one-to-one matching of one document's entities,
    as a map from each matched gold index to its pred index.

    The pairs follow the order of the input sequences, which break ties
    (see the module docstring).  A :class:`Document`'s entities are
    canonical and distinct, so for them the pairs depend on the entity sets
    alone.  The pair count is maximum, so it does not depend on the order.
    """
    edges: list[tuple[int, int, int, int, int]] = []
    for gi, pi in _candidate_pairs(gold, pred, mode, qualifier_sensitive):
        g, p = gold[gi], pred[pi]
        overlap = char_overlap(g, p)
        if overlap:
            edges.append((-overlap, g[2][0][0], p[2][0][0], gi, pi))
    edges.sort()

    # For a fixed gold the edge order is (-overlap, pred start, pi), so each
    # adjacency list comes out in preference order.
    match_g: dict[int, int] = {}
    match_p: dict[int, int] = {}
    adj: dict[int, list[int]] = defaultdict(list)
    for _ov, _gs, _ps, gi, pi in edges:
        adj[gi].append(pi)
        if gi not in match_g and pi not in match_p:
            match_g[gi] = pi
            match_p[pi] = gi
    for gi in range(len(gold)):
        if gi not in match_g and gi in adj:
            _augment(gi, adj, match_g, match_p)
    return match_g


class LabelScore(namedtuple("LabelScore", "tp fp fn p r f1")):
    __slots__ = ()

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "LabelScore":
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(tp, fp, fn, p, r, f1)

    def to_json_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "p": self.p, "r": self.r, "f1": self.f1}


def _listing_order(listed: tuple[str, Entity]) -> tuple:
    """The sort key of a ``(doc_id, Entity)`` pair in a report's listings."""
    doc_id, (entity_id, label, fragments, _surface) = listed
    return doc_id, fragments[0][0], fragments[-1][1], label[0], entity_id


class MatchReport(namedtuple("MatchReport", "mode per_label label_filter missed spurious",
                             defaults=(None, (), ()))):
    """Per-label counts of one matching mode and the entities it left over.

    ``missed`` (gold) and ``spurious`` (pred) hold each unmatched entity as
    a ``(doc_id, Entity)`` pair, sorted by doc_id, start, end, base label,
    then entity id compared as a string (``T10`` before ``T2``); entities
    that tie on all five keep their document's canonical order.
    """

    __slots__ = ()

    @property
    def overall(self) -> LabelScore:
        return _micro(self.per_label, self.label_filter)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "per_label": {k: v.to_json_dict() for k, v in sorted(self.per_label.items())},
            "overall": self.overall.to_json_dict(),
            "label_filter": list(self.label_filter) if self.label_filter else None,
        }


def _selected(per_label: Mapping[str, LabelScore],
              label_filter: Optional[Sequence[str]]) -> list[str]:
    """The labels of ``per_label`` in ``label_filter``, sorted; an empty filter is none."""
    return sorted(per_label.keys() & label_filter if label_filter else per_label)


def _micro(per_label: Mapping[str, LabelScore],
           label_filter: Optional[Sequence[str]]) -> LabelScore:
    """The score of the counts pooled over the labels ``label_filter`` selects."""
    keys = _selected(per_label, label_filter)
    tp = sum(per_label[k].tp for k in keys)
    fp = sum(per_label[k].fp for k in keys)
    fn = sum(per_label[k].fn for k in keys)
    return LabelScore.from_counts(tp, fp, fn)


def macro_average(report: MatchReport) -> tuple[float, float, float]:
    """Unweighted (P, R, F1) mean over the report's labels, for comparison.

    The report's own overall stays micro-averaged per the MatchReport
    invariants; this is the alternative convention behind a flag.
    """
    scores = [report.per_label[k] for k in _selected(report.per_label, report.label_filter)]
    n = len(scores) or 1  # no label: (0.0, 0.0, 0.0)
    return (sum(s.p for s in scores) / n, sum(s.r for s in scores) / n,
            sum(s.f1 for s in scores) / n)


def score(gold_corpus: Corpus, pred_corpus: Corpus, mode: MatchMode,
          label_filter: Optional[Sequence[str]] = None,
          qualifier_sensitive: bool = False) -> MatchReport:
    """Match every document pair and pool the counts.

    Documents are paired by doc_id; the id sets must be equal.  Per-label
    counts are pooled over documents (micro), and the overall row is
    restricted to ``label_filter`` when it names a label.
    """
    gold_ids = set(gold_corpus.doc_ids())
    pred_ids = set(pred_corpus.doc_ids())
    if gold_ids != pred_ids:
        missing = sorted(gold_ids ^ pred_ids)
        raise DocSetMismatch(f"doc_id sets differ, e.g. {missing[:5]}")

    pred_by_id = {d.doc_id: d for d in pred_corpus.documents}
    tp = Counter()
    missed: list[tuple[str, Entity]] = []
    spurious: list[tuple[str, Entity]] = []

    # Documents in any order: the listings are sorted by doc_id first below.
    for gold_doc in gold_corpus.documents:
        doc_id = gold_doc.doc_id
        # Canonical and duplicate-free (the Document invariant): an entity
        # is told by its index, and no sort is needed.
        gold, pred = gold_doc.entities, pred_by_id[doc_id].entities
        match_g = match_document(gold, pred, mode, qualifier_sensitive)
        matched_pred = set(match_g.values())
        tp.update(gold[gi][1][0] for gi in match_g)
        missed += [(doc_id, g) for i, g in enumerate(gold) if i not in match_g]
        spurious += [(doc_id, p) for i, p in enumerate(pred) if i not in matched_pred]

    fn = Counter(g[1][0] for _doc_id, g in missed)
    fp = Counter(p[1][0] for _doc_id, p in spurious)
    flt = tuple(sorted(set(label_filter))) if label_filter else None
    per_label = {
        base: LabelScore.from_counts(tp[base], fp[base], fn[base])
        for base in sorted(tp.keys() | fn.keys() | fp.keys() | set(flt or ()))
    }
    missed.sort(key=_listing_order)
    spurious.sort(key=_listing_order)
    return MatchReport(
        mode=mode,
        per_label=per_label,
        label_filter=flt,
        missed=tuple(missed),
        spurious=tuple(spurious),
    )


def _percents(*fractions: float) -> tuple[str, ...]:
    return tuple(f"{100 * x:.1f}" for x in fractions)


def _aligned(rows: Sequence[Sequence[str]]) -> str:
    """Text columns two spaces apart, the first left-aligned and the others
    right-aligned, one line per row; a row may stop short of the header."""
    widths = [max(len(r[i]) for r in rows if i < len(r)) for i in range(len(rows[0]))]
    return "".join("  ".join([r[0].ljust(widths[0])]
                             + [cell.rjust(w) for cell, w in zip(r[1:], widths[1:])]) + "\n"
                   for r in rows)


def render_report(report: MatchReport, macro: bool = False) -> str:
    """Plain-text table, percentages with one decimal place: a header, a row
    per label, the overall row and, with ``macro``, the
    :func:`macro_average` row, which has no counts."""
    rows = [("Entities", "P", "R", "F1", "tp", "fp", "fn")]
    overall = "Overall-focused" if report.label_filter else "Overall"
    for name, s in [*sorted(report.per_label.items()), (overall, report.overall)]:
        rows.append((name, *_percents(s.p, s.r, s.f1), str(s.tp), str(s.fp), str(s.fn)))
    if macro:
        rows.append(("Macro", *_percents(*macro_average(report))))
    return _aligned(rows)


def render_diff(report: MatchReport) -> str:
    """Missed (gold unmatched) and spurious (pred unmatched) entity listing,
    one line per entity: a line break in a surface is written as a space,
    as in a ``.ann`` file."""
    lines = []
    for tag, listed in (("MISSED", report.missed), ("SPURIOUS", report.spurious)):
        for doc_id, e in listed:
            lines.append(f"{tag}\t{doc_id}\t{e.label.base}\t{e.start} {e.end}\t"
                         + _LINE_BREAK_RE.sub(" ", e.surface))
    return "\n".join(lines) + "\n" if lines else ""
