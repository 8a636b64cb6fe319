"""Entity matching and precision/recall/F1 scoring.

Gold and predicted entities are paired one-to-one per document with a
maximum-cardinality bipartite matching over the compatibility relation
(strict: same base label and identical fragments; relaxed: same base
label and overlapping extents).  Maximum matching, rather than a greedy
pass, makes the pair count well-defined, order-independent and testable
against brute force.  Among maximum matchings, ties break
deterministically: larger character overlap first, then smaller gold
start offset, then smaller pred start offset.

P and R are defined as 0 on empty denominators so micro aggregation is
total; overall scores are micro-averages over the label filter when one
is set.  Inter-annotator agreement is the same computation with the
second annotator in the prediction role; swapping the arguments swaps P
and R exactly and leaves F1 unchanged.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .model import Corpus, Entity


class MatchMode(str, Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class DocSetMismatch(ValueError):
    """Gold and prediction corpora cover different doc_id sets."""


def char_overlap(a: Entity, b: Entity) -> int:
    """Shared character positions between the two fragment unions."""
    total = 0
    for fa in a.fragments:
        for fb in b.fragments:
            total += max(0, min(fa.end, fb.end) - max(fa.start, fb.start))
    return total


def entities_compatible(g: Entity, p: Entity, mode: MatchMode,
                        qualifier_sensitive: bool = False) -> bool:
    """Whether a gold/pred pair may be matched under the given mode."""
    if g.label.base != p.label.base:
        return False
    if qualifier_sensitive and g.label.qualifier != p.label.qualifier:
        return False
    if mode == MatchMode.STRICT:
        return g.fragments == p.fragments
    return char_overlap(g, p) > 0


def _augment(root: int, adj: dict[int, list[tuple[int, int, int]]],
             match_g: dict[int, int], match_p: dict[int, int]) -> bool:
    """One iterative Kuhn augmentation step from a free gold vertex."""
    visited: set[int] = set()
    prev: dict[int, int] = {}
    stack: list[list[int]] = [[root, 0]]
    while stack:
        frame = stack[-1]
        gi, idx = frame
        neighbors = adj.get(gi, [])
        moved = False
        while idx < len(neighbors):
            pi = neighbors[idx][2]
            idx += 1
            if pi in visited:
                continue
            visited.add(pi)
            prev[pi] = gi
            owner = match_p.get(pi)
            if owner is None:
                cur = pi
                while True:
                    g2 = prev[cur]
                    old = match_g.get(g2)
                    match_g[g2] = cur
                    match_p[cur] = g2
                    if old is None:
                        return True
                    cur = old
            frame[1] = idx
            stack.append([owner, 0])
            moved = True
            break
        if not moved:
            stack.pop()
    return False


def match_document(gold: Iterable[Entity], pred: Iterable[Entity], mode: MatchMode,
                   qualifier_sensitive: bool = False,
                   ) -> list[tuple[Entity, Entity]]:
    """Maximum-cardinality one-to-one matching for one document.

    Returns (gold, pred) pairs.  The result is a pure function of the
    entity sets: inputs are canonically sorted first, candidate edges are
    greedily seeded in preference order (overlap desc, gold start, pred
    start) and then augmented to maximum cardinality.
    """
    gold_list = sorted(gold, key=Entity.sort_key)
    pred_list = sorted(pred, key=Entity.sort_key)

    edges: list[tuple[int, int, int, int, int]] = []
    for gi, g in enumerate(gold_list):
        for pi, p in enumerate(pred_list):
            if entities_compatible(g, p, mode, qualifier_sensitive):
                edges.append((-char_overlap(g, p), g.start, p.start, gi, pi))
    edges.sort()

    match_g: dict[int, int] = {}
    match_p: dict[int, int] = {}
    for _ov, _gs, _ps, gi, pi in edges:
        if gi not in match_g and pi not in match_p:
            match_g[gi] = pi
            match_p[pi] = gi

    adj: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for ov, _gs, ps, gi, pi in edges:
        adj[gi].append((ov, ps, pi))
    for gi in adj:
        adj[gi].sort()
    for gi in range(len(gold_list)):
        if gi not in match_g and gi in adj:
            _augment(gi, adj, match_g, match_p)

    return [(gold_list[gi], pred_list[pi]) for gi, pi in sorted(match_g.items())]


@dataclass(frozen=True)
class LabelScore:
    tp: int
    fp: int
    fn: int
    p: float
    r: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "LabelScore":
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(tp, fp, fn, p, r, f1)

    def to_json_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "p": self.p, "r": self.r, "f1": self.f1}


@dataclass(frozen=True)
class EntityRef:
    """Enough of an entity to list it in reports without the document."""

    doc_id: str
    entity_id: str
    label: str
    start: int
    end: int
    surface: str

    @classmethod
    def of(cls, doc_id: str, ent: Entity) -> "EntityRef":
        return cls(doc_id, ent.id, ent.label.base, ent.start, ent.end, ent.surface)

    def sort_key(self) -> tuple:
        return (self.doc_id, self.start, self.end, self.label, self.entity_id)


@dataclass(frozen=True)
class MatchReport:
    mode: MatchMode
    per_label: Mapping[str, LabelScore]
    overall: LabelScore
    label_filter: Optional[tuple[str, ...]] = None
    missed: tuple[EntityRef, ...] = ()
    spurious: tuple[EntityRef, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "per_label": {k: v.to_json_dict() for k, v in sorted(self.per_label.items())},
            "overall": self.overall.to_json_dict(),
            "label_filter": list(self.label_filter) if self.label_filter else None,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MatchReport":
        per_label = {
            k: LabelScore.from_counts(v["tp"], v["fp"], v["fn"])
            for k, v in data["per_label"].items()
        }
        flt = tuple(data["label_filter"]) if data.get("label_filter") else None
        return cls(mode=MatchMode(data["mode"]), per_label=per_label,
                   overall=_micro(per_label, flt), label_filter=flt)


def _micro(per_label: Mapping[str, LabelScore],
           label_filter: Optional[Sequence[str]]) -> LabelScore:
    keys = per_label.keys() if label_filter is None else [
        k for k in per_label if k in set(label_filter)]
    tp = sum(per_label[k].tp for k in keys)
    fp = sum(per_label[k].fp for k in keys)
    fn = sum(per_label[k].fn for k in keys)
    return LabelScore.from_counts(tp, fp, fn)


def macro_average(report: MatchReport) -> tuple[float, float, float]:
    """Unweighted (P, R, F1) mean over the report's labels, for comparison.

    The report's own overall stays micro-averaged per the MatchReport
    invariants; this is the alternative convention behind a flag.
    """
    keys = sorted(report.per_label) if report.label_filter is None else [
        k for k in sorted(report.per_label) if k in set(report.label_filter)]
    if not keys:
        return (0.0, 0.0, 0.0)
    n = len(keys)
    return (sum(report.per_label[k].p for k in keys) / n,
            sum(report.per_label[k].r for k in keys) / n,
            sum(report.per_label[k].f1 for k in keys) / n)


def score(gold_corpus: Corpus, pred_corpus: Corpus, mode: MatchMode,
          label_filter: Optional[Sequence[str]] = None,
          qualifier_sensitive: bool = False) -> MatchReport:
    """Match every document pair and pool the counts.

    Documents are paired by doc_id; the id sets must be equal.  Per-label
    counts are pooled over documents (micro), and the overall row is
    restricted to ``label_filter`` when one is given.
    """
    gold_ids = set(gold_corpus.doc_ids())
    pred_ids = set(pred_corpus.doc_ids())
    if gold_ids != pred_ids:
        missing = sorted(gold_ids ^ pred_ids)
        raise DocSetMismatch(f"doc_id sets differ, e.g. {missing[:5]}")

    pred_by_id = {d.doc_id: d for d in pred_corpus.documents}
    counts: dict[str, Counter] = defaultdict(Counter)
    missed: list[EntityRef] = []
    spurious: list[EntityRef] = []

    for gold_doc in sorted(gold_corpus.documents, key=lambda d: d.doc_id):
        pred_doc = pred_by_id[gold_doc.doc_id]
        matched = match_document(gold_doc.entities, pred_doc.entities, mode,
                                 qualifier_sensitive)
        matched_gold = {g for g, _ in matched}
        matched_pred = {p for _, p in matched}
        for g, _ in matched:
            counts[g.label.base]["tp"] += 1
        for g in gold_doc.entities:
            if g not in matched_gold:
                counts[g.label.base]["fn"] += 1
                missed.append(EntityRef.of(gold_doc.doc_id, g))
        for p in pred_doc.entities:
            if p not in matched_pred:
                counts[p.label.base]["fp"] += 1
                spurious.append(EntityRef.of(gold_doc.doc_id, p))

    flt = tuple(sorted(set(label_filter))) if label_filter is not None else None
    if flt:
        for base in flt:
            counts.setdefault(base, Counter())
    per_label = {
        base: LabelScore.from_counts(c["tp"], c["fp"], c["fn"])
        for base, c in sorted(counts.items())
    }
    return MatchReport(
        mode=mode,
        per_label=per_label,
        overall=_micro(per_label, flt),
        label_filter=flt,
        missed=tuple(sorted(missed, key=EntityRef.sort_key)),
        spurious=tuple(sorted(spurious, key=EntityRef.sort_key)),
    )


def render_report(report: MatchReport) -> str:
    """Plain-text table, percentages with one decimal place."""
    rows = [("Entities", "P", "R", "F1", "tp", "fp", "fn")]
    for base, s in sorted(report.per_label.items()):
        rows.append((base, f"{100 * s.p:.1f}", f"{100 * s.r:.1f}",
                     f"{100 * s.f1:.1f}", str(s.tp), str(s.fp), str(s.fn)))
    o = report.overall
    label = "Overall-focused" if report.label_filter else "Overall"
    rows.append((label, f"{100 * o.p:.1f}", f"{100 * o.r:.1f}",
                 f"{100 * o.f1:.1f}", str(o.tp), str(o.fp), str(o.fn)))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        lines.append("  ".join(
            r[i].ljust(widths[i]) if i == 0 else r[i].rjust(widths[i])
            for i in range(len(r))))
    return "\n".join(lines) + "\n"


def render_diff(report: MatchReport) -> str:
    """Missed (gold unmatched) and spurious (pred unmatched) entity listing."""
    lines = []
    for tag, refs in (("MISSED", report.missed), ("SPURIOUS", report.spurious)):
        for ref in refs:
            lines.append(f"{tag}\t{ref.doc_id}\t{ref.label}\t"
                         f"{ref.start} {ref.end}\t{ref.surface}")
    return "\n".join(lines) + "\n" if lines else ""
