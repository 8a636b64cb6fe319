"""Independent oracles the implementation is checked against.

Everything here is deliberately written from the definitions, not by
calling into the package: compatibility via explicit character-position
sets, maximum matching via exhaustive search over injective mappings,
dictionary tagging via the regex alternation of every name that the
tagger scanned with before the dictionary of ``tagger.TaggerPredictor``
replaced it, SoftCite attribute resolution by the candidate sort that
``schema.convert_corpus`` used before ``MappingTable.lookup`` took
several attributes, and nesting by comparing every pair of extents.  The
one exception is ``oracle_match_document``: it is
``evaluation.match_document`` as it was before candidate indexing, when
it sorted its inputs and listed the matched entity pairs, testing every
gold×pred pair with the package's own overlap and the compatibility
test, per-gold sort and augmentation that the package had then, so that
it pins the exact pairs and tie-breaks, not only their count.
``oracle_score`` is ``evaluation.score`` as it was before it matched by
index: through that matcher, telling matched entities by set
membership, and sorting each listing by a key of its own.
``oracle_run_result_from_file`` is likewise ``experiment.run_result_from_file``
as it was before the walk that checks a run result built it: the package's
own check, then ``RunResult.from_json_dict`` and ``MatchReport.from_json_dict``
walking the same keys again.
``oracle_aggregate`` is ``experiment.aggregate`` as it was before every
row became one pooled label set: a per-label row read from the stored
score, the overall rows pooled, and one averaging path per mode.  The standoff
parser and the canonical entity order are kept as they were before the
single-regex entity line and the precomputed sort keys.  JSON text is
the stdlib's indented encoder, called here rather than through the
package: it is the reference that ``Gazetteer.to_json_text`` and its row
template are checked against.  The gazetteer build is
``gazetteer.build_gazetteer`` and ``to_json_dict`` as they were while
entries were frozen dataclasses, rebuilt for every kept name and each
given its own sorted ``sources`` list.  Document statistics are
``stats.document_stats`` as it was with a sweep over the span of every
token, found by ``TOKEN_RE.finditer`` as ``stats.tokenize`` did, the
tagger's fold is its per-character definition, and the shipped rule
patterns are kept as they were with a leading word boundary.  ``OracleSpan``,
``OracleEntityLabel`` and ``OracleEntity`` are the model's records as they
were while they were frozen dataclasses, and ``oracle_dataclass`` builds
any other value class as the dataclass it was.  Keep it slow and obvious.
"""

from __future__ import annotations

import json
import re
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, make_dataclass
from typing import TYPE_CHECKING, Optional

from flowner.corpus_io import read_json
from flowner.evaluation import (DocSetMismatch, LabelScore, MatchMode, MatchReport,
                                char_overlap)
from flowner.experiment import (AggregateTable, EmptyResults, MalformedResult, MetricRow,
                                MixedModes, RunResult, _check_run_result)
from flowner.gazetteer import BINARY_NAME, TOOL_NAME, shipped_common_words
from flowner.model import Document, Entity, EntityLabel, Provenance, Span
from flowner.schema import BIOTOFLOW
from flowner.standoff import DuplicateId, MalformedLine, OffsetOutOfRange, SurfaceMismatch
from flowner.stats import TOKEN_RE, StatsReport, _merge_intervals, count_nested

if TYPE_CHECKING:
    from flowner.gazetteer import Gazetteer, VocabEntry
    from flowner.schema import MappingRule, MappingTable
    from flowner.tagger import RuleSet


def _char_positions(entity) -> set[int]:
    positions: set[int] = set()
    for f in entity.fragments:
        positions.update(range(f.start, f.end))
    return positions


def oracle_compatible(g, p, mode_name: str) -> bool:
    if g.label.base != p.label.base:
        return False
    if mode_name == "strict":
        return [(f.start, f.end) for f in g.fragments] == \
               [(f.start, f.end) for f in p.fragments]
    if mode_name == "relaxed":
        return bool(_char_positions(g) & _char_positions(p))
    raise ValueError(mode_name)


def brute_force_max_pairs(gold, pred, mode_name: str) -> int:
    """Maximum number of one-to-one compatible pairs, by exhaustive search."""
    gold = list(gold)
    pred = list(pred)
    n, m = len(gold), len(pred)
    compat = [[oracle_compatible(gold[i], pred[j], mode_name) for j in range(m)]
              for i in range(n)]
    best = 0

    def search(i: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if i == n or count + (n - i) <= best:
            return
        for j in range(m):
            if not (used >> j) & 1 and compat[i][j]:
                search(i + 1, used | (1 << j), count + 1)
        search(i + 1, used, count)

    search(0, 0, 0)
    return best


def _oracle_entities_compatible(g: Entity, p: Entity, mode: MatchMode,
                                qualifier_sensitive: bool = False) -> bool:
    """``evaluation.entities_compatible``, the test that every candidate
    pair passed before the candidates alone stated the relation."""
    g_label, p_label = g[1], p[1]
    if g_label[0] != p_label[0]:
        return False
    if qualifier_sensitive and g_label[1] != p_label[1]:
        return False
    if mode == MatchMode.STRICT:
        return g[2] == p[2]
    return char_overlap(g, p) > 0


def _oracle_augment(root: int, adj: dict[int, list[tuple[int, int, int]]],
                    match_g: dict[int, int], match_p: dict[int, int]) -> bool:
    """``evaluation._augment`` as it was, with ``[gold, index]`` frames over
    per-gold lists of ``(-overlap, pred start, pred index)``."""
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


def oracle_match_document(gold, pred, mode, qualifier_sensitive: bool = False):
    """The (gold, pred) pairs, in gold order, of ``evaluation.match_document``
    as it was with its input sort, its all-pairs edge loop, its
    compatibility test, its per-gold sort and its frame-based augmentation."""
    gold_list = sorted(gold, key=Entity.sort_key)
    pred_list = sorted(pred, key=Entity.sort_key)

    edges: list[tuple[int, int, int, int, int]] = []
    for gi, g in enumerate(gold_list):
        for pi, p in enumerate(pred_list):
            if _oracle_entities_compatible(g, p, mode, qualifier_sensitive):
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
            _oracle_augment(gi, adj, match_g, match_p)

    return [(gold_list[gi], pred_list[pi]) for gi, pi in sorted(match_g.items())]


def _oracle_listing_key(listed) -> tuple:
    doc_id, entity = listed
    return (doc_id, entity.start, entity.end, entity.label.base, entity.id)


def oracle_score(gold_corpus, pred_corpus, mode, label_filter=None,
                 qualifier_sensitive: bool = False) -> MatchReport:
    """``evaluation.score`` as it was while it matched through
    ``match_document`` (here its all-pairs oracle) and told matched from
    unmatched entities by set membership."""
    gold_ids = set(gold_corpus.doc_ids())
    pred_ids = set(pred_corpus.doc_ids())
    if gold_ids != pred_ids:
        missing = sorted(gold_ids ^ pred_ids)
        raise DocSetMismatch(f"doc_id sets differ, e.g. {missing[:5]}")

    pred_by_id = {d.doc_id: d for d in pred_corpus.documents}
    counts: dict[str, Counter] = defaultdict(Counter)
    missed: list[tuple[str, Entity]] = []
    spurious: list[tuple[str, Entity]] = []

    for gold_doc in sorted(gold_corpus.documents, key=lambda d: d.doc_id):
        pred_doc = pred_by_id[gold_doc.doc_id]
        matched = oracle_match_document(gold_doc.entities, pred_doc.entities, mode,
                                        qualifier_sensitive)
        matched_gold = {g for g, _ in matched}
        matched_pred = {p for _, p in matched}
        for g, _ in matched:
            counts[g.label.base]["tp"] += 1
        for g in gold_doc.entities:
            if g not in matched_gold:
                counts[g.label.base]["fn"] += 1
                missed.append((gold_doc.doc_id, g))
        for p in pred_doc.entities:
            if p not in matched_pred:
                counts[p.label.base]["fp"] += 1
                spurious.append((gold_doc.doc_id, p))

    flt = tuple(sorted(set(label_filter))) if label_filter else None
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
        label_filter=flt,
        missed=tuple(sorted(missed, key=_oracle_listing_key)),
        spurious=tuple(sorted(spurious, key=_oracle_listing_key)),
    )


def oracle_match_report_from_json_dict(data) -> MatchReport:
    """``MatchReport.from_json_dict`` as it was: the report of a checked
    ``report`` object, its scores computed again from the counts."""
    per_label = {
        k: LabelScore.from_counts(v["tp"], v["fp"], v["fn"])
        for k, v in data["per_label"].items()
    }
    flt = tuple(data["label_filter"]) if data.get("label_filter") else None
    return MatchReport(mode=MatchMode(data["mode"]), per_label=per_label, label_filter=flt)


def oracle_run_result_from_file(path) -> RunResult:
    """``experiment.run_result_from_file`` as it was: one walk to check the
    file, then ``RunResult.from_json_dict``, a second walk that builds it."""
    data = read_json(path, MalformedResult)
    _check_run_result(data, path)
    return RunResult(split_id=data["split_id"], seed_model=data["seed_model"],
                     report=oracle_match_report_from_json_dict(data["report"]),
                     meta=data.get("meta", {}))


def _oracle_micro(per_label, label_filter) -> LabelScore:
    keys = per_label.keys() if label_filter is None else [
        k for k in per_label if k in set(label_filter)]
    tp = sum(per_label[k].tp for k in keys)
    fp = sum(per_label[k].fp for k in keys)
    fn = sum(per_label[k].fn for k in keys)
    return LabelScore.from_counts(tp, fp, fn)


def _mean_std(values) -> tuple[float, float]:
    mean = statistics.mean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def _oracle_row(samples) -> MetricRow:
    mp, sp = _mean_std([s[0] for s in samples])
    mr, sr = _mean_std([s[1] for s in samples])
    mf, sf = _mean_std([s[2] for s in samples])
    return MetricRow(mp, sp, mr, sr, mf, sf)


def _prf_percent(score: LabelScore) -> tuple[float, float, float]:
    return (100.0 * score.p, 100.0 * score.r, 100.0 * score.f1)


def _per_split_means(samples_by_split) -> list[tuple[float, float, float]]:
    means = []
    for split_id in sorted(samples_by_split):
        runs = samples_by_split[split_id]
        means.append(tuple(statistics.mean(r[i] for r in runs) for i in range(3)))
    return means


def oracle_aggregate(results, label_filter=None, per_split: bool = False) -> AggregateTable:
    if not results:
        raise EmptyResults("no run results to aggregate")
    modes = {r.report.mode for r in results}
    if len(modes) > 1:
        raise MixedModes(f"runs mix modes {sorted(m.value for m in modes)}")
    flt = tuple(sorted(set(label_filter))) if label_filter else None

    labels = sorted({base for r in results for base in r.report.per_label})
    zero = LabelScore.from_counts(0, 0, 0)

    def collect(metric_of) -> MetricRow:
        if per_split:
            by_split: dict[int, list] = {}
            for r in results:
                by_split.setdefault(r.split_id, []).append(metric_of(r))
            return _oracle_row(_per_split_means(by_split))
        return _oracle_row([metric_of(r) for r in results])

    per_label_rows = {
        base: collect(lambda r, b=base: _prf_percent(r.report.per_label.get(b, zero)))
        for base in labels
    }
    overall_row = collect(lambda r: _prf_percent(_oracle_micro(r.report.per_label, None)))
    focused_row = None
    if flt:
        focused_row = collect(lambda r: _prf_percent(_oracle_micro(r.report.per_label, flt)))

    return AggregateTable(per_label=per_label_rows, overall=overall_row,
                          overall_focused=focused_row)


def oracle_count_nested(doc) -> int:
    """Entities whose extent lies strictly inside another entity's extent."""
    extents = [(e.start, e.end) for e in doc.entities]
    nested = 0
    for i, (s, e) in enumerate(extents):
        for j, (s2, e2) in enumerate(extents):
            if i != j and s2 <= s and e <= e2 and (s2 < s or e < e2):
                nested += 1
                break
    return nested


def oracle_document_stats(doc: Document) -> StatsReport:
    """``stats.document_stats`` as it was with a loop over every token span."""
    labels: Counter = Counter()
    for ent in doc.entities:
        labels[ent.label.base] += 1

    token_spans = [m.span() for m in TOKEN_RE.finditer(doc.text)]
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
    return StatsReport(labels, len(doc.entities), count_nested(doc), len(token_spans),
                       annotated, 1)


def oracle_fold(s: str) -> str:
    """The tagger's fold, one character at a time."""
    return "".join(next((f for f in (c.casefold(), c.lower()) if len(f) == 1), c)
                   for c in s)


# The shipped version and citation patterns as they were before each began
# with its literal: a leading word boundary, which the regex engine tries at
# every position of the text.
ORACLE_RULE_PATTERNS = (
    r"\b[Vv]ersions?\s+\d+(?:\.\d+)*[A-Za-z]?\b",
    r"\bv\d+(?:\.\d+)+[A-Za-z]?\b",
    r"\b\d+(?:\.\d+)+[A-Za-z]?\b",
    r"\[\d+(?:\s*[,;\u2013-]\s*\d+)*\]",
    r"\b10\.\d{4,9}/[^\s,;\])>]+",
    r"\bhttps?://[^\s,;\])>]+",
)


# The dictionary scan the tagger used before ``TaggerPredictor.candidates``:
# one lookahead alternation of every surface, run case-sensitively and then
# with re.IGNORECASE.  O(text x names), kept as the reference for that scan.
_RANK_DICT_CASED = 0
_RANK_DICT_FOLDED = 1


def _dictionary(gaz: Optional[Gazetteer], rules: RuleSet) -> dict[str, str]:
    """surface -> base label; fixed-list labels override the Tool default."""
    table: dict[str, str] = {}
    if gaz is not None:
        for entry in gaz.entries.values():
            table[entry.canonical] = "Tool"
    for base in sorted(rules.fixed_lists):
        for surface in rules.fixed_lists[base]:
            table[surface] = base
    return table


def _dict_candidates(text: str, table: dict[str, str],
                     ) -> list[tuple[int, int, int, str]]:
    """(start, end, rank, label) for every word-boundary dictionary hit.

    A lookahead wrapper makes the scan yield a candidate at every start
    position, longest alternative first, instead of consuming matches.
    """
    if not table:
        return []
    alternation = "|".join(re.escape(s)
                           for s in sorted(table, key=lambda s: (-len(s), s)))
    pattern = r"(?=((?<!\w)(?:" + alternation + r")(?!\w)))"
    folded = {}
    for surface, base in table.items():
        folded.setdefault(surface.casefold(), base)

    found: dict[tuple[int, int], tuple[int, str]] = {}
    for flags, rank in ((0, _RANK_DICT_CASED), (re.IGNORECASE, _RANK_DICT_FOLDED)):
        for m in re.finditer(pattern, text, flags):
            matched = m.group(1)
            span = (m.start(1), m.end(1))
            label = table.get(matched) if rank == _RANK_DICT_CASED else \
                folded.get(matched.casefold())
            if label is None:
                continue
            prior = found.get(span)
            if prior is None or rank < prior[0]:
                found[span] = (rank, label)
    return [(s, e, rank, label) for (s, e), (rank, label) in found.items()]


# SoftCite attribute resolution as ``schema`` did it before
# ``MappingTable.lookup`` took several attributes, over ``table.rules`` only.
def _exact_or_bare_rule(table: MappingTable, base: str,
                        attribute: Optional[str]) -> Optional[MappingRule]:
    """The exact ``(base, attribute)`` rule, else the base's attribute-free rule."""
    for rule in table.rules:
        if rule.source == base and attribute is not None and rule.attribute == attribute:
            return rule
    for rule in table.rules:
        if rule.source == base and rule.attribute is None:
            return rule
    return None


def oracle_resolve(table: MappingTable, base: str, qualifier: Optional[str],
                   sidecar_values: list[str]) -> tuple[Optional[MappingRule], bool]:
    """(rule, warned) for one entity.

    The known attributes are those with a rule for ``base``; among the
    entity's (label qualifier first, then sidecar values) the one whose rule
    comes first in the table wins, with no known attribute the bare rule
    applies, and two or more distinct known attributes count a warning.
    """
    known = {r.attribute for r in table.rules if r.source == base and r.attribute is not None}
    candidates: list[str] = []
    for value in [qualifier, *sidecar_values]:
        if value in known and value not in candidates:
            candidates.append(value)
    candidates.sort(key=lambda a: table.rules.index(_exact_or_bare_rule(table, base, a)))
    attribute = candidates[0] if candidates else None
    return _exact_or_bare_rule(table, base, attribute), len(candidates) > 1


def oracle_convert(table: MappingTable, entities) -> tuple[dict, dict]:
    """Target labels by entity id, and the report ``ConversionReport.to_json_dict``
    should give, for ``(entity id, base, qualifier, sidecar values)`` tuples."""
    labels = {}
    mapped: Counter = Counter()
    dropped: Counter = Counter()
    unknown: Counter = Counter()
    warnings = 0
    for ent_id, base, qualifier, sidecar_values in entities:
        rule, warned = oracle_resolve(table, base, qualifier, sidecar_values)
        warnings += warned
        key = base if rule is None or rule.attribute is None else f"{base}+{rule.attribute}"
        if rule is None:
            unknown[key] += 1
        if rule is None or rule.target is None:
            dropped[key] += 1
        else:
            mapped[key] += 1
            labels[ent_id] = rule.target
    return labels, {"mapped": dict(mapped), "dropped": dict(dropped),
                    "unknown": dict(unknown), "multi_attribute_warnings": warnings}


# The standoff parser before the single-regex entity line: every entity
# line is split and checked field by field.  One change from the original:
# span digits are tested with ``str.isdecimal``, the set ``int()`` accepts,
# where ``str.isdigit`` let a digit such as '²' reach ``int()`` and escape
# as a bare ValueError.
_ORACLE_ENTITY_ID_RE = re.compile(r"^T\d+$")
_ORACLE_ATTR_LINE_RE = re.compile(r"^(A\d+)\t(\S+)[ \t](\S+)(?:[ \t](\S+))?\s*$")


def _oracle_norm_space(s: str) -> str:
    return " ".join(s.split())


def _oracle_split_lines(content: str) -> list[str]:
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _oracle_parse_fragments(span_text: str, doc_id: str, line_no: int) -> tuple[Span, ...]:
    fragments = []
    for segment in span_text.split(";"):
        parts = segment.split()
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise MalformedLine(f"bad span segment {segment!r}", doc_id, line_no)
        start, end = int(parts[0]), int(parts[1])
        if start >= end:
            raise MalformedLine(f"empty or reversed span {start} {end}", doc_id, line_no)
        fragments.append(Span(start, end))
    for prev, cur in zip(fragments, fragments[1:]):
        if cur.start < prev.end:
            raise MalformedLine("fragments out of order or overlapping", doc_id, line_no)
    return tuple(fragments)


def oracle_parse_standoff(ann_content: str, doc_text: str, doc_id: str,
                          provenance: Provenance = Provenance.GOLD,
                          qualifiers=None) -> Document:
    if qualifiers is None:
        qualifiers = BIOTOFLOW.qualifiers

    text_len = len(doc_text)
    protos: dict[str, tuple[int, str, tuple[Span, ...], str]] = {}
    other_lines: list[tuple[int, str]] = []

    for line_no, line in enumerate(_oracle_split_lines(ann_content), start=1):
        head = line.split("\t", 1)[0]
        if not _ORACLE_ENTITY_ID_RE.match(head):
            other_lines.append((line_no, line))
            continue
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise MalformedLine("entity line needs id, label/spans and surface",
                                doc_id, line_no)
        ent_id, type_spans, recorded_surface = parts
        if ent_id in protos:
            raise DuplicateId(f"entity id {ent_id} already used", doc_id, line_no)
        label_and_spans = type_spans.split(None, 1)
        if len(label_and_spans) != 2:
            raise MalformedLine(f"missing spans after label in {type_spans!r}",
                                doc_id, line_no)
        base, span_text = label_and_spans
        fragments = _oracle_parse_fragments(span_text, doc_id, line_no)
        if fragments[-1].end > text_len:
            raise OffsetOutOfRange(
                f"fragment end {fragments[-1].end} exceeds text length {text_len}",
                doc_id, line_no)
        canonical = " ".join(doc_text[f.start:f.end] for f in fragments)
        if _oracle_norm_space(recorded_surface) != _oracle_norm_space(canonical):
            raise SurfaceMismatch(
                f"recorded surface {recorded_surface!r} != text slice {canonical!r}",
                doc_id, line_no)
        protos[ent_id] = (line_no, base, fragments, canonical)

    attached: dict[str, str] = {}
    sidecar: list[str] = []
    for _line_no, line in other_lines:
        m = _ORACLE_ATTR_LINE_RE.match(line)
        if m:
            _attr_id, name, target, value = m.groups()
            qualifier = value if value is not None else name
            if target in protos:
                base = protos[target][1]
                if qualifier in qualifiers.get(base, frozenset()) and target not in attached:
                    attached[target] = qualifier
                    continue
        sidecar.append(line)

    entities = tuple(
        Entity(id=ent_id, label=EntityLabel(base, attached.get(ent_id)),
               fragments=fragments, surface=surface)
        for ent_id, (_ln, base, fragments, surface) in protos.items()
    )
    return Document(doc_id=doc_id, text=doc_text, entities=entities,
                    provenance=provenance, sidecar=tuple(sidecar))


# The canonical entity order before precomputed keys: deduplicate through a
# set, then sort by a key built per entity.  Entities with equal keys come
# out in set order, which follows string hashes and so varies between runs.
def oracle_id_key(entity_id: str) -> tuple[int, str]:
    if len(entity_id) > 1 and entity_id[0] == "T" and entity_id[1:].isdecimal():
        return (int(entity_id[1:]), "")
    return (1 << 60, entity_id)


def oracle_sort_key(e: Entity) -> tuple:
    return (e.start, e.end, e.label.base, e.label.qualifier or "",
            oracle_id_key(e.id), e.surface)


def oracle_canonical_order(entities) -> tuple[Entity, ...]:
    return tuple(sorted(set(entities), key=oracle_sort_key))


def oracle_dumps_json(data) -> str:
    return json.dumps(data, ensure_ascii=False, indent=2)


@dataclass(frozen=True)
class OracleVocabEntry:
    canonical: str
    kind: str
    sources: frozenset[str]

    def __post_init__(self) -> None:
        if not self.canonical.strip():
            raise ValueError("vocab entry name is empty")


_ORACLE_NUMERIC_RE = re.compile(r"^\d+(?:[.,]\d+)*$")


def oracle_build_gazetteer(entries: list[VocabEntry], *, min_length: int = 2,
                           drop_numeric: bool = True, drop_common_words: bool = True,
                           common_words: Optional[frozenset[str]] = None,
                           ) -> tuple[dict[str, OracleVocabEntry], dict]:
    """The kept ``{key: entry}`` table and the normalization record."""
    common = common_words if common_words is not None else (
        shipped_common_words() if drop_common_words else frozenset())
    merged: dict[str, OracleVocabEntry] = {}
    for entry in entries:
        name = entry.canonical.strip()
        key = name.casefold()
        prior = merged.get(key)
        if prior is None:
            merged[key] = OracleVocabEntry(name, entry.kind, entry.sources)
        else:
            kind = TOOL_NAME if TOOL_NAME in (prior.kind, entry.kind) else BINARY_NAME
            merged[key] = OracleVocabEntry(prior.canonical, kind,
                                           prior.sources | entry.sources)
    kept: dict[str, OracleVocabEntry] = {}
    filtered = {"too_short": 0, "numeric": 0, "common_word": 0}
    for key in sorted(merged):
        if len(key) < min_length:
            filtered["too_short"] += 1
        elif drop_numeric and _ORACLE_NUMERIC_RE.match(key):
            filtered["numeric"] += 1
        elif drop_common_words and key in common:
            filtered["common_word"] += 1
        else:
            kept[key] = merged[key]
    normalization = {
        "min_length": min_length,
        "drop_numeric": drop_numeric,
        "drop_common_words": drop_common_words,
        "filtered": filtered,
        "kept": len(kept),
    }
    return kept, normalization


def oracle_gazetteer_json(kept: dict[str, OracleVocabEntry], normalization: dict) -> dict:
    return {
        "normalization": dict(normalization),
        "entries": [
            {"key": key, "canonical": e.canonical, "kind": e.kind,
             "sources": sorted(e.sources)}
            for key, e in kept.items()
        ],
    }


# The model's records as they were while they were frozen dataclasses.
@dataclass(frozen=True, order=True)
class OracleSpan:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"span start must be >= 0, got {self.start}")
        if self.start >= self.end:
            raise ValueError(f"span must be non-empty: [{self.start}, {self.end})")


@dataclass(frozen=True)
class OracleEntityLabel:
    base: str
    qualifier: Optional[str] = None


@dataclass(frozen=True)
class OracleEntity:
    id: str
    label: OracleEntityLabel
    fragments: tuple[OracleSpan, ...]
    surface: str


# The other value classes' fields, in order, as their dataclasses declared
# them; all were frozen but the two reports.
_DATACLASS_FIELDS = {
    "Document": "doc_id text entities provenance sidecar",
    "Corpus": "name documents",
    "Violation": "kind doc_id entity_id message",
    "LabelScore": "tp fp fn p r f1",
    "MatchReport": "mode per_label label_filter missed spurious",
    "StatsReport": "labels entities nested_entities tokens annotated_tokens documents",
    "SplitManifest": "split_id seed train_ids dev_ids test_ids ratios",
    "RunResult": "split_id seed_model report meta",
    "MetricRow": "mean_p std_p mean_r std_r mean_f1 std_f1",
    "AggregateTable": "per_label overall overall_focused",
    "SchemaDef": "labels categories qualifiers",
    "MappingRule": "source attribute target",
    "MappingTable": "rules",
    "ConversionReport": "mapped dropped unknown multi_attribute_warnings",
    "Gazetteer": "entries normalization",
    "RuleSet": "version_patterns biblio_patterns fixed_lists",
}


def oracle_dataclass(name: str):
    """The value class ``name`` as the dataclass it was: its fields, with the
    generated ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__``."""
    return make_dataclass(name, _DATACLASS_FIELDS[name].split(),
                          frozen=name not in ("StatsReport", "ConversionReport"))
