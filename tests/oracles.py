"""Independent oracles the implementation is checked against.

Everything here is deliberately written from the definitions, not by
calling into the package: compatibility via explicit character-position
sets, maximum matching via exhaustive search over injective mappings,
dictionary tagging via the regex alternation of every name that the
tagger scanned with before ``tagger.Matcher`` replaced it, SoftCite
attribute resolution by the candidate sort that ``schema.convert_corpus``
used before ``MappingTable.lookup`` took several attributes, and nesting
by comparing every pair of extents.  The one exception is
``oracle_match_document``: it is ``evaluation.match_document`` as it was
before candidate indexing, testing every gold×pred pair with the
package's own compatibility, overlap and augmentation, so that it pins
the exact pairs and tie-breaks, not only their count.  The standoff
parser and the canonical entity order are kept as they were before the
single-regex entity line and the precomputed sort keys.  Keep it slow and
obvious.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Optional

from flowner.evaluation import _augment, char_overlap, entities_compatible
from flowner.model import Document, Entity, EntityLabel, Provenance, Span
from flowner.schema import BIOTOFLOW
from flowner.standoff import DuplicateId, MalformedLine, OffsetOutOfRange, SurfaceMismatch

if TYPE_CHECKING:
    from flowner.gazetteer import Gazetteer
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


def oracle_match_document(gold, pred, mode, qualifier_sensitive: bool = False):
    """``evaluation.match_document`` with its all-pairs edge loop."""
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


# The dictionary scan the tagger used before ``Matcher``: one lookahead
# alternation of every surface, run case-sensitively and then with
# re.IGNORECASE.  O(text x names), kept as the reference for the matcher.
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
