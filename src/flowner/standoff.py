"""Reader/writer for BRAT-style standoff annotation (.txt/.ann pairs).

Entity lines look like ``T1<TAB>Tool 8 11<TAB>BWA``; discontinuous
entities carry several ``start end`` segments separated by ``;``.  All
offsets count Unicode scalar values of the text as stored: files are read
byte-exact, with no newline translation, so a CRLF line end in a text
counts as two characters.  Annotation lines may end in LF or CRLF.
Non-entity lines (attributes, relations, notes, anything else) are kept
verbatim as sidecar records so a document round-trips losslessly — with
one exception: attribute lines that name a known qualifier of a known
label are consumed into the entity's qualifier and re-emitted in
canonical binary form (``A1<TAB>General T3``) on serialization.  That
exception is what makes ``parse(serialize(doc)) == doc`` hold for
documents built in code, which have qualifiers but no annotation file
behind them.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

from .model import Document, Entity, EntityLabel, Provenance, Span


class StandoffParseError(ValueError):
    """Parse failure, located by document and 1-based line number."""

    def __init__(self, message: str, doc_id: str, line_no: int):
        super().__init__(f"{doc_id}:{line_no}: {message}")
        self.doc_id = doc_id
        self.line_no = line_no


class MalformedLine(StandoffParseError):
    pass


class OffsetOutOfRange(StandoffParseError):
    pass


class SurfaceMismatch(StandoffParseError):
    pass


class DuplicateId(StandoffParseError):
    pass


_ENTITY_ID_RE = re.compile(r"^T\d+$")
# The common entity line, one fragment with ASCII offsets; every other line
# takes the general path, which owns the rest of the format.
_SIMPLE_ENTITY_LINE = re.compile(r"(T[0-9]+)\t(\S+) ([0-9]+) ([0-9]+)\t(.*)").fullmatch
_ATTR_LINE_RE = re.compile(r"^(A\d+)\t(\S+)[ \t](\S+)(?:[ \t](\S+))?\s*$")
_ATTR_ID_RE = re.compile(r"^A(\d+)\t")
_LINE_BREAK_RE = re.compile(r"[\r\n]")


def _norm_space(s: str) -> str:
    return " ".join(s.split())


def _split_lines(content: str) -> list[str]:
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if "\r" not in content:
        return lines
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _parse_fragments(span_text: str, doc_id: str, line_no: int) -> tuple[Span, ...]:
    fragments = []
    for segment in span_text.split(";"):
        parts = segment.split()
        # isdecimal, not isdigit: int() rejects digits such as '²'.
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


def parse_standoff(ann_content: str, doc_text: str, doc_id: str,
                   provenance: Provenance = Provenance.GOLD,
                   qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                   ) -> Document:
    """Parse one .ann file against its text into a Document.

    ``qualifiers`` maps base labels to their recognized qualifier names
    (defaults to the built-in workflow schema); attribute lines matching
    it set the entity's qualifier, first line in file order winning.
    Every malformed entity line raises a typed error carrying the line
    number — there is no partial silent result.
    """
    if qualifiers is None:
        from .schema import BIOTOFLOW
        qualifiers = BIOTOFLOW.qualifiers

    text_len = len(doc_text)
    protos: dict[str, tuple[str, tuple[Span, ...], str]] = {}
    other_lines: list[str] = []

    for line_no, line in enumerate(_split_lines(ann_content), start=1):
        m = _SIMPLE_ENTITY_LINE(line)
        if m is not None:
            ent_id, base, start, end, recorded_surface = m.groups()
            if ent_id in protos:
                raise DuplicateId(f"entity id {ent_id} already used", doc_id, line_no)
            start, end = int(start), int(end)
            if start >= end:
                raise MalformedLine(f"empty or reversed span {start} {end}", doc_id, line_no)
            fragments = (Span(start, end),)
        else:
            head = line.split("\t", 1)[0]
            if not _ENTITY_ID_RE.match(head):
                other_lines.append(line)
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
            fragments = _parse_fragments(span_text, doc_id, line_no)
        end = fragments[-1].end
        if end > text_len:
            raise OffsetOutOfRange(
                f"fragment end {end} exceeds text length {text_len}", doc_id, line_no)
        canonical = (doc_text[fragments[0].start:end] if len(fragments) == 1
                     else " ".join(doc_text[f.start:f.end] for f in fragments))
        if recorded_surface != canonical and \
                _norm_space(recorded_surface) != _norm_space(canonical):
            raise SurfaceMismatch(
                f"recorded surface {recorded_surface!r} != text slice {canonical!r}",
                doc_id, line_no)
        protos[ent_id] = (base, fragments, canonical)

    # Attribute pass: consume qualifier-bearing lines, keep the rest verbatim.
    attached: dict[str, str] = {}
    sidecar: list[str] = []
    for line in other_lines:
        m = _ATTR_LINE_RE.match(line)
        if m:
            _attr_id, name, target, value = m.groups()
            qualifier = value if value is not None else name
            if target in protos:
                base = protos[target][0]
                if qualifier in qualifiers.get(base, frozenset()) and target not in attached:
                    attached[target] = qualifier
                    continue
        sidecar.append(line)

    # Labels are immutable and most entities share a few: build each once.
    labels: dict[tuple[str, Optional[str]], EntityLabel] = {}
    entities = []
    for ent_id, (base, fragments, surface) in protos.items():
        key = (base, attached.get(ent_id))
        label = labels.get(key)
        if label is None:
            label = labels[key] = EntityLabel(*key)
        entities.append(Entity(ent_id, label, fragments, surface))
    return Document(doc_id, doc_text, tuple(entities), provenance, tuple(sidecar))


def serialize_standoff(doc: Document) -> tuple[str, str]:
    """Render a Document back to (ann_content, doc_text).

    Entity lines come out in ascending (first-fragment start, end) order,
    with their ids kept as-is.  Output re-parses to an equal Document
    provided the input satisfies the model invariants and its qualifiers
    are registered for their base labels.
    """
    lines = []
    for ent in doc.entities:
        span_text = ";".join(f"{f.start} {f.end}" for f in ent.fragments)
        surface = _LINE_BREAK_RE.sub(" ", ent.surface)
        lines.append(f"{ent.id}\t{ent.label.base} {span_text}\t{surface}")

    next_attr = 1 + max((int(m.group(1)) for line in doc.sidecar
                         if (m := _ATTR_ID_RE.match(line))), default=0)
    for ent in doc.entities:
        if ent.label.qualifier:
            lines.append(f"A{next_attr}\t{ent.label.qualifier} {ent.id}")
            next_attr += 1
    lines.extend(doc.sidecar)
    ann_content = "\n".join(lines) + "\n" if lines else ""
    return ann_content, doc.text


def attribute_values(sidecar: tuple[str, ...]) -> dict[str, list[str]]:
    """Values of the sidecar's attribute lines, by target entity id.

    Binary attributes (``A1<TAB>name T3``) yield their name; valued ones
    (``A1<TAB>name T3 value``) yield the value.  File order is preserved.
    """
    values: dict[str, list[str]] = {}
    for line in sidecar:
        m = _ATTR_LINE_RE.match(line)
        if m:
            _attr_id, name, target, value = m.groups()
            values.setdefault(target, []).append(name if value is None else value)
    return values
