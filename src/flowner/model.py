"""Data model for standoff-annotated documents.

Offsets count Unicode scalar values (Python ``str`` indices), never bytes.
All types are immutable after construction, so documents can be processed
in parallel without shared state.

Invariants enforced at construction time are the ones a value can check on
its own: span ordering inside an entity, non-negative offsets.  Invariants
that need the document text (offsets in range, surface/text agreement, id
uniqueness) are checked by :func:`validate_corpus`, which reports them as
data rather than raising, so a corpus with broken annotations can still be
loaded and inspected.

Records: every value class of the package is a ``namedtuple`` subclass
with ``__slots__ = ()``, built, hashed, compared and ordered in C: this
module's, the scores and reports of :mod:`~flowner.evaluation`,
:mod:`~flowner.stats`, :mod:`~flowner.schema` and :mod:`~flowner.experiment`,
the :class:`~flowner.gazetteer.Gazetteer` and its entries, and the
tagger's ``RuleSet``.  No module imports :mod:`dataclasses`, whose
generated methods cost about a third of the CLI's start-up.  A subclass
adds only what differs from a plain namedtuple: a ``__new__`` that checks
or normalizes its fields or gives a fresh default (``RunResult.meta``),
and a ``__len__`` that counts contents (``Corpus``: documents,
``Gazetteer``: entries).  namedtuple's ``_make`` and ``_replace`` bypass
``__new__``, raise ``TypeError`` where ``__len__`` counts contents, and
are not flowner API.  Parsers whose fields are already checked build
records with ``partial(tuple.__new__, cls)``.  Records hash and print as
the dataclasses they replace did, so set and dict orders are unchanged;
unlike those, a record equals the plain tuple of its fields
(``Span(0, 3) == (0, 3)``), records are ordered, assigning a field raises
``AttributeError``, and the stats and conversion reports, built once
from counters, are immutable too.

A :class:`Document` keeps its entities in canonical order
(:meth:`Entity.sort_key`); entities whose extents already strictly
increase, as :mod:`flowner.standoff` writes them, are kept without
computing a key.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial
from typing import Optional, Sequence


class InputError(ValueError):
    """An input that cannot be used, located by ``path`` (a file, or the
    doc_id of parsed text) and ``where`` in it: an int is a 1-based line,
    shown as ``path:line: reason``; any other value (a key, ``"record 3"``)
    as ``path: where: reason``.  A part that is None is left out."""

    def __init__(self, reason: str, path=None, where=None):
        super().__init__(reason, path, where)
        self.reason = reason
        self.path = path
        self.where = where

    def __str__(self) -> str:
        parts = (self.path, self.where, self.reason)
        if type(self.where) is int:
            parts = (f"{self.path}:{self.where}", self.reason)
        return ": ".join(str(p) for p in parts if p is not None)


class Provenance(str, Enum):
    """Where a document's annotations came from."""

    GOLD = "gold"
    SILVER = "silver"
    CONVERTED = "converted"


class Span(namedtuple("Span", "start end")):
    """Half-open character interval ``[start, end)`` into a document text."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "Span":
        if start < 0:
            raise ValueError(f"span start must be >= 0, got {start}")
        if start >= end:
            raise ValueError(f"span must be non-empty: [{start}, {end})")
        return tuple.__new__(cls, (start, end))


class EntityLabel(namedtuple("EntityLabel", "base qualifier", defaults=(None,))):
    """Schema label: a base and an optional qualifier.

    The base is not restricted here; source corpora in foreign schemas
    (e.g. ``software``) pass through the same model before conversion.
    Registration checks live in :mod:`flowner.schema`.
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self[1]:
            return f"{self[0]}({self[1]})"
        return self[0]


class Entity(namedtuple("Entity", "id label fragments surface")):
    """One annotation.

    ``fragments`` must be sorted by start and pairwise non-overlapping;
    ``surface`` must equal the document-text slices of the fragments
    joined by a single space (checked against the text by
    :func:`validate_corpus`, since the entity itself has no text).
    Entities from *distinct* annotations may nest or overlap freely.
    """

    __slots__ = ()

    def __new__(cls, id: str, label: EntityLabel, fragments: tuple[Span, ...],
                surface: str) -> "Entity":
        if type(fragments) is not tuple:
            fragments = tuple(fragments)
        if not fragments:
            raise ValueError(f"entity {id} has no fragments")
        if len(fragments) > 1:
            for prev, cur in zip(fragments, fragments[1:]):
                if cur.start < prev.start:
                    raise ValueError(f"entity {id}: fragments not sorted by start")
                if cur.start < prev.end:
                    raise ValueError(f"entity {id}: fragments overlap")
        return tuple.__new__(cls, (id, label, fragments, surface))

    # Indexed rather than by field name: these run once per entity and pair.
    @property
    def start(self) -> int:
        return self[2][0][0]

    @property
    def end(self) -> int:
        return self[2][-1][1]

    def slice_text(self, text: str) -> str:
        """The canonical surface: fragment slices joined by one space."""
        return " ".join(text[f.start:f.end] for f in self.fragments)

    def sort_key(self) -> tuple:
        label, fragments = self[1], self[2]
        return (fragments[0][0], fragments[-1][1], label[0], label[1] or "",
                _id_key(self[0]), self[3])


# Records whose fields are already known to be valid, built without checks:
# each takes the tuple of its fields.
_checked_span = partial(tuple.__new__, Span)
_checked_label = partial(tuple.__new__, EntityLabel)
_checked_entity = partial(tuple.__new__, Entity)


@lru_cache(maxsize=1 << 12)
def _id_key(entity_id: str) -> tuple[int, str]:
    """Numeric-aware ordering for ids like T2 < T10 (cached: every document
    reuses the same few ids, and parsing one dominates the sort key)."""
    # isdecimal, not isdigit: int() rejects digits such as '²'.
    digits = entity_id[1:]
    if entity_id[:1] == "T" and digits.isdecimal():
        return (int(digits), "")
    return (1 << 60, entity_id)


def _extents_increase(entities: Sequence[Entity]) -> bool:
    """Whether the entities' ``(start, end)`` extents strictly increase.

    Sort keys begin with the extent, so such entities are already in
    canonical order and pairwise distinct.  :func:`serialize_standoff
    <flowner.standoff.serialize_standoff>` writes entities in this order
    whenever no two of them share an extent.
    """
    prev = (-1, -1)
    for e in entities:
        fragments = e[2]
        extent = (fragments[0][0], fragments[-1][1])
        if extent <= prev:
            return False
        prev = extent
    return True


def _canonical_order(entities) -> tuple[Entity, ...]:
    """Entities sorted by :meth:`Entity.sort_key`, each distinct entity once,
    at its first occurrence; entities with equal keys keep their input order.
    Entities whose extents strictly increase are returned as they are,
    without a key."""
    entities = tuple(entities)
    if _extents_increase(entities):
        return entities
    return tuple(sorted(dict.fromkeys(entities), key=Entity.sort_key))


class Document(namedtuple("Document", "doc_id text entities provenance sidecar")):
    """Article text plus its entity annotations and opaque sidecar records.

    Entities are kept as a canonically sorted, duplicate-free tuple so two
    documents with the same annotation *set* compare equal regardless of
    construction order.  ``sidecar`` holds non-entity standoff lines
    verbatim, in file order, for lossless round-trips.
    """

    __slots__ = ()

    def __new__(cls, doc_id: str, text: str, entities: Sequence[Entity] = (),
                provenance: Provenance = Provenance.GOLD,
                sidecar: Sequence[str] = ()) -> "Document":
        return tuple.__new__(cls, (doc_id, text, _canonical_order(entities), provenance,
                                   tuple(sidecar)))


class Corpus(namedtuple("Corpus", "name documents")):
    """Named list of documents; doc_ids must be unique (see validate_corpus).
    Its length is its document count."""

    __slots__ = ()

    def __new__(cls, name: str, documents: Sequence[Document] = ()) -> "Corpus":
        return tuple.__new__(cls, (name, tuple(documents)))

    def doc_ids(self) -> list[str]:
        return [d.doc_id for d in self.documents]

    def __len__(self) -> int:
        return len(self.documents)


class Violation(namedtuple("Violation", "kind doc_id entity_id message")):
    """One broken invariant, located by document and entity id."""

    __slots__ = ()

    def __str__(self) -> str:
        where = f"{self.doc_id}/{self.entity_id}" if self.entity_id else self.doc_id
        return f"{self.kind} at {where}: {self.message}"


OFFSET_OUT_OF_RANGE = "OffsetOutOfRange"
SURFACE_MISMATCH = "SurfaceMismatch"
DUPLICATE_ID = "DuplicateId"
DUPLICATE_DOC_ID = "DuplicateDocId"
UNREGISTERED_LABEL = "UnregisteredLabel"


def validate_document(doc: Document, registered_bases: Optional[frozenset[str]] = None,
                      ) -> list[Violation]:
    """Check text-relative invariants of one document.

    Returns an empty list iff every entity's offsets fit the text, every
    surface matches its slices, and entity ids are unique.  When
    ``registered_bases`` is given, labels outside it are also reported.
    """
    violations: list[Violation] = []
    n = len(doc.text)
    seen_ids: dict[str, Entity] = {}
    for ent in doc.entities:
        if ent.id in seen_ids:
            violations.append(Violation(
                DUPLICATE_ID, doc.doc_id, ent.id,
                f"id {ent.id} used by more than one entity"))
        else:
            seen_ids[ent.id] = ent
        if ent.end > n:
            violations.append(Violation(
                OFFSET_OUT_OF_RANGE, doc.doc_id, ent.id,
                f"fragment end {ent.end} exceeds text length {n}"))
            continue
        expected = ent.slice_text(doc.text)
        if ent.surface != expected:
            violations.append(Violation(
                SURFACE_MISMATCH, doc.doc_id, ent.id,
                f"surface {ent.surface!r} != text slice {expected!r}"))
        if registered_bases is not None and ent.label.base not in registered_bases:
            violations.append(Violation(
                UNREGISTERED_LABEL, doc.doc_id, ent.id,
                f"label {ent.label.base!r} is not in the schema"))
    return violations


def validate_corpus(corpus: Corpus, registered_bases: Optional[frozenset[str]] = None,
                    ) -> list[Violation]:
    """Check every document plus corpus-level doc_id uniqueness."""
    violations: list[Violation] = []
    seen: set[str] = set()
    for doc in corpus.documents:
        if doc.doc_id in seen:
            violations.append(Violation(
                DUPLICATE_DOC_ID, doc.doc_id, None,
                f"doc_id {doc.doc_id} appears more than once"))
        seen.add(doc.doc_id)
        violations.extend(validate_document(doc, registered_bases))
    return violations
