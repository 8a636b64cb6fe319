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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional


class Provenance(str, Enum):
    """Where a document's annotations came from."""

    GOLD = "gold"
    SILVER = "silver"
    CONVERTED = "converted"


@dataclass(frozen=True, order=True)
class Span:
    """Half-open character interval ``[start, end)`` into a document text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"span start must be >= 0, got {self.start}")
        if self.start >= self.end:
            raise ValueError(f"span must be non-empty: [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class EntityLabel:
    """Schema label: a base name plus an optional qualifier.

    The base is not restricted here; source corpora in foreign schemas
    (e.g. ``software``) pass through the same model before conversion.
    Registration checks live in :mod:`flowner.schema`.
    """

    base: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.base}({self.qualifier})"
        return self.base


@dataclass(frozen=True)
class Entity:
    """One annotation: an id, a label and one or more text fragments.

    ``fragments`` must be sorted by start and pairwise non-overlapping;
    ``surface`` must equal the document-text slices of the fragments
    joined by a single space (checked against the text by
    :func:`validate_corpus`, since the entity itself has no text).
    Entities from *distinct* annotations may nest or overlap freely.
    """

    id: str
    label: EntityLabel
    fragments: tuple[Span, ...]
    surface: str

    def __post_init__(self) -> None:
        frags = self.fragments
        if type(frags) is not tuple:
            frags = tuple(frags)
            object.__setattr__(self, "fragments", frags)
        if not frags:
            raise ValueError(f"entity {self.id} has no fragments")
        if len(frags) > 1:
            for prev, cur in zip(frags, frags[1:]):
                if cur.start < prev.start:
                    raise ValueError(f"entity {self.id}: fragments not sorted by start")
                if cur.start < prev.end:
                    raise ValueError(f"entity {self.id}: fragments overlap")

    @property
    def start(self) -> int:
        return self.fragments[0].start

    @property
    def end(self) -> int:
        return self.fragments[-1].end

    def extent(self) -> Span:
        """Smallest single span covering every fragment."""
        return Span(self.start, self.end)

    def slice_text(self, text: str) -> str:
        """The canonical surface: fragment slices joined by one space."""
        return " ".join(text[f.start:f.end] for f in self.fragments)

    def sort_key(self) -> tuple:
        label, fragments = self.label, self.fragments
        return (fragments[0].start, fragments[-1].end, label.base, label.qualifier or "",
                _id_key(self.id), self.surface)


@lru_cache(maxsize=1 << 12)
def _id_key(entity_id: str) -> tuple[int, str]:
    """Numeric-aware ordering for ids like T2 < T10 (cached: every document
    reuses the same few ids, and parsing one dominates the sort key)."""
    # isdecimal, not isdigit: int() rejects digits such as '²'.
    digits = entity_id[1:]
    if entity_id[:1] == "T" and digits.isdecimal():
        return (int(digits), "")
    return (1 << 60, entity_id)


def _canonical_order(entities) -> tuple[Entity, ...]:
    """Entities sorted by :meth:`Entity.sort_key`, each distinct entity once.

    Each key is computed once.  Equal entities have equal keys, so
    duplicates are found among neighbours with the same key, by equality,
    without hashing; entities with equal keys keep their input order.
    """
    entities = tuple(entities)
    keys = [e.sort_key() for e in entities]
    unique: list[Entity] = []
    same_key: list[Entity] = []
    prev = None
    for i in sorted(range(len(entities)), key=keys.__getitem__):
        ent, key = entities[i], keys[i]
        if key != prev:
            prev, same_key = key, [ent]
        elif ent in same_key:
            continue
        else:
            same_key.append(ent)
        unique.append(ent)
    return tuple(unique)


@dataclass(frozen=True)
class Document:
    """Article text plus its entity annotations and opaque sidecar records.

    Entities are kept as a canonically sorted, duplicate-free tuple so two
    documents with the same annotation *set* compare equal regardless of
    construction order.  ``sidecar`` holds non-entity standoff lines
    verbatim, in file order, for lossless round-trips.
    """

    doc_id: str
    text: str
    entities: tuple[Entity, ...] = ()
    provenance: Provenance = Provenance.GOLD
    sidecar: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", _canonical_order(self.entities))
        object.__setattr__(self, "sidecar", tuple(self.sidecar))

    def entity_by_id(self, entity_id: str) -> Optional[Entity]:
        for e in self.entities:
            if e.id == entity_id:
                return e
        return None


@dataclass(frozen=True)
class Corpus:
    """Named list of documents; doc_ids must be unique (see validate_corpus)."""

    name: str
    documents: tuple[Document, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))

    def doc_ids(self) -> list[str]:
        return [d.doc_id for d in self.documents]

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, located by document and entity id."""

    kind: str
    doc_id: str
    entity_id: Optional[str]
    message: str

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
