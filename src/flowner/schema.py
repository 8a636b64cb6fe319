"""Label registry and cross-schema conversion.

Holds the 16-label workflow annotation schema (with its category grouping
and Tool qualifiers) and a rule-table engine that rewrites a corpus from a
source schema (SoftCite-style ``(base, attribute)`` labels) into this one.
The built-in SoftCite table ships as ``data/softcite_mapping.json``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Optional

from .model import Corpus, Document, Entity, EntityLabel, Provenance
from .standoff import attribute_values_for_entity

CORE = "core"
ENVIRONMENT = "environment"
SPECIFICS = "specifics"


@dataclass(frozen=True)
class SchemaDef:
    """A set of base labels, their category grouping and their qualifiers."""

    labels: frozenset[str]
    categories: Mapping[str, str]
    qualifiers: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        missing = self.labels - set(self.categories)
        if missing:
            raise ValueError(f"categories not total over labels: missing {sorted(missing)}")

    def is_registered(self, label: EntityLabel) -> bool:
        if label.base not in self.labels:
            return False
        if label.qualifier is None:
            return True
        return label.qualifier in self.qualifiers.get(label.base, frozenset())

    def category_members(self, category: str) -> frozenset[str]:
        return frozenset(b for b, c in self.categories.items() if c == category)


BIOTOFLOW = SchemaDef(
    labels=frozenset({
        "Data", "Tool", "Description", "Biblio", "Method", "WorkflowName",
        "File", "Parameter", "Version", "Hardware", "Database",
        "ManagementSystem", "Container", "ProgrammingLanguage",
        "LibraryPackage", "Environment",
    }),
    categories={
        "Data": CORE, "Tool": CORE, "Method": CORE, "WorkflowName": CORE,
        "File": CORE, "Database": CORE,
        "ManagementSystem": ENVIRONMENT, "Hardware": ENVIRONMENT,
        "Container": ENVIRONMENT, "ProgrammingLanguage": ENVIRONMENT,
        "Environment": ENVIRONMENT, "LibraryPackage": ENVIRONMENT,
        "Version": SPECIFICS, "Biblio": SPECIFICS,
        "Description": SPECIFICS, "Parameter": SPECIFICS,
    },
    qualifiers={"Tool": frozenset({"BioInfo", "Lab", "Context", "General"})},
)

# Attributes the SoftCite annotation files attach to their entities.
SOFTCITE_QUALIFIERS: Mapping[str, frozenset[str]] = {
    "software": frozenset({"environment", "url", "component", "implicit"}),
    "publisher": frozenset({"environment"}),
}


class UnknownSourceLabel(ValueError):
    """Raised in strict conversion when a source label has no rule at all."""


@dataclass(frozen=True)
class MappingRule:
    source: str
    attribute: Optional[str]
    target: Optional[EntityLabel]

    def key(self) -> tuple[str, Optional[str]]:
        return (self.source, self.attribute)


@dataclass(frozen=True)
class MappingTable:
    """Ordered conversion rules; most specific (attributed) rules first.

    Order is significant twice over: an attributed rule must precede the
    attribute-free rule for the same base, and when an entity carries
    several known attributes the earliest matching rule wins.
    """

    rules: tuple[MappingRule, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, Optional[str]]] = set()
        bare_seen: set[str] = set()
        for rule in self.rules:
            if rule.key() in seen:
                raise ValueError(f"duplicate mapping rule for {rule.key()}")
            seen.add(rule.key())
            if rule.attribute is None:
                bare_seen.add(rule.source)
            elif rule.source in bare_seen:
                raise ValueError(
                    f"attributed rule for {rule.source!r} must precede its bare rule")

    def lookup(self, source_base: str, source_attribute: Optional[str]) -> Optional[MappingRule]:
        """The exact ``(base, attribute)`` rule, else the base's attribute-free
        rule, else None (the caller drops the entity)."""
        if source_attribute is not None:
            for rule in self.rules:
                if rule.source == source_base and rule.attribute == source_attribute:
                    return rule
        for rule in self.rules:
            if rule.source == source_base and rule.attribute is None:
                return rule
        return None

    def known_attributes(self, source_base: str) -> frozenset[str]:
        return frozenset(r.attribute for r in self.rules
                         if r.source == source_base and r.attribute is not None)

    def rule_index(self, rule: MappingRule) -> int:
        return self.rules.index(rule)


@dataclass
class ConversionReport:
    """Per-source tallies of what the conversion did.

    Keys are ``base`` or ``base+attribute`` as actually matched; entities
    whose source has no rule at all are counted under ``unknown``.
    """

    mapped: Counter = field(default_factory=Counter)
    dropped: Counter = field(default_factory=Counter)
    unknown: Counter = field(default_factory=Counter)
    multi_attribute_warnings: int = 0

    def to_json_dict(self) -> dict:
        return {
            "mapped": dict(sorted(self.mapped.items())),
            "dropped": dict(sorted(self.dropped.items())),
            "unknown": dict(sorted(self.unknown.items())),
            "multi_attribute_warnings": self.multi_attribute_warnings,
        }


def _source_key(base: str, attribute: Optional[str]) -> str:
    return f"{base}+{attribute}" if attribute else base


def _resolve_attribute(doc: Document, ent: Entity, table: MappingTable,
                       report: ConversionReport) -> Optional[str]:
    """Pick the attribute the conversion should use for this entity.

    The parser attaches at most one qualifier; extra attribute lines stay
    in the sidecar.  If several known attributes are present, the one whose
    rule comes first in the table wins and a warning is counted.
    """
    known = table.known_attributes(ent.label.base)
    candidates = []
    if ent.label.qualifier in known:
        candidates.append(ent.label.qualifier)
    for value in attribute_values_for_entity(doc.sidecar, ent.id):
        if value in known and value not in candidates:
            candidates.append(value)
    if not candidates:
        return None
    if len(candidates) > 1:
        report.multi_attribute_warnings += 1
        candidates.sort(key=lambda a: table.rule_index(table.lookup(ent.label.base, a)))
    return candidates[0]


def convert_corpus(corpus: Corpus, table: MappingTable, strict: bool = False,
                   ) -> tuple[Corpus, ConversionReport]:
    """Rewrite every entity label through the table.

    Entities whose rule maps to None (or that have no rule, in default
    mode) are removed.  Spans and text are never touched; output documents
    carry ``provenance=converted`` and drop their sidecar records, which
    reference the source schema.
    """
    report = ConversionReport()
    out_docs = []
    for doc in corpus.documents:
        kept: list[Entity] = []
        for ent in doc.entities:
            attribute = _resolve_attribute(doc, ent, table, report)
            rule = table.lookup(ent.label.base, attribute)
            key = _source_key(ent.label.base, rule.attribute if rule else attribute)
            if rule is None:
                if strict:
                    raise UnknownSourceLabel(
                        f"no mapping rule for source label {ent.label.base!r} "
                        f"(doc {doc.doc_id}, entity {ent.id})")
                report.unknown[key] += 1
                report.dropped[key] += 1
                continue
            if rule.target is None:
                report.dropped[key] += 1
                continue
            report.mapped[key] += 1
            kept.append(Entity(id=ent.id, label=rule.target,
                               fragments=ent.fragments, surface=ent.surface))
        out_docs.append(Document(doc_id=doc.doc_id, text=doc.text,
                                 entities=tuple(kept),
                                 provenance=Provenance.CONVERTED, sidecar=()))
    return Corpus(name=corpus.name, documents=tuple(out_docs)), report


def load_mapping_table(rows: Iterable[Mapping]) -> MappingTable:
    """Build a table from JSON rows {source, attribute, target, qualifier}."""
    rules = []
    for row in rows:
        target = None
        if row.get("target") is not None:
            target = EntityLabel(row["target"], row.get("qualifier"))
        rules.append(MappingRule(source=row["source"],
                                 attribute=row.get("attribute"),
                                 target=target))
    return MappingTable(tuple(rules))


def mapping_table_from_file(path) -> MappingTable:
    with open(path, encoding="utf-8") as fh:
        return load_mapping_table(json.load(fh))


def default_softcite_table() -> MappingTable:
    """The shipped SoftCite-to-workflow-schema correspondence table."""
    text = resources.files("flowner.data").joinpath("softcite_mapping.json").read_text("utf-8")
    return load_mapping_table(json.loads(text))
