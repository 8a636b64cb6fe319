"""Label registry and cross-schema conversion.

Holds the 16-label workflow annotation schema (with its category grouping
and Tool qualifiers) and a rule-table engine that rewrites a corpus from a
source schema (SoftCite-style ``(base, attribute)`` labels) into this one.
An entity's attributes come from its document's sidecar, and the first
rule in table order whose attribute the entity carries wins.  The built-in
SoftCite table ships as ``data/softcite_mapping.json``.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from importlib import resources
from typing import Mapping, Optional, Sequence

from .corpus_io import check_fields, read_json
from .model import Corpus, Document, Entity, EntityLabel, InputError, Provenance
from .standoff import attribute_values

CORE = "core"
ENVIRONMENT = "environment"
SPECIFICS = "specifics"


class SchemaDef(namedtuple("SchemaDef", "labels categories qualifiers")):
    """A set of base labels, their category grouping and their qualifiers."""

    __slots__ = ()

    def __new__(cls, labels: frozenset[str], categories: Mapping[str, str],
                qualifiers: Mapping[str, frozenset[str]]) -> "SchemaDef":
        missing = labels - set(categories)
        if missing:
            raise ValueError(f"categories not total over labels: missing {sorted(missing)}")
        return tuple.__new__(cls, (labels, categories, qualifiers))

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


class MalformedTable(InputError):
    """A mapping table that cannot be used, located by table file and row
    (``"row N"``, counting from 0), by file and line (a byte that is not
    UTF-8), or by the file alone."""


class MappingRule(namedtuple("MappingRule", "source attribute target")):
    __slots__ = ()


class MappingTable(namedtuple("MappingTable", "rules")):
    """Ordered conversion rules; most specific (attributed) rules first.

    Order is significant twice over: an attributed rule must precede the
    attribute-free rule for the same base, and when an entity carries
    several known attributes the earliest matching rule wins.
    """

    __slots__ = ()

    def __new__(cls, rules: tuple[MappingRule, ...]) -> "MappingTable":
        seen: set[tuple[str, Optional[str]]] = set()
        bare_seen: set[str] = set()
        for rule in rules:
            key = rule[:2]
            if key in seen:
                raise ValueError(f"duplicate mapping rule for {key}")
            seen.add(key)
            if rule.attribute is None:
                bare_seen.add(rule.source)
            elif rule.source in bare_seen:
                raise ValueError(
                    f"attributed rule for {rule.source!r} must precede its bare rule")
        return tuple.__new__(cls, (rules,))

    def lookup(self, source_base: str, *attributes: Optional[str]) -> Optional[MappingRule]:
        """The first rule for ``source_base`` in table order whose attribute
        is one of ``attributes``, else the base's attribute-free rule, else
        None (the caller drops the entity).  Attributed rules precede the
        bare one, so a single pass finds either."""
        for rule in self.rules:
            if rule.source == source_base and (rule.attribute is None
                                               or rule.attribute in attributes):
                return rule
        return None


class ConversionReport(namedtuple("ConversionReport",
                                  "mapped dropped unknown multi_attribute_warnings")):
    """Per-source tallies of what the conversion did.

    Keys are ``base`` or ``base+attribute`` as actually matched; entities
    whose source has no rule at all are counted under ``unknown``.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "mapped": dict(sorted(self.mapped.items())),
            "dropped": dict(sorted(self.dropped.items())),
            "unknown": dict(sorted(self.unknown.items())),
            "multi_attribute_warnings": self.multi_attribute_warnings,
        }


def convert_corpus(corpus: Corpus, table: MappingTable, strict: bool = False,
                   ) -> tuple[Corpus, ConversionReport]:
    """Rewrite every entity label through the table.

    An entity's attributes are its sidecar attribute values plus its label
    qualifier, if the load consumed one; :meth:`MappingTable.lookup` picks
    the rule, and two or more distinct known attributes count a warning.
    Entities whose rule maps to None (or that have no rule, in default
    mode) are removed.  Spans and text are never touched; output documents
    carry ``provenance=converted`` and drop their sidecar records, which
    reference the source schema.
    """
    mapped, dropped, unknown = Counter(), Counter(), Counter()
    warnings = 0
    out_docs = []
    for doc in corpus.documents:
        attributes_by_id = attribute_values(doc.sidecar)
        kept: list[Entity] = []
        for ent in doc.entities:
            base = ent.label.base
            attributes = attributes_by_id.get(ent.id, [])
            if ent.label.qualifier is not None:
                attributes = [ent.label.qualifier, *attributes]
            # Rule keys are unique, so this counts distinct known attributes.
            if sum(r.source == base and r.attribute in attributes for r in table.rules) > 1:
                warnings += 1
            rule = table.lookup(base, *attributes)
            key = f"{base}+{rule.attribute}" if rule and rule.attribute else base
            if rule is None:
                if strict:
                    raise UnknownSourceLabel(
                        f"no mapping rule for source label {base!r} "
                        f"(doc {doc.doc_id}, entity {ent.id})")
                unknown[key] += 1
                dropped[key] += 1
                continue
            if rule.target is None:
                dropped[key] += 1
                continue
            mapped[key] += 1
            kept.append(Entity(id=ent.id, label=rule.target,
                               fragments=ent.fragments, surface=ent.surface))
        out_docs.append(Document(doc_id=doc.doc_id, text=doc.text,
                                 entities=tuple(kept),
                                 provenance=Provenance.CONVERTED, sidecar=()))
    return (Corpus(name=corpus.name, documents=tuple(out_docs)),
            ConversionReport(mapped, dropped, unknown, warnings))


def _rule_of(row) -> MappingRule:
    check_fields(row, MalformedTable, None, None, ("source",),
                 ("attribute", "target", "qualifier"))
    if not isinstance(row["source"], str):
        raise MalformedTable("'source' must be a string")
    for key in ("attribute", "target", "qualifier"):
        if not isinstance(row.get(key), (str, type(None))):
            raise MalformedTable(f"{key!r} must be a string or null")
    target = None
    if row.get("target") is not None:
        target = EntityLabel(row["target"], row.get("qualifier"))
        if not BIOTOFLOW.is_registered(target):
            raise MalformedTable(f"target {target} is not a label of the workflow schema")
    elif row.get("qualifier") is not None:
        raise MalformedTable("'qualifier' needs a 'target'")
    return MappingRule(source=row["source"], attribute=row.get("attribute"), target=target)


def load_mapping_table(rows: Sequence[dict], path=None) -> MappingTable:
    """Build a table from JSON objects {source[, attribute, target,
    qualifier]}; every fault raises :class:`MalformedTable` naming ``path``
    and the row."""
    if not isinstance(rows, (list, tuple)):
        raise MalformedTable("expected a JSON array of rows", path)
    rules = []
    for i, row in enumerate(rows):
        try:
            rules.append(_rule_of(row))
        except MalformedTable as exc:
            raise MalformedTable(exc.reason, path, f"row {i}") from None
    try:
        return MappingTable(tuple(rules))
    except ValueError as exc:
        raise MalformedTable(str(exc), path) from None


def mapping_table_from_file(path) -> MappingTable:
    return load_mapping_table(read_json(path, MalformedTable), path)


def default_softcite_table() -> MappingTable:
    """The shipped SoftCite-to-workflow-schema correspondence table."""
    text = resources.files("flowner.data").joinpath("softcite_mapping.json").read_text("utf-8")
    return load_mapping_table(json.loads(text))
