import pytest

from flowner.model import Corpus, Document, EntityLabel, Provenance
from flowner.schema import (BIOTOFLOW, CORE, ENVIRONMENT, SPECIFICS,
                            MappingRule, MappingTable, UnknownSourceLabel,
                            convert_corpus, default_softcite_table,
                            load_mapping_table)
from flowner.standoff import parse_standoff, serialize_standoff
from flowner.schema import SOFTCITE_QUALIFIERS
from util import doc_of, ent


def test_schema_has_sixteen_labels_partitioned_6_6_4():
    assert len(BIOTOFLOW.labels) == 16
    core = BIOTOFLOW.category_members(CORE)
    env = BIOTOFLOW.category_members(ENVIRONMENT)
    spec_cat = BIOTOFLOW.category_members(SPECIFICS)
    assert (len(core), len(env), len(spec_cat)) == (6, 6, 4)
    assert core | env | spec_cat == BIOTOFLOW.labels
    assert core == {"Data", "Tool", "Method", "WorkflowName", "File", "Database"}
    assert spec_cat == {"Version", "Biblio", "Description", "Parameter"}


def test_tool_qualifiers_registered():
    for q in ("BioInfo", "Lab", "Context", "General"):
        assert BIOTOFLOW.is_registered(EntityLabel("Tool", q))
    assert not BIOTOFLOW.is_registered(EntityLabel("Tool", "Nope"))
    assert not BIOTOFLOW.is_registered(EntityLabel("Data", "BioInfo"))


def test_default_table_has_11_mappings_and_4_drops():
    table = default_softcite_table()
    mapped = [r for r in table.rules if r.target is not None]
    dropped = [r for r in table.rules if r.target is None]
    assert len(mapped) == 11
    assert len(dropped) == 4
    assert {r.source for r in dropped} == \
        {"publisher_person", "figure", "table", "formula"}


def test_table_targets_never_appear_as_sources():
    table = default_softcite_table()
    sources = {r.source for r in table.rules}
    assert sources.isdisjoint(BIOTOFLOW.labels)


@pytest.mark.parametrize("source,attribute,expected", [
    ("software", None, EntityLabel("Tool")),
    ("software", "environment", EntityLabel("Tool")),
    ("software", "url", EntityLabel("Biblio")),
    ("software", "component", EntityLabel("LibraryPackage")),
    ("software", "implicit", EntityLabel("Tool", "General")),
    ("publisher", None, EntityLabel("Biblio")),
    ("publisher", "environment", EntityLabel("Environment")),
    ("bibr", None, EntityLabel("Biblio")),
    ("version", None, EntityLabel("Version")),
    ("url", None, EntityLabel("Biblio")),
    ("language", None, EntityLabel("ProgrammingLanguage")),
    ("publisher_person", None, None),
    ("figure", None, None),
    ("table", None, None),
    ("formula", None, None),
])
def test_map_label_against_published_table(source, attribute, expected):
    assert default_softcite_table().lookup(source, attribute).target == expected


def test_map_label_unmapped_source_is_absent():
    assert default_softcite_table().lookup("paragraph", None) is None


def test_unknown_attribute_falls_back_to_bare_rule():
    rule = default_softcite_table().lookup("software", "whatnot")
    assert (rule.attribute, rule.target) == (None, EntityLabel("Tool"))


def test_table_rejects_duplicate_rules_and_bad_order():
    with pytest.raises(ValueError):
        MappingTable((MappingRule("a", None, EntityLabel("Tool")),
                      MappingRule("a", None, EntityLabel("Data"))))
    with pytest.raises(ValueError):
        MappingTable((MappingRule("a", None, EntityLabel("Tool")),
                      MappingRule("a", "x", EntityLabel("Data"))))


def test_convert_basic_example():
    text = "We used BWA v2 fig"
    doc = doc_of("d1", text,
                 ent("T1", "software", 8, 11, text),
                 ent("T2", "version", 12, 14, text),
                 ent("T3", "figure", 15, 18, text))
    out, report = convert_corpus(Corpus("sc", (doc,)), default_softcite_table())
    labels = {e.id: e.label for e in out.documents[0].entities}
    assert labels == {"T1": EntityLabel("Tool"), "T2": EntityLabel("Version")}
    assert dict(report.dropped) == {"figure": 1}
    assert dict(report.mapped) == {"software": 1, "version": 1}
    assert out.documents[0].provenance == Provenance.CONVERTED


def test_convert_uses_attributes_from_parsing():
    text = "code on github.com here"
    ann = ("T1\tsoftware 8 18\tgithub.com\n"
           "A1\turl T1\n")
    doc = parse_standoff(ann, text, "d1", qualifiers=SOFTCITE_QUALIFIERS)
    out, report = convert_corpus(Corpus("sc", (doc,)), default_softcite_table())
    assert out.documents[0].entities[0].label == EntityLabel("Biblio")
    assert dict(report.mapped) == {"software+url": 1}


def test_convert_multi_attribute_entity_warns_and_uses_rule_order():
    text = "code on github.com here"
    # two known attributes: 'environment' comes first in the table
    ann = ("T1\tsoftware 8 18\tgithub.com\n"
           "A1\turl T1\n"
           "A2\tenvironment T1\n")
    doc = parse_standoff(ann, text, "d1", qualifiers=SOFTCITE_QUALIFIERS)
    assert doc.entities[0].label.qualifier == "url"  # first in file order
    out, report = convert_corpus(Corpus("sc", (doc,)), default_softcite_table())
    assert report.multi_attribute_warnings == 1
    assert out.documents[0].entities[0].label == EntityLabel("Tool")


def test_convert_preserves_text_and_spans():
    text = "We used BWA v2 fig"
    doc = doc_of("d1", text,
                 ent("T1", "software", 8, 11, text),
                 ent("T2", "figure", 15, 18, text))
    out, _ = convert_corpus(Corpus("sc", (doc,)), default_softcite_table())
    assert out.documents[0].text == text
    assert out.documents[0].entities[0].fragments == doc.entities[0].fragments


def test_convert_empty_corpus():
    out, report = convert_corpus(Corpus("sc", ()), default_softcite_table())
    assert len(out) == 0
    assert report.to_json_dict()["mapped"] == {}


def test_convert_identity_table_is_identity_on_target_schema():
    identity = MappingTable(tuple(
        MappingRule(base, None, EntityLabel(base)) for base in sorted(BIOTOFLOW.labels)))
    text = "abc def"
    doc = doc_of("d1", text, ent("T1", "Tool", 0, 3, text),
                 ent("T2", "Data", 4, 7, text))
    out, report = convert_corpus(Corpus("c", (doc,)), identity)
    assert [e.label for e in out.documents[0].entities] == \
        [e.label for e in doc.entities]
    assert sum(report.dropped.values()) == 0


def test_convert_strict_raises_on_unknown():
    text = "abc"
    doc = doc_of("d1", text, ent("T1", "paragraph", 0, 3, text))
    with pytest.raises(UnknownSourceLabel):
        convert_corpus(Corpus("sc", (doc,)), default_softcite_table(), strict=True)


def test_convert_default_counts_unknown_as_dropped():
    text = "abc"
    doc = doc_of("d1", text, ent("T1", "paragraph", 0, 3, text))
    out, report = convert_corpus(Corpus("sc", (doc,)), default_softcite_table())
    assert out.documents[0].entities == ()
    assert dict(report.unknown) == {"paragraph": 1}
    assert dict(report.dropped) == {"paragraph": 1}


def test_conversion_conserves_entity_bookkeeping():
    text = "a b c d e f g h"
    doc = doc_of("d1", text,
                 ent("T1", "software", 0, 1, text),
                 ent("T2", "figure", 2, 3, text),
                 ent("T3", "bibr", 4, 5, text),
                 ent("T4", "mystery", 6, 7, text))
    out, report = convert_corpus(Corpus("sc", (doc,)), default_softcite_table())
    kept = len(out.documents[0].entities)
    assert kept + sum(report.dropped.values()) == len(doc.entities)


def test_mapping_table_json_roundtrip():
    table = default_softcite_table()
    rows = [{"source": r.source, "attribute": r.attribute,
             "target": r.target.base if r.target else None,
             "qualifier": r.target.qualifier if r.target else None}
            for r in table.rules]
    assert load_mapping_table(rows) == table


def test_converted_documents_serialize_without_stale_attributes():
    text = "code on github.com here"
    ann = "T1\tsoftware 8 18\tgithub.com\nA1\timplicit T1\n"
    doc = parse_standoff(ann, text, "d1", qualifiers=SOFTCITE_QUALIFIERS)
    out, _ = convert_corpus(Corpus("sc", (doc,)), default_softcite_table())
    ann_out, _ = serialize_standoff(out.documents[0])
    # Tool(General) is re-emitted as its own qualifier; no softcite attrs remain
    assert "implicit" not in ann_out
    assert "A1\tGeneral T1" in ann_out
