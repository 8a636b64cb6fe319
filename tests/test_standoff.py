import random

import pytest
from hypothesis import example, given, settings, strategies as st

from flowner.model import Document, Entity, EntityLabel, Provenance, Span
from flowner.schema import SOFTCITE_QUALIFIERS
from flowner.standoff import (DuplicateId, MalformedLine, OffsetOutOfRange,
                              StandoffParseError, SurfaceMismatch, parse_standoff,
                              serialize_standoff)
from gen import random_document
from oracles import oracle_parse_standoff

TEXT = "mapping reads with BWA against the genome"  # BWA at [19, 22)


def test_parse_single_entity():
    doc = parse_standoff("T1\tTool 19 22\tBWA\n", TEXT, "d1")
    assert len(doc.entities) == 1
    e = doc.entities[0]
    assert (e.id, e.label.base, e.start, e.end, e.surface) == \
        ("T1", "Tool", 19, 22, "BWA")


def test_parse_empty_ann():
    doc = parse_standoff("", TEXT, "d1")
    assert doc.entities == ()
    assert doc.sidecar == ()


def test_parse_discontinuous_entity():
    text = "RNA extra reads here"
    doc = parse_standoff("T2\tData 0 3;10 15\tRNA reads\n", text, "d1")
    (e,) = doc.entities
    assert e.fragments == (Span(0, 3), Span(10, 15))
    assert e.surface == "RNA reads"


def test_parse_surface_mismatch():
    with pytest.raises(SurfaceMismatch) as exc:
        parse_standoff("T1\tTool 19 22\tfoo\n", TEXT, "d1")
    assert exc.value.where == 1
    assert exc.value.path == "d1"


def test_parse_duplicate_id():
    ann = "T1\tTool 19 22\tBWA\nT1\tData 0 7\tmapping\n"
    with pytest.raises(DuplicateId) as exc:
        parse_standoff(ann, TEXT, "d1")
    assert exc.value.where == 2


def test_parse_offset_out_of_range():
    with pytest.raises(OffsetOutOfRange):
        parse_standoff("T1\tTool 19 99\tBWA\n", TEXT, "d1")


@pytest.mark.parametrize("bad", [
    "T1\tTool 19\tBWA",            # missing end offset
    "T1\tTool x y\tBWA",           # non-numeric offsets
    "T1\tTool 22 19\tBWA",         # reversed span
    "T1\tTool 5 9;7 12\tx y",      # overlapping fragments
    "T1\tTool19 22",               # no surface column
    "T1\tTool 0 \u00b2\tBWA",        # a digit int() rejects
])
def test_parse_malformed_entity_lines(bad):
    with pytest.raises(MalformedLine) as exc:
        parse_standoff(bad + "\n", TEXT, "d1")
    assert exc.value.where == 1


def test_non_entity_lines_are_kept_verbatim():
    ann = ("T1\tTool 19 22\tBWA\n"
           "R1\tUses Arg1:T1 Arg2:T1\n"
           "#1\tAnnotatorNotes T1 checked\n"
           "some stray line\n")
    doc = parse_standoff(ann, TEXT, "d1")
    assert doc.sidecar == ("R1\tUses Arg1:T1 Arg2:T1",
                           "#1\tAnnotatorNotes T1 checked",
                           "some stray line")


def test_qualifier_attribute_binary_form():
    ann = "T1\tTool 19 22\tBWA\nA1\tBioInfo T1\n"
    doc = parse_standoff(ann, TEXT, "d1")
    assert doc.entities[0].label.qualifier == "BioInfo"
    assert doc.sidecar == ()


def test_qualifier_attribute_valued_form():
    ann = "T1\tTool 19 22\tBWA\nA1\tToolType T1 General\n"
    doc = parse_standoff(ann, TEXT, "d1")
    assert doc.entities[0].label.qualifier == "General"


def test_first_qualifier_wins_rest_stay_sidecar():
    ann = "T1\tTool 19 22\tBWA\nA1\tLab T1\nA2\tGeneral T1\n"
    doc = parse_standoff(ann, TEXT, "d1")
    assert doc.entities[0].label.qualifier == "Lab"
    assert doc.sidecar == ("A2\tGeneral T1",)


def test_unknown_qualifier_stays_sidecar():
    ann = "T1\tTool 19 22\tBWA\nA1\tNotAQualifier T1\nA2\tBioInfo T99\n"
    doc = parse_standoff(ann, TEXT, "d1")
    assert doc.entities[0].label.qualifier is None
    assert doc.sidecar == ("A1\tNotAQualifier T1", "A2\tBioInfo T99")


def test_softcite_qualifier_registry():
    text = "analysis used R scripts"
    ann = "T1\tsoftware 14 15\tR\nA1\timplicit T1\n"
    doc = parse_standoff(ann, text, "d1", qualifiers=SOFTCITE_QUALIFIERS)
    assert doc.entities[0].label == EntityLabel("software", "implicit")


def test_discontinuous_surface_accepts_space_normalized_variants():
    text = "RNA extra reads here"
    # doubled space in the recorded surface: accepted, canonicalized
    doc = parse_standoff("T1\tData 0 3;10 15\tRNA  reads\n", text, "d1")
    assert doc.entities[0].surface == "RNA reads"


def test_serialize_single_entity_line():
    text = "mapping reads with BWA"
    doc = Document("d1", text, entities=(
        Entity("T1", EntityLabel("Tool"), (Span(19, 22),), "BWA"),))
    ann, out_text = serialize_standoff(doc)
    assert ann == "T1\tTool 19 22\tBWA\n"
    assert out_text == text


def test_serialize_empty_document():
    ann, _text = serialize_standoff(Document("d1", "abc"))
    assert ann == ""


def test_serialize_orders_entities_by_offset():
    text = "aa bb cc"
    doc = Document("d1", text, entities=(
        Entity("T9", EntityLabel("Tool"), (Span(6, 8),), "cc"),
        Entity("T2", EntityLabel("Data"), (Span(0, 2),), "aa"),))
    ann, _ = serialize_standoff(doc)
    assert ann.splitlines() == ["T2\tData 0 2\taa", "T9\tTool 6 8\tcc"]


def test_roundtrip_with_qualifier_and_sidecar():
    text = "mapping reads with BWA"
    doc = Document(
        "d1", text,
        entities=(Entity("T1", EntityLabel("Tool", "BioInfo"),
                         (Span(19, 22),), "BWA"),),
        provenance=Provenance.GOLD,
        sidecar=("#1\tAnnotatorNotes T1 checked",))
    ann, out_text = serialize_standoff(doc)
    assert parse_standoff(ann, out_text, "d1") == doc


def test_roundtrip_random_documents():
    rng = random.Random(20240901)
    for i in range(200):
        doc = random_document(rng, f"d{i}")
        ann, text = serialize_standoff(doc)
        back = parse_standoff(ann, text, doc.doc_id, provenance=doc.provenance)
        assert back == doc, f"roundtrip mismatch for generated doc {i}"


@st.composite
def _ann_and_text(draw):
    """A short text and .ann content for it: entity lines that are valid,
    slightly off (spacing, surfaces, digits, ids) or token soup, plus
    attribute and other lines, joined by LF or CRLF."""
    text = draw(st.text(alphabet="ab c\t\r\n\u00e9", min_size=1, max_size=16))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["entity"] * 6 + ["attribute", "soup"]))
        if kind == "attribute":
            name = draw(st.sampled_from(["BioInfo", "General", "Lab", "Other"]))
            target = draw(st.sampled_from(["T1", "T2", "T9"]))
            lines.append(f"A{len(lines)}\t{name} {target}")
            continue
        if kind == "soup":
            lines.append(draw(st.text(alphabet="T12 \t;\u00b2\u0663ab", max_size=14)))
            continue
        ent_id = draw(st.sampled_from(["T1", "T2", "T3", "T4", "T02", "T\u0663", "T", "R1"]))
        label = draw(st.sampled_from(["Tool", "Data", "To;ol"]))
        spans = []
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
            start = draw(st.integers(0, len(text) - 1))
            spans.append((start, start + draw(st.sampled_from([1] * 8 + [2, 0, -1]))))
        if draw(st.integers(0, 4)):
            spans.sort()
        sep = draw(st.sampled_from([" "] * 6 + ["  ", "\u00a0"]))
        digits = draw(st.sampled_from([""] * 12 + ["0", "\u00b2", "\u0663"]))
        span_text = ";".join(f"{s}{sep}{e}{digits}" for s, e in spans)
        canonical = " ".join(text[s:e] for s, e in spans)
        surface = draw(st.sampled_from([canonical] * 4 + [
            canonical + "  ", canonical.replace(" ", "\t"), "x"]))
        lines.append(f"{ent_id}\t{label}{sep}{span_text}\t{surface}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ann = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
    return ann, text


def _outcome(parse, ann, text):
    try:
        return parse(ann, text, "d1")
    except StandoffParseError as exc:
        return type(exc), exc.where, str(exc)


@settings(max_examples=200)
@given(_ann_and_text())
@example(("T1\tTool 0 \u00b2\tx\r\n", "x"))
@example(("T1\tTool 0 1\tb\r\nT1\tData 0 1\tb\r\n", "b"))
def test_parse_equals_the_field_by_field_oracle(ann_and_text):
    ann, text = ann_and_text
    assert _outcome(parse_standoff, ann, text) == _outcome(oracle_parse_standoff, ann, text)
