import random

import pytest
from hypothesis import given, settings, strategies as st

from flowner.model import (Corpus, Document, Entity, EntityLabel, Span,
                           validate_corpus, validate_document)
from gen import random_document
from oracles import oracle_canonical_order, oracle_sort_key
from util import doc_of, ent


def test_span_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        Span(3, 3)
    with pytest.raises(ValueError):
        Span(5, 2)
    with pytest.raises(ValueError):
        Span(-1, 2)


def test_entity_fragments_must_be_sorted_and_disjoint():
    with pytest.raises(ValueError):
        Entity("T1", EntityLabel("Data"), (Span(5, 8), Span(0, 3)), "x y")
    with pytest.raises(ValueError):
        Entity("T1", EntityLabel("Data"), (Span(0, 4), Span(3, 8)), "x y")
    with pytest.raises(ValueError):
        Entity("T1", EntityLabel("Data"), (), "")
    with pytest.raises(ValueError):
        Entity("T1", EntityLabel("Data"), iter(()), "")


def test_entity_adjacent_fragments_allowed():
    e = Entity("T1", EntityLabel("Data"), (Span(0, 3), Span(3, 6)), "abc def")
    assert e.extent() == Span(0, 6)


def test_document_normalizes_entity_order_and_dedupes():
    text = "abc def ghi"
    a = ent("T1", "Tool", 0, 3, text)
    b = ent("T2", "Data", 4, 7, text)
    d1 = doc_of("d", text, a, b)
    d2 = doc_of("d", text, b, a, b)
    assert d1 == d2
    assert [e.id for e in d1.entities] == ["T1", "T2"]


def test_entity_id_with_a_digit_int_rejects_sorts_after_numbered_ids():
    text = "abc def"
    odd = ent("T\u00b2", "Tool", 0, 3, text)
    doc = doc_of("d", text, odd, ent("T9", "Tool", 0, 3, text))
    assert [e.id for e in doc.entities] == ["T9", "T\u00b2"]


# Few distinct values, so that duplicates and equal sort keys are common:
# "T1"/"T01" and qualifier None/"" give equal keys, as do fragment tuples
# with the same extent.
_tied_entities = st.lists(st.builds(
    Entity,
    st.sampled_from(["T1", "T01", "T2", "T10", "X", "T\u00b2"]),
    st.builds(EntityLabel, st.sampled_from(["Tool", "Data"]),
              st.sampled_from([None, "", "Lab"])),
    st.sampled_from([(Span(0, 3),), (Span(0, 1), Span(2, 3)), (Span(1, 2),)]),
    st.sampled_from(["a", "b"])), max_size=12)


@settings(max_examples=150)
@given(_tied_entities)
def test_document_order_equals_the_set_and_sort_oracle(entities):
    got = Document("d", "abc", tuple(entities)).entities
    want = oracle_canonical_order(entities)
    assert len(got) == len(want) and set(got) == set(want)
    assert [oracle_sort_key(e) for e in got] == [oracle_sort_key(e) for e in want]
    # The oracle orders equal keys by string hash; here they keep input order.
    first_seen = {}
    for i, e in enumerate(entities):
        first_seen.setdefault(e, i)
    for a, b in zip(got, got[1:]):
        if oracle_sort_key(a) == oracle_sort_key(b):
            assert first_seen[a] < first_seen[b]
    if len({oracle_sort_key(e) for e in want}) == len(want):
        assert got == want


def test_validate_ok_corpus_is_empty():
    text = "abc def"
    corpus = Corpus("c", (doc_of("d1", text, ent("T1", "Tool", 0, 3, text)),))
    assert validate_corpus(corpus) == []


def test_validate_reports_offset_out_of_range():
    doc = Document("d1", "short", entities=(
        Entity("T1", EntityLabel("Tool"), (Span(2, 99),), "whatever"),))
    kinds = [v.kind for v in validate_document(doc)]
    assert kinds == ["OffsetOutOfRange"]


def test_validate_reports_surface_mismatch():
    doc = Document("d1", "abc def", entities=(
        Entity("T1", EntityLabel("Tool"), (Span(0, 3),), "zzz"),))
    violations = validate_document(doc)
    assert [v.kind for v in violations] == ["SurfaceMismatch"]
    assert violations[0].entity_id == "T1"


def test_validate_reports_duplicate_ids():
    text = "abc def"
    doc = doc_of("d1", text,
                 ent("T1", "Tool", 0, 3, text),
                 ent("T1", "Data", 4, 7, text))
    assert "DuplicateId" in [v.kind for v in validate_document(doc)]


def test_validate_reports_duplicate_doc_ids():
    doc = doc_of("same", "abc")
    violations = validate_corpus(Corpus("c", (doc, doc_of("same", "xyz"))))
    assert [v.kind for v in violations] == ["DuplicateDocId"]


def test_validate_label_registry_check_is_optional():
    text = "abc"
    doc = doc_of("d1", text, ent("T1", "NotALabel", 0, 3, text))
    assert validate_document(doc) == []
    assert [v.kind for v in validate_document(doc, frozenset({"Tool"}))] == \
        ["UnregisteredLabel"]


def test_random_documents_validate_cleanly():
    rng = random.Random(401)
    for i in range(50):
        doc = random_document(rng, f"d{i}")
        assert validate_document(doc) == [], doc
