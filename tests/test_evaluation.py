import json
import random

import pytest

from flowner.evaluation import (DocSetMismatch, MatchMode, entities_compatible,
                                macro_average, match_document, score)
from flowner.model import Corpus, Document, Entity, EntityLabel, Span
from gen import random_corpus_pair, random_match_instance
from oracles import brute_force_max_pairs, oracle_compatible
from util import doc_of, ent

STRICT = MatchMode.STRICT
RELAXED = MatchMode.RELAXED


def _e(base, *frags, qualifier=None, ent_id="T1"):
    return Entity(ent_id, EntityLabel(base, qualifier),
                  tuple(Span(s, e) for s, e in frags), "x")


def test_compatible_identical_spans():
    g, p = _e("Tool", (8, 11)), _e("Tool", (8, 11))
    assert entities_compatible(g, p, STRICT)
    assert entities_compatible(g, p, RELAXED)


def test_compatible_overlap_only_in_relaxed():
    g, p = _e("Tool", (8, 11)), _e("Tool", (9, 15))
    assert not entities_compatible(g, p, STRICT)
    assert entities_compatible(g, p, RELAXED)


def test_compatible_label_mismatch_never():
    g, p = _e("Tool", (8, 11)), _e("Data", (8, 11))
    assert not entities_compatible(g, p, STRICT)
    assert not entities_compatible(g, p, RELAXED)


def test_compatible_discontinuous_uses_fragment_union():
    g = _e("Data", (0, 3), (10, 14))
    inside_gap = _e("Data", (5, 8))
    on_second = _e("Data", (12, 20))
    assert not entities_compatible(g, inside_gap, RELAXED)
    assert entities_compatible(g, on_second, RELAXED)


def test_qualifiers_ignored_unless_sensitive():
    g = _e("Tool", (0, 3), qualifier="BioInfo")
    p = _e("Tool", (0, 3), qualifier="Lab")
    assert entities_compatible(g, p, STRICT)
    assert not entities_compatible(g, p, STRICT, qualifier_sensitive=True)


def test_match_single_pair():
    gold = [_e("Tool", (0, 3))]
    pred = [_e("Tool", (0, 3))]
    assert len(match_document(gold, pred, STRICT)) == 1


def test_match_is_one_to_one():
    gold = [_e("Tool", (0, 5), ent_id="T1")]
    pred = [_e("Tool", (0, 2), ent_id="T1"), _e("Tool", (3, 5), ent_id="T2")]
    pairs = match_document(gold, pred, RELAXED)
    assert len(pairs) == 1


def test_match_prefers_larger_overlap():
    gold = [_e("Tool", (0, 10), ent_id="T1")]
    pred = [_e("Tool", (9, 11), ent_id="T1"), _e("Tool", (0, 8), ent_id="T2")]
    pairs = match_document(gold, pred, RELAXED)
    assert pairs[0][1].id == "T2"


def test_match_agrees_with_brute_force():
    rng = random.Random(12345)
    for _ in range(500):
        gold, pred = random_match_instance(rng)
        for mode in (STRICT, RELAXED):
            got = len(match_document(gold, pred, mode))
            want = brute_force_max_pairs(gold, pred, mode.value)
            assert got == want, (mode, gold, pred)


def test_compatibility_agrees_with_oracle():
    rng = random.Random(777)
    for _ in range(300):
        gold, pred = random_match_instance(rng)
        for g in gold:
            for p in pred:
                for mode in (STRICT, RELAXED):
                    assert entities_compatible(g, p, mode) == \
                        oracle_compatible(g, p, mode.value)


def _self_eval_corpus():
    text = "mapping reads with BWA against hg38"
    doc = doc_of("d1", text,
                 ent("T1", "Tool", 19, 22, text),
                 ent("T2", "Method", 0, 13, text),
                 ent("T3", "Database", 31, 35, text))
    return Corpus("c", (doc,))


def test_self_evaluation_is_perfect():
    corpus = _self_eval_corpus()
    for mode in (STRICT, RELAXED):
        report = score(corpus, corpus, mode)
        assert report.overall.f1 == 1.0
        for s in report.per_label.values():
            assert (s.p, s.r, s.f1) == (1.0, 1.0, 1.0)


def test_empty_predictions_score_zero():
    gold = _self_eval_corpus()
    pred = Corpus("p", tuple(Document(d.doc_id, d.text) for d in gold.documents))
    report = score(gold, pred, RELAXED)
    assert (report.overall.p, report.overall.r, report.overall.f1) == (0.0, 0.0, 0.0)


def test_score_hand_computed_example():
    text = "BWA tools samtools!"
    gold = Corpus("g", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 10, 14, text)),))
    pred = Corpus("p", (doc_of("d", text, ent("T1", "Tool", 1, 4, text)),))
    report = score(gold, pred, RELAXED)
    assert report.per_label["Tool"].p == 1.0
    assert report.per_label["Tool"].r == 1.0
    assert report.per_label["Data"].r == 0.0
    assert report.overall.p == 1.0
    assert report.overall.r == 0.5
    assert report.overall.f1 == pytest.approx(2 / 3)
    # cross-check the pooled counts against the brute-force matcher
    assert report.overall.tp == brute_force_max_pairs(
        gold.documents[0].entities, pred.documents[0].entities, "relaxed")


def test_doc_set_mismatch():
    a = Corpus("a", (doc_of("d1", "x y"),))
    b = Corpus("b", (doc_of("d2", "x y"),))
    with pytest.raises(DocSetMismatch):
        score(a, b, RELAXED)


def test_label_filter_restricts_overall():
    text = "BWA data hg38"
    gold = Corpus("g", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 4, 8, text)),))
    pred = Corpus("p", (doc_of("d", text, ent("T1", "Tool", 0, 3, text)),))
    full = score(gold, pred, STRICT)
    focused = score(gold, pred, STRICT, label_filter=["Tool"])
    assert full.overall.r == 0.5
    assert focused.overall.r == 1.0
    assert focused.label_filter == ("Tool",)
    # per-label rows are unaffected by the filter
    assert focused.per_label["Data"].fn == 1


def test_relaxed_dominates_strict_on_random_corpora():
    rng = random.Random(31337)
    for _ in range(300):
        gold, pred = random_corpus_pair(rng)
        strict = score(gold, pred, STRICT)
        relaxed = score(gold, pred, RELAXED)
        assert relaxed.overall.f1 >= strict.overall.f1
        for base in strict.per_label:
            assert relaxed.per_label.get(base, strict.per_label[base]).tp >= \
                strict.per_label[base].tp


def test_iaa_symmetry():
    rng = random.Random(2718)
    for _ in range(100):
        a, b = random_corpus_pair(rng)
        ab = score(a, b, RELAXED)
        ba = score(b, a, RELAXED)
        assert ab.overall.f1 == pytest.approx(ba.overall.f1, abs=1e-12)
        assert ab.overall.p == pytest.approx(ba.overall.r, abs=1e-12)
        assert ab.overall.tp == ba.overall.tp


def test_iaa_self_is_one():
    corpus = _self_eval_corpus()
    assert score(corpus, corpus, STRICT).overall.f1 == 1.0


def test_boundary_disagreement_relaxed_one_strict_zero():
    text = "mapping reads with BWA"
    a = Corpus("a", (doc_of("d", text, ent("T1", "Tool", 19, 22, text)),))
    b = Corpus("b", (doc_of("d", text, ent("T1", "Tool", 15, 22, text)),))
    assert score(a, b, RELAXED).overall.f1 == 1.0
    assert score(a, b, STRICT).overall.f1 == 0.0


def test_no_entity_in_two_pairs():
    rng = random.Random(555)
    for _ in range(100):
        gold, pred = random_match_instance(rng)
        pairs = match_document(gold, pred, RELAXED)
        assert len({id(g) for g, _ in pairs}) == len(pairs)
        assert len({id(p) for _, p in pairs}) == len(pairs)


def test_report_independent_of_document_order():
    rng = random.Random(808)
    gold, pred = random_corpus_pair(rng, n_docs=5)
    report1 = score(gold, pred, RELAXED)
    gold_rev = Corpus("g", tuple(reversed(gold.documents)))
    pred_rev = Corpus("p", tuple(reversed(pred.documents)))
    report2 = score(gold_rev, pred_rev, RELAXED)
    assert json.dumps(report1.to_json_dict()) == json.dumps(report2.to_json_dict())
    assert report1.missed == report2.missed
    assert report1.spurious == report2.spurious


def test_removing_predictions_of_a_label_zeroes_its_recall():
    text = "BWA data"
    gold = Corpus("g", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 4, 8, text)),))
    pred_full = Corpus("p", (doc_of("d", text,
                                    ent("T1", "Tool", 0, 3, text),
                                    ent("T2", "Data", 4, 8, text)),))
    pred_cut = Corpus("p", (doc_of("d", text, ent("T1", "Tool", 0, 3, text)),))
    assert score(gold, pred_full, STRICT).per_label["Data"].r == 1.0
    assert score(gold, pred_cut, STRICT).per_label["Data"].r == 0.0


def test_macro_average_differs_from_micro():
    text = "BWA data1 data2 data3"
    gold = Corpus("g", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 4, 9, text),
                               ent("T3", "Data", 10, 15, text),
                               ent("T4", "Data", 16, 21, text)),))
    pred = Corpus("p", (doc_of("d", text, ent("T1", "Tool", 0, 3, text)),))
    report = score(gold, pred, STRICT)
    _p, macro_r, _f1 = macro_average(report)
    assert report.overall.r == 0.25   # micro: 1 of 4
    assert macro_r == 0.5             # macro: mean(1.0, 0.0)


def test_diff_listing_contents():
    text = "BWA data"
    gold = Corpus("g", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 4, 8, text)),))
    pred = Corpus("p", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Version", 4, 8, text)),))
    report = score(gold, pred, STRICT)
    assert [m.label for m in report.missed] == ["Data"]
    assert [s.label for s in report.spurious] == ["Version"]
