import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowner import evaluation
from flowner.evaluation import (DocSetMismatch, MatchMode, macro_average,
                                match_document, render_diff, render_report, score)
from flowner.experiment import RunResult, run_result_from_file
from flowner.model import Corpus, Document, Entity, EntityLabel, Span
from gen import random_corpus_pair, random_match_instance
from oracles import (brute_force_max_pairs, oracle_compatible, oracle_match_document,
                     oracle_score)
from util import doc_of, ent

STRICT = MatchMode.STRICT
RELAXED = MatchMode.RELAXED


def _e(base, *frags, qualifier=None, ent_id="T1"):
    return Entity(ent_id, EntityLabel(base, qualifier),
                  tuple(Span(s, e) for s, e in frags), "x")


def _pairs(gold, pred, mode, qualifier_sensitive=False):
    """The (gold, pred) entity pairs that :func:`match_document` gives for
    both sides sorted canonically, in gold order."""
    gold, pred = sorted(gold, key=Entity.sort_key), sorted(pred, key=Entity.sort_key)
    match_g = match_document(gold, pred, mode, qualifier_sensitive)
    return [(gold[gi], pred[pi]) for gi, pi in sorted(match_g.items())]


def _paired(g, p, mode, qualifier_sensitive=False):
    """Whether a document with the one gold ``g`` and the one pred ``p``
    matches them."""
    return len(match_document([g], [p], mode, qualifier_sensitive)) == 1


def test_compatible_identical_spans():
    g, p = _e("Tool", (8, 11)), _e("Tool", (8, 11))
    assert _paired(g, p, STRICT)
    assert _paired(g, p, RELAXED)


def test_compatible_overlap_only_in_relaxed():
    g, p = _e("Tool", (8, 11)), _e("Tool", (9, 15))
    assert not _paired(g, p, STRICT)
    assert _paired(g, p, RELAXED)


def test_compatible_label_mismatch_never():
    g, p = _e("Tool", (8, 11)), _e("Data", (8, 11))
    assert not _paired(g, p, STRICT)
    assert not _paired(g, p, RELAXED)


def test_compatible_discontinuous_uses_fragment_union():
    g = _e("Data", (0, 3), (10, 14))
    inside_gap = _e("Data", (5, 8))
    on_second = _e("Data", (12, 20))
    assert not _paired(g, inside_gap, RELAXED)
    assert _paired(g, on_second, RELAXED)


def test_qualifiers_ignored_unless_sensitive():
    g = _e("Tool", (0, 3), qualifier="BioInfo")
    p = _e("Tool", (0, 3), qualifier="Lab")
    assert _paired(g, p, STRICT)
    assert not _paired(g, p, STRICT, qualifier_sensitive=True)


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
    pairs = _pairs(gold, pred, RELAXED)
    assert pairs[0][1].id == "T2"


def test_greedy_seeding_does_not_maximize_total_overlap():
    # The module docstring's example: overlap 4 + 1, though 3 + 3 is possible.
    gold = [_e("Tool", (3, 7), ent_id="T1"), _e("Tool", (5, 10), ent_id="T2")]
    pred = [_e("Tool", (1, 6), ent_id="T1"), _e("Tool", (3, 8), ent_id="T2")]
    pairs = _pairs(gold, pred, RELAXED)
    assert [(g.start, g.end, p.start, p.end) for g, p in pairs] == [(3, 7, 3, 8),
                                                                    (5, 10, 1, 6)]
    assert sum(evaluation.char_overlap(g, p) for g, p in pairs) == 5


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
                    assert _paired(g, p, mode) == oracle_compatible(g, p, mode.value)


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


@pytest.mark.parametrize("label_filter", [None, [], ["Tool"], ["Data", "Tool"], ["Biblio"]])
def test_overall_survives_a_json_round_trip(label_filter, tmp_path):
    text = "BWA data hg38"
    gold = Corpus("g", (doc_of("d", text, ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 4, 8, text)),))
    pred = Corpus("p", (doc_of("d", text, ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 9, 13, text)),))
    report = score(gold, pred, STRICT, label_filter)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RunResult(0, 0, report).to_json_dict()), "utf-8")
    assert run_result_from_file(path).report.overall == report.overall


def test_an_empty_label_filter_is_no_filter():
    text = "BWA data"
    gold = Corpus("g", (doc_of("d", text, ent("T1", "Tool", 0, 3, text)),))
    report = score(gold, gold, STRICT, [])
    assert report.label_filter is None and report == score(gold, gold, STRICT)
    assert report.overall == report.per_label["Tool"] and report.overall.tp == 1
    assert render_report(report).splitlines()[-1].split() == [
        "Overall", "100.0", "100.0", "100.0", "1", "0", "0"]


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
        pairs = _pairs(gold, pred, RELAXED)
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


def test_an_unmatched_entity_is_listed_as_itself():
    text = "abc de"
    e = Entity("T1", EntityLabel("Tool", "Lab"), (Span(0, 3), Span(4, 6)), text)
    gold = Corpus("g", (doc_of("d1", text, e),))
    pred = Corpus("p", (doc_of("d1", text),))
    assert score(gold, pred, STRICT).missed == (("d1", e),)
    assert score(pred, gold, STRICT).spurious == (("d1", e),)


def test_diff_listing_contents():
    text = "BWA data"
    gold = Corpus("g", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Data", 4, 8, text)),))
    pred = Corpus("p", (doc_of("d", text,
                               ent("T1", "Tool", 0, 3, text),
                               ent("T2", "Version", 4, 8, text)),))
    report = score(gold, pred, STRICT)
    assert [e.label.base for _doc_id, e in report.missed] == ["Data"]
    assert [e.label.base for _doc_id, e in report.spurious] == ["Version"]


@pytest.mark.parametrize("line_break", ["\n", "\r\n"])
def test_a_diff_record_stays_on_one_line_when_its_surface_breaks_a_line(line_break):
    text = f"BWA{line_break}mem aligns"
    end = text.index(" ")
    gold = Corpus("g", (doc_of("d", text, ent("T1", "Tool", 0, end, text)),))
    pred = Corpus("p", (doc_of("d", text),))
    report = score(gold, pred, STRICT)
    assert report.missed[0][1].surface == text[:end]
    assert render_diff(report) == f"MISSED\td\tTool\t0 {end}\tBWA{' ' * len(line_break)}mem\n"


def test_the_diff_lists_an_entity_by_its_extent_and_base_label_and_ids_as_strings():
    text = "BWA and STAR map reads"
    gold = Corpus("g", (doc_of(
        "d", text,
        ent("T1", "Tool", 0, 3, text, qualifier="Lab"),
        Entity("T3", EntityLabel("Data"), (Span(0, 3), Span(8, 12)), "BWA STAR"),
        Entity("T2", EntityLabel("Tool"), (Span(13, 14), Span(15, 16)), "m p"),
        ent("T10", "Tool", 13, 16, text)),))
    pred = Corpus("p", (doc_of("d", text),))
    assert render_diff(score(gold, pred, STRICT)) == (
        "MISSED\td\tTool\t0 3\tBWA\n"
        "MISSED\td\tData\t0 12\tBWA STAR\n"
        "MISSED\td\tTool\t13 16\tmap\n"
        "MISSED\td\tTool\t13 16\tm p\n")


# Up to three fragments starting in the first 21 characters, two labels and
# three qualifiers, so that nested, overlapping, touching (end == start),
# discontinuous and duplicate-extent entities with equal or different labels
# all come up.  Every entity ends before character 40.
@st.composite
def _entities(draw, prefix):
    entities = []
    for n in range(draw(st.integers(0, 9))):
        cursor = draw(st.integers(0, 20))
        fragments = []
        for _ in range(draw(st.integers(1, 3))):
            end = cursor + draw(st.integers(1, 4))
            fragments.append(Span(cursor, end))
            cursor = end + draw(st.integers(0, 3))
        label = EntityLabel(draw(st.sampled_from(["Tool", "Data"])),
                            draw(st.sampled_from([None, "A", "B"])))
        entities.append(Entity(f"{prefix}{n + 1}", label, tuple(fragments), "x"))
    return entities


def _ids(pairs):
    return [(g.id, p.id) for g, p in pairs]


def _diff_line(tag, e):
    return (e.start, e.end, e.label.base, e.id,
            f"{tag}\td\t{e.label.base}\t{e.start} {e.end}\t{e.surface}")


@settings(max_examples=400)
@given(gold=_entities("T"), pred=_entities("P"),
       mode=st.sampled_from([STRICT, RELAXED]), qualifier_sensitive=st.booleans())
def test_match_pairs_equal_the_all_pairs_oracle(gold, pred, mode, qualifier_sensitive):
    want = oracle_match_document(gold, pred, mode, qualifier_sensitive)
    assert _ids(_pairs(gold, pred, mode, qualifier_sensitive)) == _ids(want)
    # In the drawn order, not sorted, the pair count is the same.
    assert len(match_document(gold, pred, mode, qualifier_sensitive)) == len(want)

    matched_gold = {g.id for g, _ in want}
    matched_pred = {p.id for _, p in want}
    lines = sorted([_diff_line("MISSED", g) for g in gold if g.id not in matched_gold]) + \
        sorted([_diff_line("SPURIOUS", p) for p in pred if p.id not in matched_pred])
    expected = "".join(line[-1] + "\n" for line in lines)
    report = score(Corpus("g", (Document("d", "x" * 40, tuple(gold)),)),
                   Corpus("p", (Document("d", "x" * 40, tuple(pred)),)),
                   mode, qualifier_sensitive=qualifier_sensitive)
    assert render_diff(report) == expected


# Ids and surfaces from small sets, so that equal entities (which a Document
# keeps once), equal sort keys up to the id, and ids that order differently
# as strings and as numbers (as a string T10 sorts before T2) all come up.
@st.composite
def _documents(draw, doc_ids):
    docs = []
    for doc_id in doc_ids:
        entities = [Entity(draw(st.sampled_from(["T2", "T3", "T10", "N1"])), e.label,
                           e.fragments, draw(st.sampled_from(["x", "y"])))
                    for e in draw(_entities("T"))]
        docs.append(Document(doc_id, "x" * 40, tuple(entities)))
    return draw(st.permutations(docs))


@settings(max_examples=150)
@given(doc_ids=st.lists(st.sampled_from(["d1", "d2", "d10", "a"]), min_size=1, max_size=4,
                        unique=True),
       mode=st.sampled_from([STRICT, RELAXED]), qualifier_sensitive=st.booleans(),
       label_filter=st.none() | st.lists(st.sampled_from(["Tool", "Data", "Method"])),
       data=st.data())
def test_score_equals_the_set_based_oracle(doc_ids, mode, qualifier_sensitive,
                                           label_filter, data):
    gold = Corpus("g", data.draw(_documents(doc_ids)))
    pred = Corpus("p", data.draw(_documents(doc_ids)))
    got = score(gold, pred, mode, label_filter, qualifier_sensitive)
    want = oracle_score(gold, pred, mode, label_filter, qualifier_sensitive)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert render_report(got) == render_report(want)
    assert render_diff(got) == render_diff(want)
    assert got.missed == want.missed and got.spurious == want.spurious


def test_compatibility_tests_grow_linearly_with_entity_count(monkeypatch):
    n = 2_000
    labels = ["Tool", "Data", "Method", "Parameter"]
    gold = [Entity(f"T{i}", EntityLabel(labels[i % 4]), (Span(10 * i, 10 * i + 5),), "x")
            for i in range(n)]
    # Half the predictions are exact, half shifted by one character.
    pred = [Entity(f"P{i}", EntityLabel(labels[i % 4]),
                   (Span(10 * i + i % 2, 10 * i + 5 + i % 2),), "x") for i in range(n)]
    calls = 0
    real = evaluation.char_overlap

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(evaluation, "char_overlap", counting)
    for mode, matched in ((STRICT, n // 2), (RELAXED, n)):
        calls = 0
        assert len(match_document(gold, pred, mode)) == matched
        assert 0 < calls < 10 * n, mode
