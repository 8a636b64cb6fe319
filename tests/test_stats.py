import random

from hypothesis import example, given, settings, strategies as st

from flowner.model import Corpus, Document, Entity, EntityLabel, Span
from flowner.stats import corpus_stats, count_nested, document_stats, tokenize
from gen import random_document
from oracles import oracle_count_nested, oracle_document_stats
from util import doc_of, ent, synthetic_table1_corpus, TABLE1_COUNTS


def test_tokenizer_alnum_runs_and_punctuation():
    tokens = tokenize("BWA-MEM v0.7, fast!")
    assert tokens == ["BWA", "-", "MEM", "v0", ".", "7", ",", "fast", "!"]
    # A slice's tokens are clipped to it, as counting a fragment needs.
    assert tokenize("BWA-MEM v0.7, fast!", 5, 10) == ["EM", "v0"]


def test_tokenizer_non_ascii():
    assert tokenize("naïve σ-factor") == ["naïve", "σ", "-", "factor"]


def test_counts_and_annotated_tokens():
    text = "mapping reads with BWA tool"
    doc = doc_of("d", text,
                 ent("T1", "Tool", 19, 22, text),        # BWA
                 ent("T2", "Method", 0, 13, text))        # mapping reads
    r = document_stats(doc)
    assert r.labels == {"Tool": 1, "Method": 1}
    assert r.tokens == 5
    assert r.annotated_tokens == 3
    assert r.nesting_fraction == 0.0


def test_single_entity_has_zero_nesting():
    text = "only one here"
    r = document_stats(doc_of("d", text, ent("T1", "Data", 0, 4, text)))
    assert r.nesting_fraction == 0.0


def test_nesting_counts_strict_containment_only():
    text = "abc def ghi jkl"
    doc = doc_of(
        "d", text,
        ent("T1", "Biblio", 0, 11, text),    # contains T2 strictly
        ent("T2", "WorkflowName", 4, 7, text),
        ent("T3", "Data", 12, 15, text),     # disjoint
        ent("T4", "Tool", 0, 11, text),      # same extent as T1: not nested
    )
    r = document_stats(doc)
    assert r.nested_entities == 1
    assert r.entities == 4


# Extents on a short line, so that duplicate extents (also under different
# labels), shared starts, shared ends and touching extents all come up.
_EXTENTS = st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6)), max_size=14)


@settings(max_examples=400)
@given(extents=_EXTENTS, labels=st.lists(st.sampled_from(["Tool", "Data"]), min_size=14))
def test_count_nested_equals_the_all_pairs_oracle(extents, labels):
    entities = tuple(Entity(f"T{i}", EntityLabel(label), (Span(s, s + n),), "x")
                     for i, ((s, n), label) in enumerate(zip(extents, labels)))
    doc = Document("d", "x" * 20, entities)
    assert count_nested(doc) == oracle_count_nested(doc)


def test_nesting_counts_each_entity_of_a_nested_duplicate_extent():
    text = "abc def ghi jkl"
    doc = doc_of("d", text,
                 ent("T1", "Biblio", 0, 11, text),
                 ent("T2", "Tool", 4, 7, text),      # same extent as T3, inside T1
                 ent("T3", "Data", 4, 7, text),
                 ent("T4", "Method", 0, 7, text))    # shares T1's start, inside it
    assert count_nested(doc) == 3


def test_label_counts_sum_to_entity_count():
    rng = random.Random(99)
    docs = [random_document(rng, f"d{i}") for i in range(30)]
    report = corpus_stats(Corpus("c", tuple(docs)))
    assert sum(report.labels.values()) == report.entities
    assert 0.0 <= report.nesting_fraction <= 1.0


def test_disjoint_corpus_has_zero_nesting():
    text = "aa bb cc dd"
    doc = doc_of("d", text,
                 ent("T1", "Data", 0, 2, text),
                 ent("T2", "Tool", 3, 5, text),
                 ent("T3", "File", 6, 8, text))
    assert corpus_stats(Corpus("c", (doc,))).nesting_fraction == 0.0


def test_synthetic_reference_corpus_reproduces_published_counts():
    corpus = synthetic_table1_corpus()
    assert len(corpus) == 52
    report = corpus_stats(corpus)
    assert dict(report.labels) == TABLE1_COUNTS
    assert 0.06 <= report.nesting_fraction <= 0.10


def test_json_shape():
    report = corpus_stats(Corpus("c", (doc_of("d", "aa bb"),)))
    data = report.to_json_dict()
    assert set(data) == {"documents", "labels", "entities", "tokens",
                         "annotated_tokens", "nesting_fraction"}


# Letters, digits (also non-ASCII ones), underscores, punctuation and space,
# so that fragments split words, touch, and end on every kind of character.
_STATS_TEXT = st.text(st.sampled_from("ab9_-. \n\u00e9\u03c3\u0663\u00b2\u00df"), max_size=30)
_FRAGMENTS = st.lists(st.lists(st.tuples(st.integers(0, 32), st.integers(1, 5)),
                               min_size=1, max_size=3), max_size=6)


def _stats_doc(text, fragment_lists):
    entities = []
    for i, frags in enumerate(fragment_lists):
        spans, prev_end = [], 0
        for start, length in sorted(frags):
            start = max(start, prev_end)    # sorted, disjoint, maybe touching
            spans.append(Span(start, start + length))
            prev_end = start + length
        entities.append(Entity(f"T{i}", EntityLabel("Tool"), tuple(spans), "x"))
    return Document("d", text, tuple(entities))


@settings(max_examples=400)
@given(_STATS_TEXT, _FRAGMENTS)
@example("abcdef", [[(1, 1)], [(3, 2)]])                # one word, split in three places
@example("ab cd", [[(0, 1), (1, 1)], [(3, 1)]])          # touching fragments
@example("a_b\u00e9\u0663 \u00b2", [[(0, 1)], [(2, 1)], [(4, 1)], [(6, 1)]])
@example("abc", [[(1, 1)], [(5, 2)]])                   # past the end of the text
def test_document_stats_equals_the_per_token_oracle(text, fragment_lists):
    doc = _stats_doc(text, fragment_lists)
    got, want = document_stats(doc), oracle_document_stats(doc)
    assert got == want
    assert got.to_json_dict() == want.to_json_dict()
