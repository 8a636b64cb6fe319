import json
import random
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flowner.corpus_io import load_corpus_dir, write_corpus_dir
from flowner.evaluation import MatchMode, score
from flowner.gazetteer import Gazetteer, VocabEntry, build_gazetteer, ingest
from flowner.model import (Corpus, Document, Entity, EntityLabel, Provenance,
                           Span, validate_document)
from flowner.schema import BIOTOFLOW
from flowner.tagger import (DuplicateDocId, MalformedPrediction, RuleSet,
                            TaggerPredictor, _FOLD_BLOCK, _fold, default_ruleset, fuse,
                            provenance_counts, read_predictions, ruleset_from_file,
                            silver_annotate, tag)
from gen import random_document
from oracles import ORACLE_RULE_PATTERNS, _dict_candidates, _dictionary, oracle_fold
from util import doc_of, ent


def _gaz(*names):
    return build_gazetteer(ingest("custom", "\n".join(names) + "\n"))


EMPTY_RULES = RuleSet()


def test_dictionary_tagging_at_word_boundaries():
    text = "aligned with BWA and sorted with SAMtools"
    entities = tag(text, TaggerPredictor(_gaz("BWA", "SAMtools"), EMPTY_RULES))
    got = [(e.label.base, e.start, e.end, e.surface) for e in entities]
    assert got == [("Tool", 13, 16, "BWA"), ("Tool", 33, 41, "SAMtools")]


def test_no_match_inside_words():
    text = "the subSTARship runs"
    assert tag(text, TaggerPredictor(_gaz("STAR"), EMPTY_RULES)) == ()


def test_longest_match_wins_star_fusion():
    text = "fusions called with STAR-Fusion v1.6.0"
    entities = tag(text, TaggerPredictor(_gaz("STAR", "STAR-Fusion"), default_ruleset()))
    by_label = {e.label.base: e.surface for e in entities}
    assert by_label["Tool"] == "STAR-Fusion"
    assert by_label["Version"] == "v1.6.0"
    assert len(entities) == 2


def test_case_insensitive_fallback():
    text = "reads piped through bwa quickly"
    entities = tag(text, TaggerPredictor(_gaz("BWA"), EMPTY_RULES))
    assert [(e.label.base, e.surface) for e in entities] == [("Tool", "bwa")]


def test_fixed_lists_override_tool_label():
    text = "implemented in Python under Nextflow"
    entities = tag(text, TaggerPredictor(_gaz("Python", "Nextflow"), default_ruleset()))
    labels = {e.surface: e.label.base for e in entities}
    assert labels == {"Python": "ProgrammingLanguage",
                      "Nextflow": "ManagementSystem"}


@pytest.mark.parametrize("text,expected", [
    ("uses BWA v0.7.17 here", "v0.7.17"),
    ("release 1.2.3 shipped", "1.2.3"),
    ("version 2.1b was slow", "version 2.1b"),
])
def test_version_patterns(text, expected):
    entities = tag(text, TaggerPredictor(None, default_ruleset()))
    versions = [e.surface for e in entities if e.label.base == "Version"]
    assert versions == [expected]


def test_a_rules_file_that_leaves_out_fixed_lists_has_none(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"version_patterns": ["v[0-9]+"]}', encoding="utf-8")
    rules = ruleset_from_file(path)
    assert rules == RuleSet(version_patterns=["v[0-9]+"]) and rules.fixed_lists == {}


def test_biblio_patterns():
    text = "as shown [1, 2] and at https://example.org/x, see 10.5281/zenodo.14900544"
    entities = tag(text, TaggerPredictor(None, default_ruleset()))
    biblio = [e.surface for e in entities if e.label.base == "Biblio"]
    assert "[1, 2]" in biblio
    assert "https://example.org/x" in biblio
    assert "10.5281/zenodo.14900544" in biblio


# Pieces of the patterns' literals among word characters (an underscore, a
# non-ASCII letter, a non-ASCII digit), dots, slashes and spaces.
_RULE_PIECES = ["v", "V", "ersion", "s", "1", "10", "2345", "٣", "é", "_", "a",
                ".", "/", "http", "://", " ", "[", "]", ","]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_RULE_PIECES), max_size=30).map("".join))
@example("v1.2 xv1.2 _10.1234/a ahttp://x 1.2a é1.2 version 2 Aversion 2")
def test_rule_patterns_match_as_their_word_boundary_forms(text):
    rules = default_ruleset()
    shipped = rules.version_patterns + rules.biblio_patterns
    assert len(shipped) == len(ORACLE_RULE_PATTERNS)
    for pattern, oracle in zip(shipped, ORACLE_RULE_PATTERNS):
        assert [m.span() for m in re.finditer(pattern, text)] == \
            [m.span() for m in re.finditer(oracle, text)], (pattern, text)


def test_output_is_flat_and_surfaces_match_slices():
    text = "STAR-Fusion v1.6.0 with STAR and bwa [3] in Python"
    entities = tag(text, TaggerPredictor(_gaz("STAR", "STAR-Fusion", "bwa"), default_ruleset()))
    spans = sorted((e.start, e.end) for e in entities)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2, "tagger emitted overlapping entities"
    for e in entities:
        assert e.surface == text[e.start:e.end]
    doc = Document("d", text, entities=entities)
    assert validate_document(doc) == []


def test_tagger_is_deterministic():
    text = "STAR and STAR-Fusion v1.2 in Python with bwa [1]"
    gaz = _gaz("STAR", "STAR-Fusion", "bwa")
    assert tag(text, TaggerPredictor(gaz, default_ruleset())) == \
        tag(text, TaggerPredictor(gaz, default_ruleset()))


def test_planted_names_recall_and_precision():
    rng = random.Random(61)
    names = [f"PlantTool{i}" for i in range(10)]
    gaz = _gaz(*names)
    filler = ["lorem", "ipsum", "dolor", "sit", "amet", "sed", "tempor"]
    words = [rng.choice(filler) for _ in range(200)]
    positions = rng.sample(range(200), len(names))
    for pos, name in zip(positions, names):
        words[pos] = name
    text = " ".join(words)

    gold = []
    for i, name in enumerate(names):
        start = text.index(name)
        gold.append(Entity(f"T{i+1}", EntityLabel("Tool"),
                           (Span(start, start + len(name)),), name))
    gold_corpus = Corpus("g", (Document("d", text, entities=tuple(gold)),))
    pred_corpus = Corpus("p", (Document("d", text,
                                        entities=tag(text, TaggerPredictor(gaz, EMPTY_RULES))),))
    report = score(gold_corpus, pred_corpus, MatchMode.RELAXED)
    assert report.overall.r == 1.0
    assert report.overall.p == 1.0


# Characters whose case relatives IGNORECASE and the fold must agree on:
# expanding casefolds (sharp s), final and capital sigma, the Kelvin sign,
# long s, micro sign and mu, a titlecase digraph, accented letters.
FOLD_ALPHABET = (string.ascii_letters + string.digits + " +-_." +
                 "\u00df\u1e9e\u03c3\u03c2\u03a3\u212a\u017f\u00b5\u03bc\u01c5\u00e9\u00c9")
_NAMES = st.one_of(st.sampled_from(["C++", "bwa-mem", "R", "Picard Tools"]),
                   st.text(FOLD_ALPHABET, min_size=1, max_size=6).filter(str.strip),
                   # few letters, so that names share prefixes and case folds
                   st.text("sS\u00df\u1e9e\u017fk\u212a-", min_size=1, max_size=3))
_CASINGS = (str, str.upper, str.lower, str.swapcase, str.title, str.casefold)


def _gaz_of(names):
    return Gazetteer({str(i): VocabEntry(name, "tool_name", frozenset({"custom"}))
                      for i, name in enumerate(names)}, {})


@settings(max_examples=300)
@given(names=st.lists(_NAMES, max_size=8),
       fixed=st.dictionaries(st.sampled_from(["ProgrammingLanguage", "ManagementSystem",
                                              "Tool"]),
                             st.lists(_NAMES, min_size=1, max_size=3), max_size=2),
       # (separator, random text or (surface index, casing index))
       pieces=st.lists(st.tuples(st.sampled_from(["", " ", "-", "."]),
                                 st.text(FOLD_ALPHABET, max_size=4) |
                                 st.tuples(st.integers(0, 99),
                                           st.integers(0, len(_CASINGS) - 1))),
                       max_size=12))
# "SS" casefolds like the first-inserted "\u00df" (Tool) but folds like "ss".
@example(names=["\u00df"], fixed={"ProgrammingLanguage": ["ss"]}, pieces=[("", (0, 1))])
def test_matcher_candidates_equal_the_regex_oracle(names, fixed, pieces):
    surfaces = names + [s for listed in fixed.values() for s in listed]
    text = ""
    for sep, piece in pieces:
        if isinstance(piece, tuple):
            if not surfaces:
                continue
            piece = _CASINGS[piece[1]](surfaces[piece[0] % len(surfaces)])
        text += sep + piece
    gaz, rules = _gaz_of(names), RuleSet(fixed_lists=fixed)
    assert sorted(TaggerPredictor(gaz, rules).candidates(text)) == \
        sorted(_dict_candidates(text, _dictionary(gaz, rules)))


# Characters whose casefold expands (sharp s, capital sharp s, n preceded by
# an apostrophe, dotted capital I, the fi ligature), placed on and beside the
# edges of the blocks that _fold folds one at a time.
_EXPANDING = "\u00df\u1e9e\u0149\u0130\ufb01"
_BLOCK_EDGES = sorted({max(0, k * _FOLD_BLOCK + d) for k in range(4) for d in (-2, -1, 0, 1)})


@settings(max_examples=200)
@given(length=st.integers(0, 3 * _FOLD_BLOCK + 2),
       placed=st.lists(st.tuples(st.sampled_from(_BLOCK_EDGES),
                                 st.sampled_from(_EXPANDING + "\u03a3K")), max_size=6),
       filler=st.sampled_from(["aB ", "\u00c9t\u00e9", "\u212a-\u017f"]))
@example(length=2 * _FOLD_BLOCK, placed=[(_FOLD_BLOCK - 1, "\u00df"), (_FOLD_BLOCK, "\u0130")],
         filler="aB ")
def test_fold_equals_the_per_character_definition(length, placed, filler):
    chars = list((filler * (length // len(filler) + 1))[:length])
    for index, char in placed:
        if index < length:
            chars[index] = char
    text = "".join(chars)
    assert _fold(text) == oracle_fold(text)


@pytest.mark.parametrize("names, text, oracle, matched", [
    # U+0130 matches "i" under IGNORECASE, but its casefold is "i" plus a
    # combining dot, so the old scan dropped the position without trying
    # the shorter name.  The fold keeps the character as it is.
    (["ia- b", "\u0130a-"], "\u0130A- b", [], [(0, 3, 1, "Tool")]),
    # U+0131 (dotless i) likewise matches "i" under IGNORECASE but
    # casefolds to itself.
    (["ia-b", "\u0131A"], "\u0131a-b", [], [(0, 2, 1, "Tool")]),
    # Equal casefolds, both lower case: the per-character fold keeps them apart.
    (["\u0390x"], "\u1fd3x", [(0, 2, 1, "Tool")], []),
    (["\ufb05x"], "\ufb06x", [(0, 2, 1, "Tool")], []),
])
def test_where_the_fold_departs_from_ignorecase(names, text, oracle, matched):
    gaz, rules = _gaz_of(names), RuleSet()
    assert sorted(_dict_candidates(text, _dictionary(gaz, rules))) == oracle
    assert sorted(TaggerPredictor(gaz, rules).candidates(text)) == matched


def test_fold_agrees_with_the_regex_engine_except_where_documented():
    # Every character with a case mapping, and every one-character image.
    cased = set()
    for code in range(0x110000):
        c = chr(code)
        if c.lower() != c or c.upper() != c or c.casefold() != c:
            cased.add(c)
            cased.update(f for f in (c.lower(), c.upper(), c.casefold()) if len(f) == 1)
    alphabet = "".join(sorted(cased))
    by_fold: dict[str, set[str]] = {}
    for c in alphabet:
        by_fold.setdefault(_fold(c), set()).add(c)
    # Characters with equal folds have equal casefolds, so a folded hit's
    # label can be looked up by casefold.
    assert all(len({c.casefold() for c in same}) == 1 for same in by_fold.values())
    departures = {c for c in alphabet
                  if {m.group() for m in re.finditer(re.escape(c), alphabet, re.IGNORECASE)}
                  != by_fold[_fold(c)]}
    assert departures == set("Ii\u0130\u0131\u0390\u1fd3\u03b0\u1fe3\ufb05\ufb06")


def test_silver_annotate_with_builtin_tagger():
    docs = tuple(Document(f"d{i}", "aligned with BWA notably") for i in range(3))
    silver = silver_annotate(Corpus("c", docs), TaggerPredictor(_gaz("BWA"), EMPTY_RULES))
    assert len(silver) == 3
    for doc in silver.documents:
        assert doc.provenance == Provenance.SILVER
        assert [e.surface for e in doc.entities] == ["BWA"]


def test_silver_annotate_discards_existing_gold():
    text = "aligned with BWA notably"
    gold_doc = doc_of("d1", text, ent("T1", "Method", 0, 7, text))
    silver = silver_annotate(Corpus("c", (gold_doc,)),
                             TaggerPredictor(_gaz("BWA"), EMPTY_RULES))
    assert [e.label.base for e in silver.documents[0].entities] == ["Tool"]


def test_silver_self_consistency():
    text = "aligned with BWA and SAMtools"
    predictor = TaggerPredictor(_gaz("BWA", "SAMtools"), EMPTY_RULES)
    corpus = Corpus("c", (Document("d1", text),))
    silver = silver_annotate(corpus, predictor)
    again = silver_annotate(silver, predictor)
    report = score(silver, again, MatchMode.STRICT)
    assert report.overall.f1 == 1.0


def test_external_predictions_missing_doc(tmp_path):
    for doc_id in ("d1", "d2"):
        (tmp_path / f"{doc_id}.ann").write_text("", encoding="utf-8")
    corpus = Corpus("c", tuple(Document(f"d{i}", "text here") for i in (1, 2, 3)))
    with pytest.raises(MalformedPrediction) as exc:
        read_predictions(tmp_path, corpus)
    assert (exc.value.reason, exc.value.path) == ("no prediction found for doc_id 'd3'", tmp_path)


def test_external_predictions_from_dir(tmp_path):
    text = "aligned with BWA"
    (tmp_path / "d1.ann").write_text("T1\tTool 13 16\tBWA\n", encoding="utf-8")
    silver = read_predictions(tmp_path, Corpus("c", (Document("d1", text),)))
    assert [e.surface for e in silver.documents[0].entities] == ["BWA"]


def test_external_predictions_from_jsonl(tmp_path):
    text = "RNA extra reads here"
    path = tmp_path / "preds.jsonl"
    path.write_text(
        '{"doc_id": "d1", "label": "Data", "start": [0, 10], "end": [3, 15], '
        '"surface": "RNA reads"}\n'
        '{"doc_id": "d1", "label": "Tool", "start": 4, "end": 9, "surface": "extra"}\n',
        encoding="utf-8")
    silver = read_predictions(path, Corpus("c", (Document("d1", text),)))
    entities = silver.documents[0].entities
    assert {e.label.base for e in entities} == {"Data", "Tool"}
    discontinuous = next(e for e in entities if e.label.base == "Data")
    assert discontinuous.fragments == (Span(0, 3), Span(10, 15))


def test_external_prediction_surface_mismatch_is_an_error(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"doc_id": "d1", "label": "Tool", "start": 0, "end": 3, '
                    '"surface": "WRONG"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        read_predictions(path, Corpus("c", (Document("d1", "BWA here"),)))


@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_a_corpus_read_as_its_own_predictions_comes_back_silver(rng, n_docs):
    corpus = Corpus("c", tuple(random_document(rng, f"d{i}") for i in range(n_docs)))
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus_dir(corpus, tmp)
        silver = read_predictions(tmp, corpus)
    assert silver == Corpus("c", tuple(
        Document(d.doc_id, d.text, d.entities, Provenance.SILVER, d.sidecar)
        for d in corpus.documents))


_PREDICTED_TEXTS = {"d1": "aligned with BWA and STAR v1.2", "d2": "génome 配列, reads (x)",
                    "d3": "STAR\nmaps reads"}
_PREDICTED_LABELS = st.one_of(
    st.tuples(st.sampled_from(sorted(BIOTOFLOW.labels)), st.none()),
    st.tuples(st.just("Tool"), st.sampled_from(sorted(BIOTOFLOW.qualifiers["Tool"]))))


# Any string as a label or qualifier, beside the schema's own.
_ANY_LABELS = st.tuples(
    st.one_of(st.sampled_from(sorted(BIOTOFLOW.labels)), st.text(max_size=6)),
    st.one_of(st.none(), st.sampled_from(["", *sorted(BIOTOFLOW.qualifiers["Tool"])]),
              st.text(max_size=4)))


@st.composite
def _predicted_entities(draw, text, labels=_PREDICTED_LABELS, max_entities=5):
    """(label, qualifier, fragments) in file order, labels drawn from
    ``labels``: fragments cut from sorted distinct offsets, so they are
    non-empty, ordered and apart."""
    out = []
    for _ in range(draw(st.integers(1, max_entities))):
        cuts = sorted(draw(st.lists(st.integers(0, len(text)), min_size=2, max_size=6,
                                    unique=True)))
        fragments = list(zip(cuts[0::2], cuts[1::2]))
        out.append((*draw(labels), fragments))
    return out


def _surface(text, fragments):
    """The surface as ``serialize_standoff`` writes it: the slices joined by
    a space, each line break written as a space."""
    return re.sub(r"[\r\n]", " ", " ".join(text[s:e] for s, e in fragments))


def _ann_text(text, entities):
    lines = [f"T{i}\t{label} {';'.join(f'{s} {e}' for s, e in fragments)}\t"
             + _surface(text, fragments)
             for i, (label, _qualifier, fragments) in enumerate(entities, start=1)]
    lines += [f"A{i}\t{qualifier} T{i}"
              for i, (_label, qualifier, _fragments) in enumerate(entities, start=1) if qualifier]
    return "".join(line + "\n" for line in lines)


def _jsonl_line(doc_id, text, label, qualifier, fragments):
    starts, ends = ([s for s, _e in fragments], [e for _s, e in fragments])
    record = {"doc_id": doc_id, "label": label,
              "start": starts if len(starts) > 1 else starts[0],
              "end": ends if len(ends) > 1 else ends[0],
              "surface": _surface(text, fragments)}
    if qualifier is not None:
        record["qualifier"] = qualifier
    return json.dumps(record, ensure_ascii=False) + "\n"


@given(st.fixed_dictionaries({doc_id: _predicted_entities(text)
                              for doc_id, text in _PREDICTED_TEXTS.items()}))
def test_ann_and_jsonl_predictions_give_the_same_silver_corpus(predicted):
    corpus = Corpus("c", tuple(Document(d, text) for d, text in _PREDICTED_TEXTS.items()))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "ann").mkdir()
        jsonl = []
        for doc_id, entities in predicted.items():
            text = _PREDICTED_TEXTS[doc_id]
            (root / "ann" / f"{doc_id}.ann").write_text(_ann_text(text, entities),
                                                        encoding="utf-8")
            jsonl += [_jsonl_line(doc_id, text, *entity) for entity in entities]
        (root / "preds.jsonl").write_text("".join(jsonl), encoding="utf-8")
        from_ann = read_predictions(root / "ann", corpus)
        from_jsonl = read_predictions(root / "preds.jsonl", corpus)
        assert from_ann == from_jsonl
        assert [len(doc.entities) for doc in from_ann.documents] == \
            [len(predicted[doc_id]) for doc_id in _PREDICTED_TEXTS]
        write_corpus_dir(from_ann, root / "out_ann")
        write_corpus_dir(from_jsonl, root / "out_jsonl")
        for name in sorted(p.name for p in (root / "out_ann").iterdir()):
            assert (root / "out_ann" / name).read_bytes() == \
                (root / "out_jsonl" / name).read_bytes()
        assert len(list((root / "out_jsonl").iterdir())) == 2 * len(_PREDICTED_TEXTS)


@given(st.fixed_dictionaries({doc_id: _predicted_entities(text, _ANY_LABELS, 2)
                              for doc_id, text in _PREDICTED_TEXTS.items()}))
def test_a_jsonl_that_silver_accepts_writes_a_corpus_that_reads_back(predicted):
    corpus = Corpus("c", tuple(Document(d, text) for d, text in _PREDICTED_TEXTS.items()))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "preds.jsonl").write_text("".join(
            _jsonl_line(doc_id, _PREDICTED_TEXTS[doc_id], *entity)
            for doc_id, entities in predicted.items() for entity in entities), encoding="utf-8")
        try:
            silver = read_predictions(root / "preds.jsonl", corpus)
        except MalformedPrediction as exc:
            # Every record fits its text: only a label or qualifier is refused.
            assert exc.reason.startswith(("'label'", "'qualifier'")), exc.reason
            return
        write_corpus_dir(silver, root / "c")
        reloaded = load_corpus_dir(root / "c")
    # A corpus directory records no provenance: the reload reads as gold.
    assert [(d.doc_id, d.text, d.entities, d.sidecar) for d in reloaded.documents] == \
        [(d.doc_id, d.text, d.entities, d.sidecar) for d in silver.documents]


def _corpus(name, n, provenance, prefix=""):
    return Corpus(name, tuple(
        Document(f"{prefix}doc{i}", "text here", provenance=provenance)
        for i in range(n)))


def test_fuse_counts_provenance():
    gold = _corpus("gold", 52, Provenance.GOLD, "g")
    conv = _corpus("conv", 1159, Provenance.CONVERTED, "c")
    fused = fuse([(gold, None), (conv, None)])
    assert len(fused) == 1211
    assert dict(provenance_counts(fused)) == {"gold": 52, "converted": 1159}


def test_fuse_single_source_is_identity():
    gold = _corpus("gold", 5, Provenance.GOLD)
    fused = fuse([(gold, None)])
    assert fused.documents == gold.documents


def test_fuse_is_order_independent_on_document_sets():
    a = _corpus("a", 3, Provenance.GOLD, "a")
    b = _corpus("b", 4, Provenance.SILVER, "b")
    ab = fuse([(a, None), (b, None)])
    ba = fuse([(b, None), (a, None)])
    assert set(ab.documents) == set(ba.documents)


def test_fuse_rejects_collisions_unless_prefixing():
    a = _corpus("a", 3, Provenance.GOLD)
    b = _corpus("b", 3, Provenance.CONVERTED)
    with pytest.raises(DuplicateDocId):
        fuse([(a, None), (b, None)])
    fused = fuse([(a, None), (b, None)], prefix_on_collision=True)
    assert sorted(fused.doc_ids())[:2] == ["a:doc0", "a:doc1"]


def test_fuse_role_overrides_provenance():
    a = _corpus("a", 2, Provenance.GOLD)
    fused = fuse([(a, Provenance.SILVER)])
    assert dict(provenance_counts(fused)) == {"silver": 2}


def test_fuse_training_requires_gold():
    silver = _corpus("s", 3, Provenance.SILVER)
    with pytest.raises(ValueError):
        fuse([(silver, None)], for_training=True)
    gold = _corpus("g", 1, Provenance.GOLD, "g")
    fused = fuse([(silver, None), (gold, None)], for_training=True)
    assert len(fused) == 4
