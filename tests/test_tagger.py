import random

import pytest

from flowner.evaluation import MatchMode, score
from flowner.gazetteer import build_gazetteer, ingest
from flowner.model import (Corpus, Document, Entity, EntityLabel, Provenance,
                           Span, validate_document)
from flowner.tagger import (DuplicateDocId, ExternalPredictions, FusionConfig,
                            FusionSource, MissingPrediction, RuleSet,
                            TaggerPredictor, default_ruleset, fuse,
                            provenance_counts, silver_annotate, tag)
from util import doc_of, ent


def _gaz(*names):
    return build_gazetteer(ingest("custom", "\n".join(names) + "\n"))


EMPTY_RULES = RuleSet()


def test_dictionary_tagging_at_word_boundaries():
    text = "aligned with BWA and sorted with SAMtools"
    entities = tag(text, _gaz("BWA", "SAMtools"), EMPTY_RULES)
    got = [(e.label.base, e.start, e.end, e.surface) for e in entities]
    assert got == [("Tool", 13, 16, "BWA"), ("Tool", 33, 41, "SAMtools")]


def test_no_match_inside_words():
    text = "the subSTARship runs"
    assert tag(text, _gaz("STAR"), EMPTY_RULES) == ()


def test_longest_match_wins_star_fusion():
    text = "fusions called with STAR-Fusion v1.6.0"
    entities = tag(text, _gaz("STAR", "STAR-Fusion"), default_ruleset())
    by_label = {e.label.base: e.surface for e in entities}
    assert by_label["Tool"] == "STAR-Fusion"
    assert by_label["Version"] == "v1.6.0"
    assert len(entities) == 2


def test_case_insensitive_fallback():
    text = "reads piped through bwa quickly"
    entities = tag(text, _gaz("BWA"), EMPTY_RULES)
    assert [(e.label.base, e.surface) for e in entities] == [("Tool", "bwa")]


def test_fixed_lists_override_tool_label():
    text = "implemented in Python under Nextflow"
    entities = tag(text, _gaz("Python", "Nextflow"), default_ruleset())
    labels = {e.surface: e.label.base for e in entities}
    assert labels == {"Python": "ProgrammingLanguage",
                      "Nextflow": "ManagementSystem"}


@pytest.mark.parametrize("text,expected", [
    ("uses BWA v0.7.17 here", "v0.7.17"),
    ("release 1.2.3 shipped", "1.2.3"),
    ("version 2.1b was slow", "version 2.1b"),
])
def test_version_patterns(text, expected):
    entities = tag(text, None, default_ruleset())
    versions = [e.surface for e in entities if e.label.base == "Version"]
    assert versions == [expected]


def test_biblio_patterns():
    text = "as shown [1, 2] and at https://example.org/x, see 10.5281/zenodo.14900544"
    entities = tag(text, None, default_ruleset())
    biblio = [e.surface for e in entities if e.label.base == "Biblio"]
    assert "[1, 2]" in biblio
    assert "https://example.org/x" in biblio
    assert "10.5281/zenodo.14900544" in biblio


def test_output_is_flat_and_surfaces_match_slices():
    text = "STAR-Fusion v1.6.0 with STAR and bwa [3] in Python"
    entities = tag(text, _gaz("STAR", "STAR-Fusion", "bwa"), default_ruleset())
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
    assert tag(text, gaz, default_ruleset()) == tag(text, gaz, default_ruleset())


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
                                        entities=tag(text, gaz, EMPTY_RULES)),))
    report = score(gold_corpus, pred_corpus, MatchMode.RELAXED)
    assert report.overall.r == 1.0
    assert report.overall.p == 1.0


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


def test_external_predictions_missing_doc():
    preds = ExternalPredictions(ann_by_doc={"d1": "", "d2": ""})
    corpus = Corpus("c", tuple(Document(f"d{i}", "text here") for i in (1, 2, 3)))
    with pytest.raises(MissingPrediction):
        silver_annotate(corpus, preds)


def test_external_predictions_from_dir(tmp_path):
    text = "aligned with BWA"
    (tmp_path / "d1.ann").write_text("T1\tTool 13 16\tBWA\n", encoding="utf-8")
    preds = ExternalPredictions.from_dir(tmp_path)
    silver = silver_annotate(Corpus("c", (Document("d1", text),)), preds)
    assert [e.surface for e in silver.documents[0].entities] == ["BWA"]


def test_external_predictions_from_jsonl(tmp_path):
    text = "RNA extra reads here"
    path = tmp_path / "preds.jsonl"
    path.write_text(
        '{"doc_id": "d1", "label": "Data", "start": [0, 10], "end": [3, 15], '
        '"surface": "RNA reads"}\n'
        '{"doc_id": "d1", "label": "Tool", "start": 4, "end": 9, "surface": "extra"}\n',
        encoding="utf-8")
    preds = ExternalPredictions.from_jsonl(path)
    silver = silver_annotate(Corpus("c", (Document("d1", text),)), preds)
    entities = silver.documents[0].entities
    assert {e.label.base for e in entities} == {"Data", "Tool"}
    discontinuous = next(e for e in entities if e.label.base == "Data")
    assert discontinuous.fragments == (Span(0, 3), Span(10, 15))


def test_external_prediction_surface_mismatch_is_an_error(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"doc_id": "d1", "label": "Tool", "start": 0, "end": 3, '
                    '"surface": "WRONG"}\n', encoding="utf-8")
    preds = ExternalPredictions.from_jsonl(path)
    with pytest.raises(ValueError):
        silver_annotate(Corpus("c", (Document("d1", "BWA here"),)), preds)


def _corpus(name, n, provenance, prefix=""):
    return Corpus(name, tuple(
        Document(f"{prefix}doc{i}", "text here", provenance=provenance)
        for i in range(n)))


def test_fuse_counts_provenance():
    gold = _corpus("gold", 52, Provenance.GOLD, "g")
    conv = _corpus("conv", 1159, Provenance.CONVERTED, "c")
    fused = fuse(FusionConfig(sources=(FusionSource(gold), FusionSource(conv))))
    assert len(fused) == 1211
    assert dict(provenance_counts(fused)) == {"gold": 52, "converted": 1159}


def test_fuse_single_source_is_identity():
    gold = _corpus("gold", 5, Provenance.GOLD)
    fused = fuse(FusionConfig(sources=(FusionSource(gold),)))
    assert fused.documents == gold.documents


def test_fuse_is_order_independent_on_document_sets():
    a = _corpus("a", 3, Provenance.GOLD, "a")
    b = _corpus("b", 4, Provenance.SILVER, "b")
    ab = fuse(FusionConfig((FusionSource(a), FusionSource(b))))
    ba = fuse(FusionConfig((FusionSource(b), FusionSource(a))))
    assert set(ab.documents) == set(ba.documents)


def test_fuse_rejects_collisions_unless_prefixing():
    a = _corpus("a", 3, Provenance.GOLD)
    b = _corpus("b", 3, Provenance.CONVERTED)
    with pytest.raises(DuplicateDocId):
        fuse(FusionConfig((FusionSource(a), FusionSource(b))))
    fused = fuse(FusionConfig((FusionSource(a), FusionSource(b)),
                              prefix_on_collision=True))
    assert sorted(fused.doc_ids())[:2] == ["a:doc0", "a:doc1"]


def test_fuse_role_overrides_provenance():
    a = _corpus("a", 2, Provenance.GOLD)
    fused = fuse(FusionConfig((FusionSource(a, role=Provenance.SILVER),)))
    assert dict(provenance_counts(fused)) == {"silver": 2}


def test_fuse_training_requires_gold():
    silver = _corpus("s", 3, Provenance.SILVER)
    with pytest.raises(ValueError):
        fuse(FusionConfig((FusionSource(silver),),
                          for_training=True))
    gold = _corpus("g", 1, Provenance.GOLD, "g")
    fused = fuse(FusionConfig((FusionSource(silver), FusionSource(gold)),
                              for_training=True))
    assert len(fused) == 4
