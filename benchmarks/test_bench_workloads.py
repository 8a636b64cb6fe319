"""Planted truth of the workload generators, checked against the program.

The generators claim to know, without running the program, what every
step must output.  These tests hold them to it on small instances.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from flowner import corpus_io, gazetteer, schema, tagger
from flowner.evaluation import MatchMode, score
from flowner.gazetteer import shipped_common_words
from flowner.schema import SOFTCITE_QUALIFIERS
from flowner.stats import corpus_stats, count_nested
from flowner.model import Document, Entity, EntityLabel, Span

import checks
import run
import workloads

REPO = Path(__file__).resolve().parent.parent


def _gazetteer(in_dir: Path) -> gazetteer.Gazetteer:
    entries = []
    for kind in ("biotools", "bioconda", "biocontainers"):
        path = next(in_dir.glob(f"{kind}.*"))
        entries += gazetteer.ingest(kind, path.read_text(encoding="utf-8"))
    return gazetteer.build_gazetteer(entries)


def _tagged(corpus_dir: Path, gaz, doc_ids) -> dict:
    predictor = tagger.TaggerPredictor(gaz)
    out = {}
    for doc_id in doc_ids:
        doc = corpus_io.load_document(corpus_dir / f"{doc_id}.txt")
        out[doc_id] = sorted((e.label.base, e.start, e.end) for e in predictor(doc))
    return out


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    in_dir = tmp_path_factory.mktemp("paper") / "in"
    return workloads.build_paper_pipeline(3, in_dir), in_dir


def test_paper_gold_has_the_published_counts_and_nesting(paper):
    wl, in_dir = paper
    gold = corpus_io.load_corpus_dir(in_dir / "gold")
    report = corpus_stats(gold)
    assert dict(report.labels) == workloads.PAPER_COUNTS
    assert report.nested_entities == workloads.PAPER_NESTED == wl.sizes["gold_nested"]
    assert len(gold) == workloads.PAPER_DOCS


def test_paper_planted_triggers_are_exactly_what_the_tagger_finds(paper):
    wl, in_dir = paper
    gaz = _gazetteer(in_dir)
    assert {k: (e.canonical, e.kind, sorted(e.sources)) for k, e in gaz.entries.items()} \
        == wl.expected["gazetteer"]
    doc_ids = ["article00", "article17", "article51"]
    got = _tagged(in_dir / "gold", gaz, doc_ids)
    assert got == {d: [tuple(t) for t in wl.expected["silver"][d]] for d in doc_ids}


def test_paper_strict_tp_is_the_planted_shared_count(paper):
    wl, in_dir = paper
    gold = corpus_io.load_corpus_dir(in_dir / "gold")
    silver_docs = []
    for doc in gold.documents:
        ents = tuple(Entity(f"T{i}", EntityLabel(label), (Span(s, e),), doc.text[s:e])
                     for i, (label, s, e) in enumerate(wl.expected["silver"][doc.doc_id], 1))
        silver_docs.append(Document(doc.doc_id, doc.text, ents))
    pred = type(gold)("silver", tuple(silver_docs))
    assert score(gold, pred, MatchMode.STRICT).overall.tp == wl.expected["eval"]["strict_tp"]
    assert score(gold, pred, MatchMode.RELAXED).overall.tp == wl.expected["eval"]["relaxed_tp"]


def test_softcite_expected_conversion_matches_the_program(tmp_path):
    rng = random.Random(1)
    (tmp_path / "sc").mkdir()
    want = workloads.gen_softcite(rng, tmp_path / "sc", ["Bodaviz", "bwa-mem"], n_docs=200)
    corpus = corpus_io.load_corpus_dir(tmp_path / "sc", qualifiers=SOFTCITE_QUALIFIERS)
    converted, report = schema.convert_corpus(corpus, schema.default_softcite_table())
    got = report.to_json_dict()
    assert {k: got[k] for k in ("mapped", "dropped", "unknown", "multi_attribute_warnings")} \
        == {k: want[k] for k in ("mapped", "dropped", "unknown", "multi_attribute_warnings")}
    assert want["multi_attribute_warnings"] > 0
    labels = Counter(e.label.base for d in converted.documents for e in d.entities)
    assert dict(labels) == want["labels"]


def test_fulltext_planted_names_tag_exactly(tmp_path):
    wl = workloads.build_fulltext_tag(6, tmp_path / "in", n_names=2_000,
                                      target_chars=12_000, mentions=300)
    gaz = _gazetteer(tmp_path / "in")
    assert len(gaz) == wl.sizes["gazetteer_names"]
    assert gaz.normalization["filtered"] == workloads.EXPECTED_FILTERED
    got = _tagged(tmp_path / "in/articles", gaz, wl.expected["silver"])
    want = {d: [tuple(t) for t in v] for d, v in wl.expected["silver"].items()}
    assert got == want
    text = (tmp_path / "in/articles/fulltext0.txt").read_text(encoding="utf-8")
    surfaces = {text[s:e] for _l, s, e in want["fulltext0"]}
    assert "C++" in surfaces
    assert any(s not in {e.canonical for e in gaz.entries.values()} for s in surfaces), \
        "case variants are planted"
    assert any(not w.isascii() for w in text.split())


def test_dense_eval_strict_tp_and_nesting(tmp_path):
    wl = workloads.build_dense_eval(7, tmp_path / "in", n_words=1_500, n_gold=300, n_pred=300)
    gold = corpus_io.load_corpus_dir(tmp_path / "in/gold")
    pred = corpus_io.load_corpus_dir(tmp_path / "in/pred")
    assert score(gold, pred, MatchMode.STRICT).overall.tp == wl.expected["eval"]["strict_tp"]
    stats = corpus_stats(gold).to_json_dict()
    for key, want in wl.expected["stats"].items():
        assert stats[key] == want
    assert any(len(e.fragments) > 1 for d in gold.documents for e in d.entities)


def test_nested_count_matches_the_definition():
    rng = random.Random(8)
    for _ in range(200):
        ents = []
        for _ in range(rng.randint(0, 12)):
            s = rng.randint(0, 20)
            ents.append(("L", ((s, s + rng.randint(1, 6)),)))
        doc = Document("d", "x" * 30, tuple(
            Entity(f"T{i}", EntityLabel("L"), (Span(*f[0]),), "x" * (f[0][1] - f[0][0]))
            for i, (_l, f) in enumerate(ents)))
        assert workloads.nested_count(ents) == count_nested(doc)


def test_generation_is_deterministic_per_seed(tmp_path):
    workloads.build_dense_eval(9, tmp_path / "a", n_words=500, n_gold=50, n_pred=50)
    workloads.build_dense_eval(9, tmp_path / "b", n_words=500, n_gold=50, n_pred=50)
    workloads.build_dense_eval(10, tmp_path / "c", n_words=500, n_gold=50, n_pred=50)
    assert checks.digests(tmp_path / "a") == checks.digests(tmp_path / "b")
    assert checks.digests(tmp_path / "a") != checks.digests(tmp_path / "c")


def test_generated_names_avoid_filler_and_common_words():
    common = shipped_common_words()
    for seed in range(5):
        names = workloads.gen_names(random.Random(seed), 3_000)
        assert len({n.casefold() for n in names}) == len(names)
        assert not any(n.casefold() in common for n in names)
        assert not any(workloads._tokens(n) & workloads.FILLER_TOKENS for n in names)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
