"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Criterion 1 needs the public 52-article corpus on disk (point
``BIOTOFLOW_DIR`` at it); without network access the test skips and the
identical machinery is exercised on a synthetic replica with the exact
published counts.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from flowner.cli import main
from flowner.corpus_io import load_corpus_dir, write_corpus_dir
from flowner.evaluation import MatchMode, match_document, score
from flowner.experiment import (LabelScore, RunResult, aggregate,
                                make_splits, render_table)
from flowner.evaluation import MatchReport, _micro
from flowner.gazetteer import build_gazetteer, ingest
from flowner.model import Corpus, Document, Entity, EntityLabel, Provenance, Span
from flowner.schema import convert_corpus, default_softcite_table
from flowner.standoff import parse_standoff, serialize_standoff
from flowner.tagger import FusionConfig, FusionSource, fuse, \
    provenance_counts, tag, default_ruleset
from gen import (random_corpus_pair, random_document, random_match_instance)
from oracles import brute_force_max_pairs
from util import TABLE1_COUNTS, synthetic_table1_corpus


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS")


def _stats_via_cli(corpus_dir: Path, out_path: Path) -> tuple[dict, float]:
    t0 = time.perf_counter()
    code = main(["stats", "--corpus", str(corpus_dir), "--out", str(out_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return json.loads(out_path.read_text("utf-8")), elapsed


def _check_table1_stats(data: dict, elapsed: float) -> None:
    assert data["labels"] == TABLE1_COUNTS
    assert 0.06 <= data["nesting_fraction"] <= 0.10
    assert elapsed < 10.0, f"stats took {elapsed:.1f}s"


def test_criterion_1_corpus_statistics(tmp_path):
    with criterion(1, "corpus statistics reproduction"):
        replica_dir = tmp_path / "replica"
        write_corpus_dir(synthetic_table1_corpus(), replica_dir)
        data, elapsed = _stats_via_cli(replica_dir, tmp_path / "replica.json")
        _check_table1_stats(data, elapsed)

    real_dir = os.environ.get("BIOTOFLOW_DIR", "tests/data/biotoflow")
    if not Path(real_dir).is_dir():
        pytest.skip(
            "public 52-article corpus not present (no network in this "
            "environment); set BIOTOFLOW_DIR to run the published-counts check")
    with criterion(1, "corpus statistics reproduction (public corpus)"):
        data, elapsed = _stats_via_cli(Path(real_dir), Path(real_dir) / ".stats.json")
        assert data["documents"] == 52
        _check_table1_stats(data, elapsed)


def test_criterion_2_split_cardinalities():
    with criterion(2, "split cardinalities"):
        t0 = time.perf_counter()

        small = Corpus("c52", tuple(Document(f"d{i:03d}", "x") for i in range(52)))
        for m in make_splits(small, 5, 17):
            sizes = (len(m.train_ids), len(m.dev_ids), len(m.test_ids))
            assert sizes == (26, 13, 13)

        # The published counts for the 1159-article subset (927/232 and
        # 649/278) correspond to a 0.8/0.3 cut, which is what we pass here;
        # the nominal 75%/25% of the text cannot produce them.
        big = Corpus("c1159", tuple(Document(f"a{i:04d}", "x") for i in range(1159)))
        manifests = make_splits(big, 5, 17, ratios=(0.8, 0.3))
        for m in manifests:
            sizes = (len(m.train_ids), len(m.dev_ids), len(m.test_ids))
            assert sizes == (649, 278, 232)

        again = make_splits(big, 5, 17, ratios=(0.8, 0.3))
        assert json.dumps([m.to_json_dict() for m in again]) == \
            json.dumps([m.to_json_dict() for m in manifests])

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"splitting took {elapsed:.2f}s"


def test_criterion_3_matching_oracle_equivalence():
    with criterion(3, "matching-oracle equivalence"):
        rng = random.Random(0xB10F)
        t0 = time.perf_counter()
        checked = 0
        for _ in range(10_000):
            gold, pred = random_match_instance(rng, max_gold=6, max_pred=6)
            for mode in (MatchMode.STRICT, MatchMode.RELAXED):
                got = len(match_document(gold, pred, mode))
                want = brute_force_max_pairs(gold, pred, mode.value)
                assert got == want, (mode.value, gold, pred)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 20_000
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def _fixture_corpora() -> list[Corpus]:
    rng = random.Random(404)
    fixtures = []
    for k in range(5):
        docs = tuple(random_document(rng, f"d{i}", with_sidecar=False)
                     for i in range(4))
        fixtures.append(Corpus(f"fixture{k}", docs))
    return fixtures


def test_criterion_4_metric_identities():
    with criterion(4, "metric identities"):
        for corpus in _fixture_corpora():
            for mode in (MatchMode.STRICT, MatchMode.RELAXED):
                report = score(corpus, corpus, mode)
                assert report.overall.f1 == 1.0
                for s in report.per_label.values():
                    assert s.f1 == 1.0

            empty = Corpus("e", tuple(Document(d.doc_id, d.text)
                                      for d in corpus.documents))
            report = score(corpus, empty, MatchMode.RELAXED)
            if report.overall.fn:
                assert report.overall.r == 0.0
                assert report.overall.p == 0.0
                assert report.overall.f1 == 0.0

        rng = random.Random(0xACE)
        for _ in range(1_000):
            gold, pred = random_corpus_pair(rng, n_docs=2)
            strict = score(gold, pred, MatchMode.STRICT)
            relaxed = score(gold, pred, MatchMode.RELAXED)
            assert relaxed.overall.f1 >= strict.overall.f1

            ab = score(gold, pred, MatchMode.RELAXED)
            ba = score(pred, gold, MatchMode.RELAXED)
            assert abs(ab.overall.f1 - ba.overall.f1) < 1e-12


TABLE3_CASES = [
    # (source base, attribute, expected target base, expected qualifier)
    ("software", None, "Tool", None),
    ("software", "environment", "Tool", None),
    ("software", "url", "Biblio", None),
    ("software", "component", "LibraryPackage", None),
    ("software", "implicit", "Tool", "General"),
    ("publisher", None, "Biblio", None),
    ("publisher", "environment", "Environment", None),
    ("bibr", None, "Biblio", None),
    ("version", None, "Version", None),
    ("url", None, "Biblio", None),
    ("language", None, "ProgrammingLanguage", None),
    ("publisher_person", None, None, None),
    ("figure", None, None, None),
    ("table", None, None, None),
    ("formula", None, None, None),
]


def test_criterion_5_mapping_table_fixture():
    with criterion(5, "mapping-table fixture"):
        words = [f"w{i:02d}" for i in range(len(TABLE3_CASES))]
        text = " ".join(words)
        entities = []
        for i, (base, attr, _target, _q) in enumerate(TABLE3_CASES):
            start = i * 4
            entities.append(Entity(f"T{i + 1}", EntityLabel(base, attr),
                                   (Span(start, start + 3),), words[i]))
        doc = Document("softcite1", text, entities=tuple(entities))
        corpus = Corpus("sc", (doc,))

        converted, report = convert_corpus(corpus, default_softcite_table())
        out = converted.documents[0]

        by_id = {e.id: e for e in out.entities}
        dropped_count = 0
        for i, (base, attr, target, qualifier) in enumerate(TABLE3_CASES):
            ent_id = f"T{i + 1}"
            if target is None:
                assert ent_id not in by_id
                dropped_count += 1
            else:
                got = by_id[ent_id]
                assert got.label == EntityLabel(target, qualifier), (base, attr)
                original = doc.entity_by_id(ent_id)
                assert got.fragments == original.fragments
                assert got.surface == original.surface
        assert dropped_count == 4
        assert sum(report.dropped.values()) == 4
        assert out.text.encode("utf-8") == doc.text.encode("utf-8")
        assert len(out.entities) + 4 == len(doc.entities)


def test_criterion_6_standoff_roundtrip():
    with criterion(6, "standoff round-trip"):
        rng = random.Random(0x60D)
        mismatches = 0
        saw_discontinuous = saw_nested = saw_non_ascii = False
        for i in range(1_000):
            doc = random_document(rng, f"doc{i}")
            ann, text = serialize_standoff(doc)
            back = parse_standoff(ann, text, doc.doc_id, provenance=doc.provenance)
            if back != doc:
                mismatches += 1
            if any(len(e.fragments) > 1 for e in doc.entities):
                saw_discontinuous = True
            if any(ord(ch) > 127 for ch in doc.text):
                saw_non_ascii = True
            extents = [(e.start, e.end) for e in doc.entities]
            for a in extents:
                for b in extents:
                    if a != b and b[0] <= a[0] and a[1] <= b[1]:
                        saw_nested = True
        assert mismatches == 0
        assert saw_discontinuous and saw_nested and saw_non_ascii


def test_criterion_7_aggregation_oracle():
    with criterion(7, "aggregation oracle"):
        rng = random.Random(0xA66)
        labels = ("Tool", "Data", "Biblio")
        runs = []
        raw = []
        for split in range(5):
            for seed in (1, 8, 22, 42, 100):
                counts = {b: (rng.randint(0, 80), rng.randint(0, 40),
                              rng.randint(0, 40)) for b in labels}
                raw.append(counts)
                per_label = {b: LabelScore.from_counts(*c)
                             for b, c in counts.items()}
                runs.append(RunResult(
                    split_id=split, seed_model=seed,
                    report=MatchReport(mode=MatchMode.RELAXED,
                                       per_label=per_label,
                                       overall=_micro(per_label, None))))
        assert len(runs) == 25
        table = aggregate(runs, label_filter=["Tool", "Biblio"])

        def prf(tp, fp, fn):
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            return 100 * p, 100 * r, 100 * f1

        for b_idx, base in enumerate(labels):
            samples = np.array([prf(*counts[base]) for counts in raw])
            row = table.per_label[base]
            for got, col in ((row.mean_p, 0), (row.mean_r, 1), (row.mean_f1, 2)):
                assert abs(got - samples[:, col].mean()) < 1e-9
            for got, col in ((row.std_p, 0), (row.std_r, 1), (row.std_f1, 2)):
                assert abs(got - samples[:, col].std(ddof=1)) < 1e-9

        overall = np.array([
            prf(sum(c[b][0] for b in labels), sum(c[b][1] for b in labels),
                sum(c[b][2] for b in labels)) for c in raw])
        assert abs(table.overall.mean_f1 - overall[:, 2].mean()) < 1e-9
        assert abs(table.overall.std_f1 - overall[:, 2].std(ddof=1)) < 1e-9

        focused = np.array([
            prf(sum(c[b][0] for b in ("Tool", "Biblio")),
                sum(c[b][1] for b in ("Tool", "Biblio")),
                sum(c[b][2] for b in ("Tool", "Biblio"))) for c in raw])
        assert abs(table.overall_focused.mean_f1 - focused[:, 2].mean()) < 1e-9

        import re
        rendered = render_table(table, "text")
        for line in rendered.splitlines()[1:]:
            assert len(re.findall(r"\d+\.\d ±\d+\.\d", line)) == 3, line


def test_criterion_8_gazetteer_tagger_fixture():
    with criterion(8, "gazetteer/tagger fixture"):
        rng = random.Random(0x6A2)
        names = [f"ToolName{i}x" for i in range(12)] + ["STAR", "STAR-Fusion"]
        gaz = build_gazetteer(ingest("custom", "\n".join(names) + "\n"))
        filler = ["lorem", "ipsum", "dolor", "sit", "amet", "consectetur",
                  "adipiscing", "elit", "sed", "tempor"]

        for trial in range(20):
            planted = rng.sample(names[:12], rng.randint(3, 10))
            words = [rng.choice(filler) for _ in range(120)]
            for pos, name in zip(rng.sample(range(120), len(planted)), planted):
                words[pos] = name
            text = " ".join(words)

            gold = []
            cursor = 0
            for w_idx, word in enumerate(words):
                start = cursor
                cursor += len(word) + 1
                if word in planted:
                    gold.append(Entity(f"T{len(gold) + 1}", EntityLabel("Tool"),
                                       (Span(start, start + len(word)),), word))
            gold_corpus = Corpus("g", (Document("d", text,
                                                entities=tuple(gold)),))
            pred = tag(text, gaz, default_ruleset())
            pred_corpus = Corpus("p", (Document("d", text, entities=pred),))
            report = score(gold_corpus, pred_corpus, MatchMode.RELAXED)
            assert report.overall.r == 1.0, f"recall loss in trial {trial}"
            assert report.overall.p == 1.0, f"spurious tags in trial {trial}"

        text = "fusion calls from STAR-Fusion output"
        entities = tag(text, gaz, default_ruleset())
        tools = [e.surface for e in entities if e.label.base == "Tool"]
        assert tools == ["STAR-Fusion"]


def test_criterion_9_fusion_bookkeeping():
    with criterion(9, "fusion bookkeeping"):
        gold = Corpus("biotoflow", tuple(
            Document(f"pmid{i:04d}", "gold text", provenance=Provenance.GOLD)
            for i in range(52)))
        converted = Corpus("softcite", tuple(
            Document(f"pmc{i:05d}", "converted text",
                     provenance=Provenance.CONVERTED)
            for i in range(1159)))
        fused = fuse(FusionConfig(sources=(FusionSource(gold),
                                           FusionSource(converted))))
        assert len(fused) == 1211
        assert dict(provenance_counts(fused)) == {"gold": 52, "converted": 1159}
