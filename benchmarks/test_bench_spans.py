"""Self-time arithmetic and the span recorder of the traced run."""

from __future__ import annotations

import flowner
import flowner.cli  # noqa: F401  (the recorder wraps cli.main)
from flowner import corpus_io, standoff
from flowner.model import Corpus, Document, Entity, EntityLabel, Span

import spans


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0.0, 10.0) == 0.0
    assert spans.covered_length([(1, 2), (4, 6)], 0, 10) == 3
    assert spans.covered_length([(1, 5), (3, 7), (7, 8)], 0, 10) == 7
    assert spans.covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert spans.covered_length([(12, 15)], 0, 10) == 0


def test_self_time_subtracts_children_once():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],          # overlaps a: the union counts once
        ["late", 9.0, 12.0, 0],      # runs past its parent: clipped
        ["other_root", 20.0, 21.0, -1],
    ]
    assert spans.self_times(tree) == [10 - (5 + 1), 3 - 1, 1, 2.5, 3, 1]


def test_self_times_of_a_properly_nested_tree_add_up_to_the_root():
    tree = [["root", 0.0, 8.0, -1], ["a", 1.0, 3.0, 0], ["b", 4.0, 7.0, 0],
            ["b1", 4.5, 5.0, 2], ["b2", 5.5, 6.5, 2]]
    assert sum(spans.self_times(tree)) == 8.0


def test_summarize_groups_by_name_and_module():
    tree = [["cli.main", 0.0, 4.0, -1], ["standoff.parse_standoff", 0.5, 1.0, 0],
            ["standoff.parse_standoff", 1.0, 2.0, 0], ["stats.tokenize", 2.0, 2.5, 0]]
    summary = spans.summarize(tree)
    assert summary["standoff.parse_standoff"]["calls"] == 2
    assert summary["standoff.parse_standoff"]["self_s"] == 1.5
    assert summary["cli.main"]["self_s"] == 2.0
    assert spans.module_self(summary) == {"cli": 2.0, "standoff": 1.5, "stats": 0.5}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 0.5) == 50
    assert spans.percentile(values, 0.99) == 99
    assert spans.percentile([7], 0.99) == 7
    assert spans.percentile([], 0.5) == 0.0


def _write_tiny_corpus(path):
    text = "bwa aligned reads"
    doc = Document("d1", text, (Entity("T1", EntityLabel("Tool"), (Span(0, 3),), "bwa"),))
    corpus_io.write_corpus_dir(Corpus("c", (doc,)), path)


def test_recorder_wraps_where_callers_look_up_and_restores(tmp_path):
    _write_tiny_corpus(tmp_path / "c")
    originals = (corpus_io.parse_standoff, standoff.parse_standoff, flowner.parse_standoff)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert corpus_io.parse_standoff is not originals[0]
        assert flowner.parse_standoff is corpus_io.parse_standoff
        corpus = corpus_io.load_corpus_dir(tmp_path / "c")
    finally:
        recorder.uninstall()
    assert (corpus_io.parse_standoff, standoff.parse_standoff,
            flowner.parse_standoff) == originals
    assert recorder.missing == []
    names = [s[0] for s in recorder.spans]
    assert names == ["corpus_io.load_corpus_dir", "corpus_io.load_document",
                     "standoff.parse_standoff"]
    assert [s[3] for s in recorder.spans] == [-1, 0, 1]
    assert recorder.counts["corpus_io.load_corpus_dir"]["docs"] == len(corpus) == 1
    assert len(recorder.calls["corpus_io.load_corpus_dir"]) == 1


def test_recorder_settles_deferred_counters_on_uninstall(tmp_path):
    recorder = spans.Recorder()
    recorder.install()
    try:
        _write_tiny_corpus(tmp_path / "c")
    finally:
        recorder.uninstall()
    written = sum(p.stat().st_size for p in (tmp_path / "c").iterdir())
    assert recorder.counts["corpus_io.write_corpus_dir"]["bytes"] == written
