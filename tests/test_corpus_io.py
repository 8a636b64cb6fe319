import enum
import math
import os
import stat
import sys
import tracemalloc
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from flowner import corpus_io
from flowner.corpus_io import (atomic_write_json, atomic_write_text, check_fields,
                               document_paths, dumps_json, load_corpus_dir, write_corpus_dir)
from flowner.gazetteer import build_gazetteer, ingest
from flowner.evaluation import MatchMode, score
from flowner.model import Corpus, Document, Entity, InputError, Provenance, _extents_increase
from flowner.standoff import StandoffParseError
from oracles import oracle_dumps_json, oracle_gazetteer_json
from util import doc_of, ent, synthetic_table1_corpus


def test_listing_equals_the_sorted_glob(tmp_path):
    for name in ["b.txt", "a.txt", ".h.txt", ".txt", ".txt.ann", "a.ann", "A.TXT",
                 "notes.md", "a.txt.bak", "é.txt"]:
        (tmp_path / name).write_text("x", encoding="utf-8")
    (tmp_path / "dir.txt").mkdir()
    want = [(str(p), str(p.with_suffix(".ann"))) for p in sorted(tmp_path.glob("*.txt"))]
    assert document_paths(tmp_path) == want
    names = [os.path.basename(txt) for txt, _ann in want]
    assert names == [".h.txt", ".txt", "a.txt", "b.txt", "dir.txt", "é.txt"]
    assert want[1][1] == str(tmp_path / ".txt.ann")


def test_an_ann_that_no_txt_names_is_listed_first_without_a_text(tmp_path):
    for name in ["a.txt", "a.ann", "A.ann", "a.txt.ann", ".txt", ".txt.ann", "z.ann"]:
        (tmp_path / name).write_text("x", encoding="utf-8")
    assert document_paths(tmp_path) == [
        (None, str(tmp_path / name)) for name in ["A.ann", "a.txt.ann", "z.ann"]] + [
        (str(tmp_path / txt), str(tmp_path / ann)) for txt, ann in [(".txt", ".txt.ann"),
                                                                    ("a.txt", "a.ann")]]
    with pytest.raises(StandoffParseError, match="annotations without a text") as exc:
        load_corpus_dir(tmp_path)
    assert exc.value.path == str(tmp_path / "A.ann")


def test_listing_a_missing_directory_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError, match="corpus directory not found"):
        document_paths(tmp_path / "nope")


class _Fault(InputError):
    pass


@pytest.mark.parametrize("obj, reason", [
    ([], "expected a JSON object"),
    (None, "expected a JSON object"),
    (MappingProxyType({"b": 1, "c": 2}), "expected a JSON object"),
    ({"a": 1}, "missing field(s) c, b"),
    ({}, "missing field(s) c, b"),
    ({"c": 1, "b": 2, "z": 3, "a": 4, "y": 5}, "unknown field(s) y, z (expected c, b, a)"),
])
def test_check_fields_raises_one_reason_at_the_record(obj, reason):
    with pytest.raises(_Fault) as exc:
        check_fields(obj, _Fault, "f.json", "row 3", ("c", "b"), ("a",))
    assert (exc.value.reason, exc.value.path, exc.value.where) == (reason, "f.json", "row 3")


def test_check_fields_returns_the_object_itself():
    obj = {"c": [], "b": None}
    assert check_fields(obj, _Fault, None, None, ("c", "b"), ("a",)) is obj
    assert check_fields({}, _Fault, None, None) == {}
    assert check_fields({"a": 1}, _Fault, None, None, optional=("a",)) == {"a": 1}


def test_dot_file_documents_load_with_their_stems(tmp_path):
    (tmp_path / ".h.txt").write_text("abc", encoding="utf-8")
    (tmp_path / ".txt").write_text("BWA", encoding="utf-8")
    (tmp_path / ".txt.ann").write_text("T1\tTool 0 3\tBWA\n", encoding="utf-8")
    corpus = load_corpus_dir(tmp_path)
    assert corpus.doc_ids() == [".h", ".txt"]
    assert [len(d.entities) for d in corpus.documents] == [0, 1]


def test_crlf_text_round_trips_with_its_offsets(tmp_path):
    text = "BWA\r\nx\r\n"
    corpus = Corpus("c", (doc_of("d2", text, ent("T1", "Tool", 5, 6, text)),))
    write_corpus_dir(corpus, tmp_path / "c")
    assert (tmp_path / "c" / "d2.txt").read_bytes() == b"BWA\r\nx\r\n"
    assert load_corpus_dir(tmp_path / "c") == corpus


def test_atomic_write_creates_missing_parents(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(path, "x\r\ny")
    assert path.read_bytes() == b"x\r\ny"
    atomic_write_text(str(path), "z")
    assert path.read_bytes() == b"z"
    assert sorted(os.listdir(path.parent)) == ["out.txt"]


def test_atomic_write_leaves_no_temp_file_when_it_fails(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "taken", "x")
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=oct)
def test_written_files_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    (tmp_path / "old.txt").write_text("x", encoding="utf-8")
    os.chmod(tmp_path / "old.txt", 0o640)
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "new" / "a.txt", "x")
        atomic_write_text(tmp_path / "old.txt", "y")
        atomic_write_json(tmp_path / "b.json", {"a": 1})
        with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(old)
    for path in ("new/a.txt", "old.txt", "b.json", "plain.txt"):
        assert stat.S_IMODE((tmp_path / path).stat().st_mode) == mode, path
    assert sorted(os.listdir(tmp_path)) == ["b.json", "new", "old.txt", "plain.txt"]


def test_a_stale_temp_file_is_passed_over(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_io, "_temp_ids", iter([7, 8]))
    stale = tmp_path / f".out.txt.{os.getpid()}.7.tmp"
    stale.write_text("stale", encoding="utf-8")
    atomic_write_text(tmp_path / "out.txt", "x")
    assert (tmp_path / "out.txt").read_text("utf-8") == "x"
    assert stale.read_text("utf-8") == "stale"
    assert sorted(os.listdir(tmp_path)) == [stale.name, "out.txt"]


class _Count(enum.IntEnum):
    ONE = 1


class _Ratio(float, enum.Enum):
    HALF = 0.5


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 64, -(10 ** 40), 0]),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    st.text(), st.sampled_from([Provenance.SILVER, _Count.ONE, _Ratio.HALF]))
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
                  st.sampled_from([Provenance.GOLD, _Count.ONE, _Ratio.HALF]))
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300)
@given(_JSON_VALUES)
def test_dumps_json_equals_the_stdlib_indented_encoder(value):
    assert dumps_json(value) == oracle_dumps_json(value)


@pytest.mark.parametrize("value", [{1, 2}, [1, {"a": frozenset()}], {(1, 2): 0},
                                   {"a": {b"k": 1}}, object()])
def test_dumps_json_rejects_what_the_stdlib_rejects(value):
    with pytest.raises(TypeError) as want:
        oracle_dumps_json(value)
    with pytest.raises(TypeError) as got:
        dumps_json(value)
    assert str(got.value) == str(want.value)


def _five_thousand_names():
    names = "".join(f"tool{i:05d}x\n" for i in range(5000))
    return build_gazetteer(ingest("custom", names) + ingest("bioconda", names[:30000]))


def test_a_gazetteer_file_is_written_below_two_and_a_half_times_its_size(tmp_path):
    # From a built gazetteer to the file: the rows, their one join and the
    # encoded bytes, about 2.36x.  Row dicts through dumps_json, whose
    # indented encoder holds a string per token, take 8.3x, and adding head
    # and tail to the joined rows with "+" took 4.36x.
    gaz = _five_thousand_names()
    path = tmp_path / "gaz.json"
    tracemalloc.start()
    try:
        atomic_write_text(path, gaz.to_json_text())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text("utf-8") == oracle_dumps_json(
        oracle_gazetteer_json(gaz.entries, gaz.normalization)) + "\n"
    assert size > 500_000 and peak <= 2.5 * size


def test_a_loaded_corpus_keeps_under_390_bytes_per_entity_beside_its_text(tmp_path):
    # One tuple per entity, fragment and span, plus the id and surface
    # strings: about 364 B on this corpus, against 417 B while the records
    # were frozen dataclasses.
    write_corpus_dir(synthetic_table1_corpus(), tmp_path)
    load_corpus_dir(tmp_path)    # module-level caches are filled once, not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = load_corpus_dir(tmp_path)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entities = sum(len(doc.entities) for doc in corpus.documents)
    text = sum(sys.getsizeof(doc.text) for doc in corpus.documents)
    assert entities == 11308
    assert (kept - text) / entities < 390


def test_a_canonically_ordered_corpus_is_loaded_and_scored_without_sort_keys(
        tmp_path, monkeypatch):
    corpus = synthetic_table1_corpus()
    assert all(_extents_increase(doc.entities) for doc in corpus.documents)
    write_corpus_dir(corpus, tmp_path)
    calls = []
    sort_key = Entity.sort_key
    monkeypatch.setattr(Entity, "sort_key", lambda e: calls.append(e) or sort_key(e))
    loaded = load_corpus_dir(tmp_path)
    assert loaded.documents == corpus.documents
    assert score(loaded, corpus, MatchMode.STRICT).overall.f1 == 1.0
    assert calls == []
    # An entity out of order is sorted with keys.
    doc = corpus.documents[0]
    reordered = doc.entities[1:] + doc.entities[:1]
    assert Document(doc.doc_id, doc.text, reordered).entities == doc.entities
    assert calls
