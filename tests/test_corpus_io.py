import os

import pytest

from flowner.corpus_io import (atomic_write_text, document_paths, load_corpus_dir,
                               write_corpus_dir)
from flowner.model import Corpus
from util import doc_of, ent


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


def test_listing_a_missing_directory_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError, match="corpus directory not found"):
        document_paths(tmp_path / "nope")


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
