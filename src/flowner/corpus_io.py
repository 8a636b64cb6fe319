"""Filesystem plumbing: corpus directories, atomic writes, JSON helpers.

A corpus directory holds paired ``<id>.txt`` / ``<id>.ann`` files; a .txt
without a .ann is an unannotated document.  Files are read and written
byte-exact as UTF-8, with no newline translation, so offsets count the
characters of a file as stored and a CRLF text reads back as written.
Every artifact this package writes goes through a temp-file-plus-rename
so a crashed run never leaves a half-written file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Mapping, Optional

from .model import Corpus, Document
from .standoff import StandoffParseError, parse_standoff, serialize_standoff


def atomic_write_text(path, content: str) -> None:
    """Write ``content`` as UTF-8 through a temp file renamed over ``path``,
    creating missing parent directories."""
    data = content.encode("utf-8")
    directory, name = os.path.split(os.fspath(path))
    directory = directory or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, data) -> None:
    atomic_write_text(path, json.dumps(data, ensure_ascii=False, indent=2) + "\n")


def _read_text(path, error: Callable[[str, str, int], Exception]) -> str:
    """The file's bytes decoded as UTF-8, without newline translation; a
    byte that is not UTF-8 raises ``error(reason, str(path), line)``, line
    counting from 1."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        raise error(f"not UTF-8: byte 0x{raw[at]:02x} at offset {at}",
                    str(path), raw.count(b"\n", 0, at) + 1) from None


def read_json(path, error: Callable[..., ValueError]):
    """Parse a JSON file; invalid JSON or UTF-8 raises ``error(reason, path=path)``."""
    text = _read_text(path, lambda reason, _path, line: error(f"{reason} (line {line})",
                                                              path=path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc.msg} at line {exc.lineno} "
                    f"column {exc.colno}", path=path) from None


def _stem(path: str) -> str:
    """``Path(path).stem``: the file name less its last suffix, where a
    leading dot does not start a suffix (``.txt`` is its own stem)."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def document_paths(path) -> list[tuple[str, str]]:
    """The ``(txt, ann)`` path pairs of a corpus directory, by file name.

    The documents are the entries whose names end in ``.txt``, dot-files
    included, sorted as ``sorted(Path(path).glob("*.txt"))`` sorts them;
    each pairs with the ``.ann`` that ``Path.with_suffix`` would name.
    """
    root = str(Path(path))
    if not os.path.isdir(root):
        raise FileNotFoundError(f"corpus directory not found: {root}")
    txts = sorted(name for name in os.listdir(root) if name.endswith(".txt"))
    return [(os.path.join(root, name), os.path.join(root, _stem(name) + ".ann"))
            for name in txts]


def load_document(txt_path, ann_path=None,
                  qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                  ) -> Document:
    """Parse one document; with no file at ``ann_path`` it has no
    annotations.  A file that is not UTF-8 raises ``StandoffParseError``
    located by the file's path and line."""
    text = _read_text(txt_path, StandoffParseError)
    ann = ""
    if ann_path is not None:
        try:
            ann = _read_text(ann_path, StandoffParseError)
        except FileNotFoundError:
            pass
    return parse_standoff(ann, text, _stem(os.fspath(txt_path)), qualifiers=qualifiers)


def load_corpus_dir(path, qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                    ) -> Corpus:
    """Load every ``<id>.txt`` (with its ``<id>.ann``, if present)."""
    documents = [load_document(txt, ann, qualifiers=qualifiers)
                 for txt, ann in document_paths(path)]
    return Corpus(name=Path(path).name, documents=tuple(documents))


def write_corpus_dir(corpus: Corpus, path) -> None:
    """Write ``<id>.txt`` / ``<id>.ann`` pairs, each atomically."""
    root = os.fspath(path)
    os.makedirs(root, exist_ok=True)
    for doc in corpus.documents:
        ann, text = serialize_standoff(doc)
        base = os.path.join(root, doc.doc_id)
        atomic_write_text(base + ".txt", text)
        atomic_write_text(base + ".ann", ann)
