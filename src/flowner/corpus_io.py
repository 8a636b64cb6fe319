"""Filesystem plumbing: corpus directories, atomic writes, JSON helpers.

A corpus directory holds paired ``<id>.txt`` / ``<id>.ann`` files; a .txt
without a .ann is an unannotated document.  Every artifact this package
writes goes through a temp-file-plus-rename so a crashed run never leaves
a half-written file behind.
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, data) -> None:
    atomic_write_text(path, json.dumps(data, ensure_ascii=False, indent=2) + "\n")


def _read_text(path, error: Callable[[str, str, int], Exception]) -> str:
    """The file read as UTF-8 text; a byte that is not UTF-8 raises
    ``error(reason, str(path), line)``, line counting from 1."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # A text-mode read() decodes the whole file in one call, so the
        # offending object is the file's bytes and ``exc.start`` an offset in it.
        raw, at = exc.object, exc.start
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


def load_document(txt_path, ann_path=None,
                  qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                  ) -> Document:
    """Parse one document; a file that is not UTF-8 raises ``StandoffParseError``
    located by the file's path and line."""
    txt_path = Path(txt_path)
    text = _read_text(txt_path, StandoffParseError)
    ann = ""
    if ann_path is not None and Path(ann_path).exists():
        ann = _read_text(ann_path, StandoffParseError)
    return parse_standoff(ann, text, txt_path.stem, qualifiers=qualifiers)


def load_corpus_dir(path, qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                    ) -> Corpus:
    """Load every ``<id>.txt`` (with its ``<id>.ann``, if present)."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    documents = [load_document(p, p.with_suffix(".ann"), qualifiers=qualifiers)
                 for p in sorted(root.glob("*.txt"))]
    return Corpus(name=root.name, documents=tuple(documents))


def write_corpus_dir(corpus: Corpus, path) -> None:
    """Write ``<id>.txt`` / ``<id>.ann`` pairs, each atomically."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for doc in corpus.documents:
        ann, text = serialize_standoff(doc)
        atomic_write_text(root / f"{doc.doc_id}.txt", text)
        atomic_write_text(root / f"{doc.doc_id}.ann", ann)
