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
from typing import Mapping, Optional

from .model import Corpus, Document, Provenance
from .standoff import parse_standoff, serialize_standoff


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


def load_document(txt_path, ann_path=None, doc_id: Optional[str] = None,
                  provenance: Provenance = Provenance.GOLD,
                  qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                  ) -> Document:
    txt_path = Path(txt_path)
    text = txt_path.read_text(encoding="utf-8")
    ann = ""
    if ann_path is not None and Path(ann_path).exists():
        ann = Path(ann_path).read_text(encoding="utf-8")
    return parse_standoff(ann, text, doc_id or txt_path.stem,
                          provenance=provenance, qualifiers=qualifiers)


def load_corpus_dir(path, name: Optional[str] = None,
                    provenance: Provenance = Provenance.GOLD,
                    qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                    ) -> Corpus:
    """Load every ``<id>.txt`` (with its ``<id>.ann``, if present)."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    documents = [load_document(p, p.with_suffix(".ann"), provenance=provenance,
                               qualifiers=qualifiers)
                 for p in sorted(root.glob("*.txt"))]
    return Corpus(name=name or root.name, documents=tuple(documents))


def write_corpus_dir(corpus: Corpus, path) -> None:
    """Write ``<id>.txt`` / ``<id>.ann`` pairs, each atomically."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for doc in corpus.documents:
        ann, text = serialize_standoff(doc)
        atomic_write_text(root / f"{doc.doc_id}.txt", text)
        atomic_write_text(root / f"{doc.doc_id}.ann", ann)
