"""Filesystem plumbing: corpus directories, atomic writes, JSON helpers.

A corpus directory holds paired ``<id>.txt`` / ``<id>.ann`` files; a .txt
without a .ann is an unannotated document, and a .ann without a .txt is
an error.  Files are read and written byte-exact as UTF-8, with no
newline translation, so offsets count the characters of a file as stored
and a CRLF text reads back as written.
Every artifact this package writes goes through a temp-file-plus-rename
so a crashed run never leaves a half-written file behind.  A written file
gets the mode that ``open(path, "w")`` gives a new file, 0o666 less the
umask, whether it is new or replaces an older one.

JSON artifacts (and the JSON that ``stats`` and ``convert`` print) have one
text form, :func:`dumps_json`: ``json.dumps`` with an indent of 2 and
non-ASCII characters as unescaped UTF-8, keys in insertion order.  The
gazetteer file is the one artifact built from a row template instead, for
speed at tens of thousands of names; ``Gazetteer.to_json_text`` writes it,
byte-identical to :func:`dumps_json` of the same data.

Every JSON record that a reader takes has its keys checked by
:func:`check_fields`, for one of three reasons: ``expected a JSON object``,
``missing field(s) a, b`` or ``unknown field(s) x, y (expected a, b, c)``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .model import Corpus, Document, InputError
from .standoff import StandoffParseError, parse_standoff, serialize_standoff


_temp_ids = itertools.count()  # process-wide: temp names differ across all callers
_TEMP_ATTEMPTS = 100  # every attempt tries a new name; only stale temp files collide
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _create_temp(directory: str, name: str) -> tuple[int, str]:
    """Create a new ``.{name}.*.tmp`` beside the target, with the mode
    ``open(path, "w")`` gives: 0o666 less the umask."""
    for _attempt in range(_TEMP_ATTEMPTS):
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{next(_temp_ids)}.tmp")
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temporary name for {name!r} in {directory}")


def atomic_write_text(path, content: str) -> None:
    """Write ``content`` as UTF-8 through a temp file renamed over ``path``,
    creating missing parent directories."""
    data = content.encode("utf-8")
    directory, name = os.path.split(os.fspath(path))
    directory = directory or "."
    try:
        fd, tmp = _create_temp(directory, name)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = _create_temp(directory, name)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, data) -> None:
    atomic_write_text(path, dumps_json(data) + "\n")


def dumps_json(data) -> str:
    """The one text form of a JSON artifact: a 2-space indent, non-ASCII
    characters unescaped."""
    return json.dumps(data, ensure_ascii=False, indent=2)


def _read_text(path, error: type[InputError]) -> str:
    """The file's bytes decoded as UTF-8, without newline translation; a
    byte that is not UTF-8 raises ``error(reason, path, line)``, lines ending
    at CRLF, CR or LF and counting from 1: ``path:line: not UTF-8: ...``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        ends = raw.count(b"\n", 0, at) + raw.count(b"\r", 0, at) - raw.count(b"\r\n", 0, at)
        raise error(f"not UTF-8: byte 0x{raw[at]:02x} at offset {at}", path, ends + 1) from None


def read_json(path, error: type[InputError]):
    """Parse a JSON file; a byte that is not UTF-8 raises ``error`` as
    :func:`_read_text` does, and invalid JSON raises ``error(reason, path)``."""
    text = _read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc.msg} at line {exc.lineno} "
                    f"column {exc.colno}", path) from None


def check_fields(obj, error: type[InputError], path, where,
                 required: Sequence[str] = (), optional: Sequence[str] = ()):
    """``obj`` if it is a JSON object with every ``required`` key and none
    outside ``required`` and ``optional``, else ``error(reason, path, where)``
    at the record ``where`` (None: the top level), missing and expected keys
    listed in declared order, unknown keys sorted."""
    if type(obj) is not dict:
        raise error("expected a JSON object", path, where)
    missing = [key for key in required if key not in obj]
    if missing:
        raise error(f"missing field(s) {', '.join(missing)}", path, where)
    expected = (*required, *optional)
    unknown = sorted(obj.keys() - set(expected))
    if unknown:
        raise error(f"unknown field(s) {', '.join(unknown)} (expected {', '.join(expected)})",
                    path, where)
    return obj


def _stem(path: str) -> str:
    """``Path(path).stem``: the file name less its last suffix, where a
    leading dot does not start a suffix (``.txt`` is its own stem)."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def document_paths(path) -> list[tuple[Optional[str], str]]:
    """The ``(txt, ann)`` path pairs of a corpus directory, by file name.

    The documents are the entries whose names end in ``.txt``, dot-files
    included, sorted as ``sorted(Path(path).glob("*.txt"))`` sorts them;
    each pairs with the ``.ann`` that ``Path.with_suffix`` would name.  An
    ``.ann`` that no document names comes first, as ``(None, ann)``, so
    that it is reported rather than ignored.
    """
    root = str(Path(path))
    if not os.path.isdir(root):
        raise FileNotFoundError(f"corpus directory not found: {root}")
    names = os.listdir(root)
    anns = {name: _stem(name) + ".ann" for name in names if name.endswith(".txt")}
    claimed = set(anns.values())
    orphans = sorted(name for name in names if name.endswith(".ann") and name not in claimed)
    return [(None, os.path.join(root, name)) for name in orphans] + \
        [(os.path.join(root, txt), os.path.join(root, ann)) for txt, ann in sorted(anns.items())]


def _read_document_file(path) -> str:
    """:func:`_read_text` of a document's file; a dangling symbolic link at
    ``path`` is a ``StandoffParseError`` that names it, not a
    ``FileNotFoundError``."""
    try:
        return _read_text(path, StandoffParseError)
    except FileNotFoundError:
        if os.path.lexists(path):
            raise StandoffParseError("dangling symbolic link", path) from None
        raise


def load_document(txt_path, ann_path=None,
                  qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                  ) -> Document:
    """Parse one document; with no file at ``ann_path`` it has no
    annotations.  A ``StandoffParseError`` is located by the path and line
    of the file at fault: a byte that is not UTF-8 in either file, a bad
    line of the ``.ann``, an ``.ann`` with no ``txt_path`` (None), or a
    ``.txt`` or ``.ann`` that is a dangling symbolic link.  The document's
    doc_id is the file stem."""
    if txt_path is None:
        raise StandoffParseError("annotations without a text: no .txt file names this .ann",
                                 ann_path)
    text = _read_document_file(txt_path)
    ann = ""
    if ann_path is not None:
        try:
            ann = _read_document_file(ann_path)
        except FileNotFoundError:
            pass
    try:
        return parse_standoff(ann, text, _stem(os.fspath(txt_path)), qualifiers=qualifiers)
    except StandoffParseError as exc:
        raise type(exc)(exc.reason, ann_path, exc.where) from None


def load_corpus_dir(path, qualifiers: Optional[Mapping[str, frozenset[str]]] = None,
                    ) -> Corpus:
    """Load every ``<id>.txt`` (with its ``<id>.ann``, if present); an
    ``.ann`` without its ``.txt`` is a ``StandoffParseError`` naming it."""
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
