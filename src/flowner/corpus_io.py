"""Filesystem plumbing: corpus directories, atomic writes, JSON helpers.

A corpus directory holds paired ``<id>.txt`` / ``<id>.ann`` files; a .txt
without a .ann is an unannotated document.  Files are read and written
byte-exact as UTF-8, with no newline translation, so offsets count the
characters of a file as stored and a CRLF text reads back as written.
Every artifact this package writes goes through a temp-file-plus-rename
so a crashed run never leaves a half-written file behind.  A written file
gets the mode that ``open(path, "w")`` gives a new file, 0o666 less the
umask, whether it is new or replaces an older one.

JSON artifacts (and the JSON that ``stats`` and ``convert`` print) have one
text form, written by :func:`dumps_json`: a 2-space indent, non-ASCII
characters as unescaped UTF-8, keys in insertion order.  It is
byte-identical to what ``json.dumps`` writes with ``ensure_ascii=False``
and an indent of 2.  The one artifact not written by :func:`dumps_json`
itself is the gazetteer file: ``Gazetteer.to_json_text`` fills a fixed
row template per entry with this module's escaper and renderer, and its
text is byte-identical to :func:`dumps_json` of ``Gazetteer.to_json_dict``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path
from typing import Callable, Mapping, Optional

from .model import Corpus, Document
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


_encode_str = json.encoder.encode_basestring   # the C escaper where it is built


def dumps_json(data) -> str:
    """What ``json.dumps(data, ensure_ascii=False)`` writes with an indent
    of 2, without its per-token chunks: each container's rendered items
    are joined once.

    The stdlib's indented encoder runs in Python and yields a string per
    token (about 440k for a 20k-name gazetteer) before joining them; here
    the intermediates are one string per container item.
    """
    return _render(data, "\n")


def _render(value, newline: str) -> str:
    # Exact dicts and lists first: no earlier check could match them.
    if type(value) is dict:
        return _dict_text(value, newline)
    if type(value) is list:
        return _list_text(value, newline)
    # Then the stdlib's order of checks, so that str, int and float
    # subclasses (enums among them) are written as their base type.
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        return _list_text(value, newline)
    if isinstance(value, dict):
        return _dict_text(value, newline)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Each item list is freed once joined, so a container's text is held at most
# twice: joined, and wrapped in its brackets.  Exact ``str`` keys and items
# are escaped in the loops, without a call to _render per string.

def _list_text(value, newline: str) -> str:
    if not value:
        return "[]"
    inner = newline + "  "
    try:
        # The escaper takes any str, subclasses included, and raises
        # TypeError for anything else: then render item by item.
        body = ("," + inner).join(map(_encode_str, value))
    except TypeError:
        body = ("," + inner).join([_encode_str(item) if type(item) is str
                                   else _render(item, inner) for item in value])
    return f"[{inner}{body}{newline}]"


def _dict_text(value, newline: str) -> str:
    if not value:
        return "{}"
    inner = newline + "  "
    body = ("," + inner).join([
        f"{_encode_str(key) if type(key) is str else _key_text(key)}: "
        f"{_encode_str(item) if type(item) is str else _render(item, inner)}"
        for key, item in value.items()])
    return f"{{{inner}{body}{newline}}}"


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key as the stdlib writes it: a string as itself, a number,
    bool or None as its JSON text in quotes."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_render(key, "")}"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


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
