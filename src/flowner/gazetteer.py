"""Tool-name vocabulary built from knowledge-base dumps.

Four registry dump shapes are understood (JSON records with a name field,
package-index name lists, container-image listings, plain name lists) plus
a ``custom`` adapter for locally curated lists.  Names are aggregated
case-insensitively, keeping the first-seen casing as the canonical form,
then filtered: very short names, pure numbers and names colliding with a
shipped common-English-word list all poison dictionary tagging and are
removed (counts recorded, policy configurable).  Adapters read dump files
from disk; fetching live registries is out of scope here so runs stay
reproducible and offline.

A :class:`VocabEntry` is a record like the model's (see
:mod:`flowner.model`).  A name seen once keeps the very entry that
:func:`ingest` returned; only a merge builds a new one.

An entry's ``sources`` is an immutable frozenset that entries share: every
entry ingested from one dump holds the same set, a merge keeps one object
per distinct union, and loading a gazetteer file builds one set per
distinct ``sources`` list.  A 20k-name gazetteer so holds a handful of sets,
not one per name.  A gazetteer file that repeats a key is an error, not a
silent overwrite.

The file is written from :meth:`Gazetteer.to_json_text`, byte-identical to
``dumps_json`` of ``{"normalization": ..., "entries": [...]}``, one row
``{"key", "canonical", "kind", "sources"}`` per entry with its sources
sorted, plus a newline.  It is built from one row template per entry,
filled with the stdlib's string escaper, one ``dumps_json`` per distinct
``sources`` set and a single join, without a dict per row.  It is the one
JSON file not written by ``dumps_json`` itself, for speed at tens of
thousands of names.  :meth:`Gazetteer.to_json_dict` is that text parsed.
"""

from __future__ import annotations

import io
import json
import re
from collections import namedtuple
from functools import partial
from importlib import resources
from typing import Iterable, Mapping, Optional, Sequence

from . import corpus_io
from .model import InputError

SOURCE_KINDS = ("biotools", "bioconda", "biocontainers", "bioweb", "custom")
TOOL_NAME = "tool_name"
BINARY_NAME = "binary_name"

_NUMERIC_RE = re.compile(r"^\d+(?:[.,]\d+)*$")
_ENTRY_SHAPE = ("entry must be an object of exactly a string key, a non-empty string "
                "canonical, a string kind and a list of string sources")
# One entry of the file as dumps_json indents it, and the text around them.
_ROW = ('    {\n      "key": %s,\n      "canonical": %s,\n      "kind": %s,\n'
        '      "sources": %s\n    }')
_HEAD = '{\n  "normalization": %s,\n  "entries": ['
_TAIL = "\n  ]\n}\n"


class MalformedDump(InputError):
    """A dump, word-list or gazetteer file that cannot be used, located by
    file and ``"record N"`` (a dump record or gazetteer entry, from 0), by
    file and line (a byte that is not UTF-8), or by the file alone."""


class VocabEntry(namedtuple("VocabEntry", "canonical kind sources")):
    """One name.  A blank ``canonical`` is a ``ValueError``."""

    __slots__ = ()

    def __new__(cls, canonical: str, kind: str, sources: frozenset[str]) -> "VocabEntry":
        if not canonical.strip():
            raise ValueError("vocab entry name is empty")
        return tuple.__new__(cls, (canonical, kind, sources))


# An entry whose name is already known to be stripped and non-blank.
_checked_entry = partial(tuple.__new__, VocabEntry)


def _line_names(payload: str) -> Iterable[tuple[int, str]]:
    # A dump is read untranslated; newline=None ends lines at CRLF, CR or LF
    # only, as an editor does (str.splitlines also breaks at \f, NEL, U+2028...).
    for line_no, line in enumerate(io.StringIO(payload, newline=None), start=1):
        name = line.strip()
        if name and not name.startswith("#"):
            yield line_no, name


def _ingest_json_records(payload: str, sources: frozenset[str]) -> list[VocabEntry]:
    try:
        records = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise MalformedDump(f"payload is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise MalformedDump("payload must be a JSON array of records")
    entries = []
    for idx, record in enumerate(records):
        if not isinstance(record, dict):
            raise MalformedDump("record is not an object", where=f"record {idx}")
        name = record.get("name")
        if not isinstance(name, str) or not name.strip():
            raise MalformedDump("record has no usable 'name' field", where=f"record {idx}")
        # A line break would split the name in the one-name-per-line vocabulary.
        if "\n" in name or "\r" in name:
            raise MalformedDump("line break in 'name'", where=f"record {idx}")
        entries.append(_checked_entry((name.strip(), TOOL_NAME, sources)))
        binaries = record.get("binaries", [])
        if not isinstance(binaries, list):
            raise MalformedDump("'binaries' must be a list of names", where=f"record {idx}")
        for binary in binaries:
            if not isinstance(binary, str) or not binary.strip():
                raise MalformedDump("empty name in 'binaries'", where=f"record {idx}")
            if "\n" in binary or "\r" in binary:
                raise MalformedDump("line break in 'binaries'", where=f"record {idx}")
            entries.append(_checked_entry((binary.strip(), BINARY_NAME, sources)))
    return entries


def _ingest_lines(payload: str, sources: frozenset[str], kind: str) -> list[VocabEntry]:
    return [_checked_entry((name, kind, sources)) for _line_no, name in _line_names(payload)]


def _ingest_images(payload: str, sources: frozenset[str]) -> list[VocabEntry]:
    entries = []
    for line_no, image in _line_names(payload):
        name = image.rsplit("/", 1)[-1].split(":", 1)[0].split("@", 1)[0].strip()
        if not name:
            raise MalformedDump(f"cannot extract a name from image {image!r}",
                                where=line_no)
        entries.append(_checked_entry((name, BINARY_NAME, sources)))
    return entries


def ingest(source_kind: str, payload: str, path=None) -> list[VocabEntry]:
    """Extract vocab entries from one dump; a :class:`MalformedDump` names
    ``path`` and the record.

    biotools: JSON records, ``name`` (tool) plus an optional ``binaries`` list;
    bioconda: package index, one binary name per line;
    biocontainers: image listing, last path component minus tag;
    bioweb / custom: one tool name per line.

    Every entry holds the same ``frozenset({source_kind})``.
    """
    sources = frozenset({source_kind})
    try:
        if source_kind == "biotools":
            return _ingest_json_records(payload, sources)
        if source_kind == "bioconda":
            return _ingest_lines(payload, sources, BINARY_NAME)
        if source_kind == "biocontainers":
            return _ingest_images(payload, sources)
        if source_kind in ("bioweb", "custom"):
            return _ingest_lines(payload, sources, TOOL_NAME)
    except MalformedDump as exc:
        raise MalformedDump(exc.reason, path, exc.where) from None
    raise ValueError(f"unknown source kind {source_kind!r}, expected one of {SOURCE_KINDS}")


def common_words(text: str) -> frozenset[str]:
    """A common-word list, one word per line, case-folded; blank lines and
    lines starting with ``#`` (after leading space) are skipped."""
    return frozenset(word.casefold() for _line_no, word in _line_names(text))


def shipped_common_words() -> frozenset[str]:
    return common_words(
        resources.files("flowner.data").joinpath("common_words.txt").read_text("utf-8"))


class Gazetteer(namedtuple("Gazetteer", "entries normalization")):
    """Deduplicated name table keyed by case-folded name; its length is
    its entry count."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        """The file's data, as :meth:`from_json_dict` reads it: the parsed
        :meth:`to_json_text`."""
        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        """The file's text: ``dumps_json`` of the normalization and a row
        per entry, its sources sorted, plus a newline, built straight from
        the entries.

        Each entry is one ``%``-format of a fixed row template, its
        strings escaped by ``json.encoder.encode_basestring``.  Each
        distinct ``sources`` set is sorted and written once by
        ``dumps_json``, as is ``normalization``, then re-indented to its
        depth.  The rows are joined once, with the head on the first and
        the tail on the last, so the text is not copied again.  Keys,
        names and kinds must be strings.
        """
        encode, dumps = json.encoder.encode_basestring, corpus_io.dumps_json
        distinct = {sources for _name, _kind, sources in self.entries.values()}
        # dumps_json escapes every line break inside a string, so each one
        # in its text is indentation, moved here to the nesting depth.
        shown = {sources: dumps(sorted(sources)).replace("\n", "\n      ")
                 for sources in distinct}
        rows = [_ROW % (encode(key), encode(canonical), encode(kind), shown[sources])
                for key, (canonical, kind, sources) in self.entries.items()]
        head = _HEAD % dumps(dict(self.normalization)).replace("\n", "\n  ")
        if not rows:
            return head + "]\n}\n"
        rows[0] = head + "\n" + rows[0]
        rows[-1] += _TAIL
        return ",\n".join(rows)

    @classmethod
    def from_json_dict(cls, data: dict, path=None) -> "Gazetteer":
        """Read :meth:`to_json_dict` output; a :class:`MalformedDump` names
        ``path`` and, for an entry at fault (a repeated key among them), its
        index.  The top level is checked by :func:`corpus_io.check_fields`:
        ``entries`` is required and ``normalization`` optional.  Entries
        with equal ``sources`` lists share one frozenset."""
        corpus_io.check_fields(data, MalformedDump, path, None, ("entries",), ("normalization",))
        if not isinstance(data["entries"], list):
            raise MalformedDump("expected a JSON object with an 'entries' list", path)
        normalization = data.get("normalization", {})
        if not isinstance(normalization, Mapping):
            raise MalformedDump("'normalization' must be a JSON object", path)
        entries: dict[str, VocabEntry] = {}
        shared: dict[tuple, frozenset[str]] = {}
        for idx, row in enumerate(data["entries"]):
            try:
                key, canonical, kind, sources = (row["key"], row["canonical"], row["kind"],
                                                 row["sources"])
                if not (len(row) == 4 and type(key) is type(canonical) is type(kind) is str
                        and type(sources) is list and canonical.strip()):
                    raise TypeError
                listed = tuple(sources)
                source_set = shared.get(listed)  # TypeError if a source is unhashable
                if source_set is None:
                    "".join(listed)  # TypeError unless every source is a string
                    source_set = shared[listed] = frozenset(listed)
            except (KeyError, TypeError):
                raise MalformedDump(_ENTRY_SHAPE, path, f"record {idx}") from None
            if key in entries:
                raise MalformedDump(f"duplicate key {key!r}", path, f"record {idx}")
            # A line break would split the name in the one-name-per-line vocabulary.
            if "\n" in canonical or "\r" in canonical:
                raise MalformedDump("line break in 'canonical'", path, f"record {idx}")
            entries[key] = _checked_entry((canonical, kind, source_set))
        return cls(entries=dict(sorted(entries.items())), normalization=normalization)


def build_gazetteer(entries: Sequence[VocabEntry], *, min_length: int = 2,
                    drop_numeric: bool = True, drop_common_words: bool = True,
                    common_words: Optional[frozenset[str]] = None) -> Gazetteer:
    """Merge raw entries case-insensitively and apply the name filters.

    First-seen casing becomes canonical; sources are unioned; a merged
    name seen as both tool and binary counts as a tool.  Names shorter
    than ``min_length``, pure numbers (``drop_numeric``) and, with
    ``drop_common_words``, case-folded ``common_words`` (None: the shipped
    list) are dropped.  Filter decisions are tallied in the normalization
    record.
    """
    common = common_words if common_words is not None else (
        shipped_common_words() if drop_common_words else frozenset())

    merged: dict[str, VocabEntry] = {}
    interned: dict[frozenset[str], frozenset[str]] = {}
    for entry in entries:
        canonical = entry.canonical
        name = canonical.strip()
        key = name.casefold()
        prior = merged.get(key)
        if prior is None:
            # ingest strips names, so a name seen once keeps its own entry
            merged[key] = entry if name == canonical else VocabEntry(name, entry.kind,
                                                                      entry.sources)
        else:
            kind = TOOL_NAME if TOOL_NAME in (prior.kind, entry.kind) else BINARY_NAME
            union = prior.sources | entry.sources
            merged[key] = VocabEntry(prior.canonical, kind, interned.setdefault(union, union))

    kept: dict[str, VocabEntry] = {}
    filtered = {"too_short": 0, "numeric": 0, "common_word": 0}
    for key in sorted(merged):
        if len(key) < min_length:
            filtered["too_short"] += 1
        elif drop_numeric and _NUMERIC_RE.match(key):
            filtered["numeric"] += 1
        elif drop_common_words and key in common:
            filtered["common_word"] += 1
        else:
            kept[key] = merged[key]

    normalization = {
        "min_length": min_length,
        "drop_numeric": drop_numeric,
        "drop_common_words": drop_common_words,
        "filtered": filtered,
        "kept": len(kept),
    }
    return Gazetteer(entries=kept, normalization=normalization)


def vocab_lines(gaz: Gazetteer, split_multiword: bool = False) -> list[str]:
    """Vocabulary lines: canonical names sorted case-insensitively.

    With ``split_multiword``, whitespace-separated parts of multi-word
    names are added as extra lines (vocabulary injection operates on
    tokens); the whole names stay, and parts are deduplicated
    case-insensitively against everything already present.
    """
    seen = {e.canonical.casefold(): e.canonical for e in gaz.entries.values()}
    if split_multiword:
        for entry in gaz.entries.values():
            for part in entry.canonical.split():
                seen.setdefault(part.casefold(), part)
    return sorted(seen.values(), key=lambda s: (s.casefold(), s))


def export_vocab(gaz: Gazetteer, path, split_multiword: bool = False) -> int:
    """Write the vocabulary file: one name per line, UTF-8, LF terminators.
    Returns the number of lines written."""
    lines = vocab_lines(gaz, split_multiword)
    corpus_io.atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)
