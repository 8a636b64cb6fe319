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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Optional, Sequence

SOURCE_KINDS = ("biotools", "bioconda", "biocontainers", "bioweb", "custom")
TOOL_NAME = "tool_name"
BINARY_NAME = "binary_name"

_NUMERIC_RE = re.compile(r"^\d+(?:[.,]\d+)*$")
_ENTRY_SHAPE = ("entry must be an object of exactly a string key, a non-empty string "
                "canonical, a string kind and a list of string sources")


class MalformedDump(ValueError):
    """A dump or gazetteer file that cannot be used, located by file and
    record (a dump record or a gazetteer entry; None for the whole file)."""

    def __init__(self, reason: str, record_index: Optional[int] = None, path=None):
        record = None if record_index is None else f"record {record_index}"
        super().__init__(": ".join(str(p) for p in (path, record, reason) if p is not None))
        self.reason = reason
        self.record_index = record_index


@dataclass(frozen=True)
class VocabEntry:
    canonical: str
    kind: str
    sources: frozenset[str]

    def __post_init__(self) -> None:
        if not self.canonical.strip():
            raise ValueError("vocab entry name is empty")


def _line_names(payload: str) -> Iterable[tuple[int, str]]:
    # splitlines: a dump is read without newline translation, and its lines
    # may end in CRLF or a lone CR.
    for idx, line in enumerate(payload.splitlines()):
        name = line.strip()
        if name and not name.startswith("#"):
            yield idx, name


def _ingest_json_records(payload: str, source: str) -> list[VocabEntry]:
    try:
        records = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise MalformedDump(f"payload is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise MalformedDump("payload must be a JSON array of records")
    entries = []
    for idx, record in enumerate(records):
        if not isinstance(record, dict):
            raise MalformedDump("record is not an object", idx)
        name = record.get("name")
        if not isinstance(name, str) or not name.strip():
            raise MalformedDump("record has no usable 'name' field", idx)
        name = name.strip()
        entries.append(VocabEntry(name, TOOL_NAME, frozenset({source})))
        for binary in record.get("binaries", []):
            if not isinstance(binary, str) or not binary.strip():
                raise MalformedDump("empty name in 'binaries'", idx)
            binary = binary.strip()
            entries.append(VocabEntry(binary, BINARY_NAME, frozenset({source})))
    return entries


def _ingest_lines(payload: str, source: str, kind: str) -> list[VocabEntry]:
    return [VocabEntry(name, kind, frozenset({source}))
            for _idx, name in _line_names(payload)]


def _ingest_images(payload: str, source: str) -> list[VocabEntry]:
    entries = []
    for idx, image in _line_names(payload):
        name = image.rsplit("/", 1)[-1].split(":", 1)[0].split("@", 1)[0].strip()
        if not name:
            raise MalformedDump(f"cannot extract a name from image {image!r}", idx)
        entries.append(VocabEntry(name, BINARY_NAME, frozenset({source})))
    return entries


def ingest(source_kind: str, payload: str, path=None) -> list[VocabEntry]:
    """Extract vocab entries from one dump; a :class:`MalformedDump` names
    ``path`` and the record.

    biotools: JSON records, ``name`` (tool) plus optional ``binaries``;
    bioconda: package index, one binary name per line;
    biocontainers: image listing, last path component minus tag;
    bioweb / custom: one tool name per line.
    """
    try:
        if source_kind == "biotools":
            return _ingest_json_records(payload, source_kind)
        if source_kind == "bioconda":
            return _ingest_lines(payload, source_kind, BINARY_NAME)
        if source_kind == "biocontainers":
            return _ingest_images(payload, source_kind)
        if source_kind in ("bioweb", "custom"):
            return _ingest_lines(payload, source_kind, TOOL_NAME)
    except MalformedDump as exc:
        raise MalformedDump(exc.reason, exc.record_index, path) from None
    raise ValueError(f"unknown source kind {source_kind!r}, expected one of {SOURCE_KINDS}")


def shipped_common_words() -> frozenset[str]:
    text = resources.files("flowner.data").joinpath("common_words.txt").read_text("utf-8")
    return frozenset(word.casefold()
                     for _idx, word in _line_names(text))


@dataclass(frozen=True)
class BuildOptions:
    min_length: int = 2
    drop_numeric: bool = True
    drop_common_words: bool = True
    common_words: Optional[frozenset[str]] = None  # case-folded; None = shipped list


@dataclass(frozen=True)
class Gazetteer:
    """Deduplicated name table keyed by case-folded name."""

    entries: Mapping[str, VocabEntry]
    normalization: Mapping

    def __len__(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "normalization": dict(self.normalization),
            "entries": [
                {"key": key, "canonical": e.canonical, "kind": e.kind,
                 "sources": sorted(e.sources)}
                for key, e in self.entries.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, path=None) -> "Gazetteer":
        """Read :meth:`to_json_dict` output; a :class:`MalformedDump` names
        ``path`` and the index of the entry at fault."""
        if not isinstance(data, Mapping) or not isinstance(data.get("entries"), list):
            raise MalformedDump("expected a JSON object with an 'entries' list", path=path)
        entries = {}
        for idx, row in enumerate(data["entries"]):
            try:
                key, canonical, kind, sources = (row["key"], row["canonical"], row["kind"],
                                                 row["sources"])
                if not (len(row) == 4 and type(key) is type(canonical) is type(kind) is str
                        and type(sources) is list):
                    raise TypeError
                "".join(sources)  # TypeError unless every source is a string
                entries[key] = VocabEntry(canonical, kind, frozenset(sources))
            except (KeyError, TypeError, ValueError):
                raise MalformedDump(_ENTRY_SHAPE, idx, path) from None
        return cls(entries=dict(sorted(entries.items())),
                   normalization=data.get("normalization", {}))


def build_gazetteer(entries: Sequence[VocabEntry],
                    options: Optional[BuildOptions] = None) -> Gazetteer:
    """Merge raw entries case-insensitively and apply the name filters.

    First-seen casing becomes canonical; sources are unioned; a merged
    name seen as both tool and binary counts as a tool.  Filter decisions
    are tallied in the normalization record.
    """
    opts = options or BuildOptions()
    common = opts.common_words if opts.common_words is not None else (
        shipped_common_words() if opts.drop_common_words else frozenset())

    merged: dict[str, VocabEntry] = {}
    for entry in entries:
        name = entry.canonical.strip()
        key = name.casefold()
        prior = merged.get(key)
        if prior is None:
            merged[key] = VocabEntry(name, entry.kind, entry.sources)
        else:
            kind = TOOL_NAME if TOOL_NAME in (prior.kind, entry.kind) else BINARY_NAME
            merged[key] = VocabEntry(prior.canonical, kind, prior.sources | entry.sources)

    kept: dict[str, VocabEntry] = {}
    filtered = {"too_short": 0, "numeric": 0, "common_word": 0}
    for key in sorted(merged):
        if len(key) < opts.min_length:
            filtered["too_short"] += 1
        elif opts.drop_numeric and _NUMERIC_RE.match(key):
            filtered["numeric"] += 1
        elif opts.drop_common_words and key in common:
            filtered["common_word"] += 1
        else:
            kept[key] = merged[key]

    normalization = {
        "min_length": opts.min_length,
        "drop_numeric": opts.drop_numeric,
        "drop_common_words": opts.drop_common_words,
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


def export_vocab(gaz: Gazetteer, path, split_multiword: bool = False) -> None:
    """Write the vocabulary file: one name per line, UTF-8, LF terminators."""
    from .corpus_io import atomic_write_text
    content = "".join(line + "\n" for line in vocab_lines(gaz, split_multiword))
    atomic_write_text(path, content)
