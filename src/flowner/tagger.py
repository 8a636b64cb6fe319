"""Deterministic gazetteer + rule tagger, silver annotation and corpus fusion.

The dictionary pass matches gazetteer names (and the rule set's fixed
lists) at word boundaries, longest name first at every position, both
exactly and under a case fold.  A :class:`Matcher` holds the dictionary
and is built once per run; a scan costs a few hash lookups per word
start, whatever the dictionary size.  The fold maps each character on its
own and keeps the length: ``c.casefold()`` if that is one character, else
``c.lower()`` if that is one character, else ``c`` (so ``\u1e9e`` folds to
``\u00df``).  A folded hit takes the label of the first dictionary surface
with the same ``casefold()``.

This reproduces the case-insensitive regex scan it replaced, except at
characters that the regex engine relates differently.  U+0130 and U+0131
(dotted capital I, dotless small i) are the same letter as ``i`` to the
engine but casefold apart from it, so that scan dropped the position and
never tried a shorter name; the fold keeps them apart and the shorter name
matches (names ``["ia- b", "\u0130a-"]`` in ``"\u0130A- b"`` now give
``"\u0130A-"``).  U+0390/U+1FD3, U+03B0/U+1FE3 and U+FB05/U+FB06 have equal
casefolds and matched each other in that scan, but fold apart and no
longer do.

The rule pass adds version-string and citation-marker regex matches.
Overlapping candidates are resolved greedily by (longer span, earlier
start, dictionary before rule), so the output is a flat, non-overlapping
annotation layer; nested predictions only ever come from external
predictors.
"""

from __future__ import annotations

import io
import json
import re
from bisect import bisect_left, insort
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Mapping, Optional, Sequence

from .corpus_io import _read_text, read_json
from .gazetteer import Gazetteer
from .model import (Corpus, Document, Entity, EntityLabel, Provenance, Span,
                    validate_document)
from .schema import BIOTOFLOW
from .standoff import StandoffParseError, parse_standoff


class MalformedRules(ValueError):
    """A rule set that cannot be used, located by rules file and key."""

    def __init__(self, reason: str, key: Optional[str] = None, path=None):
        super().__init__(": ".join(str(p) for p in (path, key, reason) if p is not None))
        self.reason = reason
        self.key = key


def _strings(value, key: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)) or \
            not all(isinstance(v, str) for v in value):
        raise MalformedRules("expected a list of strings", key)
    return tuple(value)


@dataclass(frozen=True)
class RuleSet:
    """Regex patterns and fixed surface lists for the rule pass.

    Fields are checked at construction (a list of strings each, non-empty
    surfaces, fixed lists keyed by workflow-schema labels, compilable
    patterns), so a broken data file fails fast with
    :class:`MalformedRules` naming the key.  Shipped defaults live in
    ``data/default_rules.json`` and can be edited without code changes.
    """

    version_patterns: tuple[str, ...] = ()
    biblio_patterns: tuple[str, ...] = ()
    fixed_lists: Mapping[str, tuple[str, ...]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        fixed_lists = {} if self.fixed_lists is None else self.fixed_lists
        if not isinstance(fixed_lists, Mapping):
            raise MalformedRules("expected an object of lists", "fixed_lists")
        object.__setattr__(self, "fixed_lists", {
            base: _strings(surfaces, f"fixed_lists.{base}")
            for base, surfaces in fixed_lists.items()})
        for base, surfaces in self.fixed_lists.items():
            if base not in BIOTOFLOW.labels:
                raise MalformedRules("not a label of the workflow schema",
                                     f"fixed_lists.{base}")
            if not all(surfaces):
                raise MalformedRules("empty surface", f"fixed_lists.{base}")
        for key in ("version_patterns", "biblio_patterns"):
            patterns = _strings(getattr(self, key), key)
            object.__setattr__(self, key, patterns)
            for i, pattern in enumerate(patterns):
                try:
                    re.compile(pattern)
                except re.error as exc:
                    raise MalformedRules(f"invalid regex {pattern!r}: {exc}",
                                         f"{key}[{i}]") from None


_RULES_KEYS = ("version_patterns", "biblio_patterns", "fixed_lists")


def ruleset_from_json(data: Mapping, path) -> RuleSet:
    """Build a rule set from parsed JSON; every fault names ``path`` and its key."""
    try:
        if not isinstance(data, Mapping):
            raise MalformedRules("expected a JSON object")
        unknown = sorted(data.keys() - set(_RULES_KEYS))
        if unknown:
            raise MalformedRules(f"unknown key (expected one of {', '.join(_RULES_KEYS)})",
                                 unknown[0])
        return RuleSet(version_patterns=data.get("version_patterns", ()),
                       biblio_patterns=data.get("biblio_patterns", ()),
                       fixed_lists=data.get("fixed_lists", {}))
    except MalformedRules as exc:
        raise MalformedRules(exc.reason, exc.key, path) from None


def ruleset_from_file(path) -> RuleSet:
    return ruleset_from_json(read_json(path, MalformedRules), path)


def default_ruleset() -> RuleSet:
    text = resources.files("flowner.data").joinpath("default_rules.json").read_text("utf-8")
    return ruleset_from_json(json.loads(text), "default_rules.json")


_RANK_DICT_CASED = 0
_RANK_DICT_FOLDED = 1
_RANK_RULE = 2


class _FoldTable(dict):
    """``str.translate`` table from a code point to its fold, filled on first use."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        folded = next((f for f in (char.casefold(), char.lower()) if len(f) == 1), char)
        self[code] = folded
        return folded


_FOLD_TABLE = _FoldTable()


def _fold(s: str) -> str:
    """Fold each character on its own, keeping the length (see the module doc)."""
    folded = s.casefold()
    # casefold() works one character at a time, so when no character expands
    # it already is the per-character fold.
    return folded if len(folded) == len(s) else s.translate(_FOLD_TABLE)


_WORD = re.compile(r"\w")
_WORD_START = re.compile(r"(?<!\w).", re.DOTALL)  # any character not after \w


class Matcher:
    """The dictionary (gazetteer names plus fixed lists) and the rule
    regexes, compiled once and applied to any number of texts."""

    def __init__(self, gaz: Optional[Gazetteer], rules: RuleSet):
        exact: dict[str, str] = {}  # surface -> base; fixed lists override Tool
        if gaz is not None:
            for entry in gaz.entries.values():
                exact[entry.canonical] = "Tool"
        for base in sorted(rules.fixed_lists):
            for surface in rules.fixed_lists[base]:
                exact[surface] = base
        # A folded hit takes the label of the first-inserted surface with the
        # same casefold().  Surfaces with equal folds have equal casefolds,
        # but not the reverse ("ss" and "\u00df"), so key the labels by casefold.
        by_casefold: dict[str, str] = {}
        folded: dict[str, str] = {}
        for surface, base in exact.items():
            casefolded = surface.casefold()
            key = casefolded if len(casefolded) == len(surface) else \
                surface.translate(_FOLD_TABLE)  # _fold(surface), inlined for build time
            folded[key] = by_casefold.setdefault(casefolded, base)
        lengths: defaultdict[str, set[int]] = defaultdict(set)
        for key in folded:
            lengths[key[0]].add(len(key))
        self._exact = exact
        self._folded = folded
        self._lengths = {c: sorted(ls, reverse=True) for c, ls in lengths.items()}
        self._patterns = tuple((re.compile(pattern), label)
                               for patterns, label in ((rules.version_patterns, "Version"),
                                                       (rules.biblio_patterns, "Biblio"))
                               for pattern in patterns)

    def candidates(self, text: str) -> list[tuple[int, int, int, str]]:
        """(start, end, rank, label) for every dictionary and rule hit.

        At each start not preceded by a word character it emits the longest
        exact hit (rank 0) and the longest folded hit (rank 1), the latter
        only when its span differs; a hit must not be followed by a word
        character.  Rule hits (rank 2) are every non-empty regex match.
        """
        exact, folded, lengths = self._exact, self._folded, self._lengths
        folded_text = _fold(text)
        n = len(text)
        out = []
        for m in _WORD_START.finditer(text):
            start = m.start()
            by_length = lengths.get(folded_text[start])
            if by_length is None:
                continue
            folded_hit = exact_end = None
            for length in by_length:
                end = start + length
                if end > n:
                    continue
                label = folded.get(folded_text[start:end])
                if label is None or (end < n and _WORD.match(text, end)):
                    continue
                if folded_hit is None:
                    folded_hit = (end, label)
                label = exact.get(text[start:end])
                if label is not None:
                    out.append((start, end, _RANK_DICT_CASED, label))
                    exact_end = end
                    break
            if folded_hit is not None and folded_hit[0] != exact_end:
                out.append((start, folded_hit[0], _RANK_DICT_FOLDED, folded_hit[1]))
        for pattern, label in self._patterns:
            for m in pattern.finditer(text):
                if m.end() > m.start():
                    out.append((m.start(), m.end(), _RANK_RULE, label))
        return out


def tag(doc_text: str, matcher: Matcher) -> tuple[Entity, ...]:
    """Tag one text; returns a flat set of entities, ids T1..Tn by offset."""
    candidates = matcher.candidates(doc_text)
    candidates.sort(key=lambda c: (-(c[1] - c[0]), c[0], c[2], c[3]))

    chosen: list[tuple[int, int, str]] = []
    occupied: list[tuple[int, int]] = []
    for start, end, _rank, label in candidates:
        i = bisect_left(occupied, (start,))
        clash = (i < len(occupied) and occupied[i][0] < end) or \
                (i > 0 and occupied[i - 1][1] > start)
        if clash:
            continue
        insort(occupied, (start, end))
        chosen.append((start, end, label))

    chosen.sort()
    return tuple(
        Entity(id=f"T{i}", label=EntityLabel(label),
               fragments=(Span(start, end),), surface=doc_text[start:end])
        for i, (start, end, label) in enumerate(chosen, start=1)
    )


class MissingPrediction(KeyError):
    """An external predictor has no output for a requested doc_id."""


class MalformedPrediction(ValueError):
    """A JSONL prediction record that cannot be read, located by file and line."""

    def __init__(self, message: str, path, line_no: int):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


_JSONL_REQUIRED = ("doc_id", "label", "start", "end", "surface")
_JSONL_FIELDS = frozenset(_JSONL_REQUIRED + ("qualifier",))


class TaggerPredictor:
    """Adapts the built-in tagger to the predictor interface."""

    def __init__(self, gaz: Optional[Gazetteer], rules: Optional[RuleSet] = None):
        self.matcher = Matcher(gaz, rules if rules is not None else default_ruleset())

    def __call__(self, doc: Document) -> tuple[Entity, ...]:
        return tag(doc.text, self.matcher)


class ExternalPredictions:
    """Model predictions read from standoff files or JSONL, keyed by doc_id."""

    def __init__(self, ann_by_doc: Optional[Mapping[str, str]] = None,
                 entities_by_doc: Optional[Mapping[str, tuple[Entity, ...]]] = None):
        self._ann_by_doc = dict(ann_by_doc or {})
        self._entities_by_doc = dict(entities_by_doc or {})

    def __call__(self, doc: Document) -> tuple[Entity, ...]:
        if doc.doc_id in self._entities_by_doc:
            return self._entities_by_doc[doc.doc_id]
        if doc.doc_id in self._ann_by_doc:
            parsed = parse_standoff(self._ann_by_doc[doc.doc_id], doc.text, doc.doc_id)
            return parsed.entities
        raise MissingPrediction(doc.doc_id)

    @classmethod
    def from_dir(cls, path) -> "ExternalPredictions":
        """Read every ``<doc_id>.ann`` under a directory (parsed lazily,
        against the text of the document being annotated)."""
        from pathlib import Path
        ann_by_doc = {}
        for ann_path in sorted(Path(path).glob("*.ann")):
            ann_by_doc[ann_path.stem] = _read_text(ann_path, StandoffParseError)
        return cls(ann_by_doc=ann_by_doc)

    @classmethod
    def from_jsonl(cls, path) -> "ExternalPredictions":
        """Read JSONL records {doc_id, label, start, end, surface[, qualifier]};
        start/end may be equal-length arrays for discontinuous entities."""
        per_doc: dict[str, list[Entity]] = {}
        # newline=None splits lines as a text-mode read of the file would.
        with io.StringIO(_read_text(path, MalformedPrediction), newline=None) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedPrediction(f"invalid JSON: {exc.msg} at column {exc.colno}",
                                              path, line_no) from None
                if not isinstance(rec, dict):
                    raise MalformedPrediction("record is not a JSON object", path, line_no)
                missing = [k for k in _JSONL_REQUIRED if k not in rec]
                if missing:
                    raise MalformedPrediction(f"missing field(s) {', '.join(missing)}",
                                              path, line_no)
                unknown = sorted(rec.keys() - _JSONL_FIELDS)
                if unknown:
                    raise MalformedPrediction(f"unknown field(s) {', '.join(unknown)}",
                                              path, line_no)
                starts = rec["start"] if isinstance(rec["start"], list) else [rec["start"]]
                ends = rec["end"] if isinstance(rec["end"], list) else [rec["end"]]
                if len(starts) != len(ends):
                    raise MalformedPrediction("start/end arrays differ in length",
                                              path, line_no)
                try:
                    ents = per_doc.setdefault(rec["doc_id"], [])
                    ents.append(Entity(
                        id=f"T{len(ents) + 1}",
                        label=EntityLabel(rec["label"], rec.get("qualifier")),
                        fragments=tuple(Span(s, e) for s, e in zip(starts, ends)),
                        surface=rec["surface"]))
                except (TypeError, ValueError) as exc:
                    raise MalformedPrediction(str(exc), path, line_no) from None
        return cls(entities_by_doc={k: tuple(v) for k, v in per_doc.items()})


def silver_annotate(corpus: Corpus,
                    predictor: Callable[[Document], Sequence[Entity]]) -> Corpus:
    """Re-annotate every document with predictor output.

    Existing annotations are discarded; output documents carry
    ``provenance=silver`` and are validated against their text (a
    prediction whose surface disagrees with the text is a hard error).
    """
    out = []
    for doc in corpus.documents:
        entities = tuple(predictor(doc))
        silver = Document(doc_id=doc.doc_id, text=doc.text, entities=entities,
                          provenance=Provenance.SILVER, sidecar=())
        violations = validate_document(silver)
        if violations:
            raise ValueError("invalid prediction: " + "; ".join(map(str, violations)))
        out.append(silver)
    return Corpus(name=corpus.name, documents=tuple(out))


class DuplicateDocId(ValueError):
    pass


@dataclass(frozen=True)
class FusionSource:
    corpus: Corpus
    role: Optional[Provenance] = None  # overrides document provenance when set


@dataclass(frozen=True)
class FusionConfig:
    sources: tuple[FusionSource, ...]
    for_training: bool = False
    prefix_on_collision: bool = False


def provenance_counts(corpus: Corpus) -> Counter:
    return Counter(doc.provenance.value for doc in corpus.documents)


def fuse(config: FusionConfig) -> Corpus:
    """Concatenate the source corpora, preserving per-document provenance.

    doc_id collisions across sources raise unless prefixing is enabled,
    in which case every doc_id is prefixed with its corpus name.  When
    the result is meant for training (``for_training``), at least one
    source must contribute gold documents.
    """
    if config.for_training:
        has_gold = any(
            src.role == Provenance.GOLD or
            (src.role is None and any(d.provenance == Provenance.GOLD
                                      for d in src.corpus.documents))
            for src in config.sources)
        if not has_gold:
            raise ValueError("training fusion needs at least one gold source")

    ids = Counter(doc.doc_id for src in config.sources for doc in src.corpus.documents)
    collisions = sorted(i for i, n in ids.items() if n > 1)
    prefix = bool(collisions) and config.prefix_on_collision
    if collisions and not prefix:
        raise DuplicateDocId(f"doc_id collision across sources, e.g. {collisions[:5]}")

    documents = []
    for src in config.sources:
        for doc in src.corpus.documents:
            if src.role is not None and doc.provenance != src.role:
                doc = replace(doc, provenance=src.role)
            if prefix:
                doc = replace(doc, doc_id=f"{src.corpus.name}:{doc.doc_id}")
            documents.append(doc)
    if prefix and len({d.doc_id for d in documents}) != len(documents):
        raise DuplicateDocId("doc_ids still collide after corpus-name prefixing")
    name = "+".join(src.corpus.name for src in config.sources)
    return Corpus(name=name, documents=tuple(documents))
