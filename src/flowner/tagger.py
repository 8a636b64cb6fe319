"""Deterministic gazetteer + rule tagger, silver annotation and corpus fusion.

The dictionary pass matches gazetteer names (and the rule set's fixed
lists) at word boundaries, longest alternative first at every position,
case-sensitively with a case-insensitive fallback.  The rule pass adds
version-string and citation-marker regex matches.  Overlapping candidates
are resolved greedily by (longer span, earlier start, dictionary before
rule), so the output is a flat, non-overlapping annotation layer; nested
predictions only ever come from external predictors.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Mapping, Optional, Sequence

from .gazetteer import Gazetteer
from .model import (Corpus, Document, Entity, EntityLabel, Provenance, Span,
                    validate_document)
from .standoff import parse_standoff


@dataclass(frozen=True)
class RuleSet:
    """Regex patterns and fixed surface lists for the rule pass.

    Patterns are compiled at construction, so a broken data file fails
    fast.  Shipped defaults live in ``data/default_rules.json`` and can
    be edited without code changes.
    """

    version_patterns: tuple[str, ...] = ()
    biblio_patterns: tuple[str, ...] = ()
    fixed_lists: Mapping[str, tuple[str, ...]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "version_patterns", tuple(self.version_patterns))
        object.__setattr__(self, "biblio_patterns", tuple(self.biblio_patterns))
        object.__setattr__(self, "fixed_lists",
                           {k: tuple(v) for k, v in (self.fixed_lists or {}).items()})
        for base, surfaces in self.fixed_lists.items():
            for s in surfaces:
                if not s:
                    raise ValueError(f"empty surface in fixed list {base!r}")
        for pattern in self.version_patterns + self.biblio_patterns:
            re.compile(pattern)  # fail fast on a broken data file


def ruleset_from_json(data: Mapping) -> RuleSet:
    return RuleSet(version_patterns=tuple(data.get("version_patterns", ())),
                   biblio_patterns=tuple(data.get("biblio_patterns", ())),
                   fixed_lists=data.get("fixed_lists", {}))


def ruleset_from_file(path) -> RuleSet:
    with open(path, encoding="utf-8") as fh:
        return ruleset_from_json(json.load(fh))


def default_ruleset() -> RuleSet:
    text = resources.files("flowner.data").joinpath("default_rules.json").read_text("utf-8")
    return ruleset_from_json(json.loads(text))


_RANK_DICT_CASED = 0
_RANK_DICT_FOLDED = 1
_RANK_RULE = 2


def _dictionary(gaz: Optional[Gazetteer], rules: RuleSet) -> dict[str, str]:
    """surface -> base label; fixed-list labels override the Tool default."""
    table: dict[str, str] = {}
    if gaz is not None:
        for entry in gaz.entries.values():
            table[entry.canonical] = "Tool"
    for base in sorted(rules.fixed_lists):
        for surface in rules.fixed_lists[base]:
            table[surface] = base
    return table


def _dict_candidates(text: str, table: dict[str, str],
                     ) -> list[tuple[int, int, int, str]]:
    """(start, end, rank, label) for every word-boundary dictionary hit.

    A lookahead wrapper makes the scan yield a candidate at every start
    position, longest alternative first, instead of consuming matches.
    """
    if not table:
        return []
    alternation = "|".join(re.escape(s)
                           for s in sorted(table, key=lambda s: (-len(s), s)))
    pattern = r"(?=((?<!\w)(?:" + alternation + r")(?!\w)))"
    folded = {}
    for surface, base in table.items():
        folded.setdefault(surface.casefold(), base)

    found: dict[tuple[int, int], tuple[int, str]] = {}
    for flags, rank in ((0, _RANK_DICT_CASED), (re.IGNORECASE, _RANK_DICT_FOLDED)):
        for m in re.finditer(pattern, text, flags):
            matched = m.group(1)
            span = (m.start(1), m.end(1))
            label = table.get(matched) if rank == _RANK_DICT_CASED else \
                folded.get(matched.casefold())
            if label is None:
                continue
            prior = found.get(span)
            if prior is None or rank < prior[0]:
                found[span] = (rank, label)
    return [(s, e, rank, label) for (s, e), (rank, label) in found.items()]


def _rule_candidates(text: str, rules: RuleSet) -> list[tuple[int, int, int, str]]:
    out = []
    for patterns, label in ((rules.version_patterns, "Version"),
                            (rules.biblio_patterns, "Biblio")):
        for pattern in patterns:
            for m in re.finditer(pattern, text):
                if m.end() > m.start():
                    out.append((m.start(), m.end(), _RANK_RULE, label))
    return out


def tag(doc_text: str, gaz: Optional[Gazetteer], rules: RuleSet) -> tuple[Entity, ...]:
    """Tag one text; returns a flat set of entities, ids T1..Tn by offset."""
    candidates = _dict_candidates(doc_text, _dictionary(gaz, rules))
    candidates.extend(_rule_candidates(doc_text, rules))
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
        self.gaz = gaz
        self.rules = rules if rules is not None else default_ruleset()

    def __call__(self, doc: Document) -> tuple[Entity, ...]:
        return tag(doc.text, self.gaz, self.rules)


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
            ann_by_doc[ann_path.stem] = ann_path.read_text(encoding="utf-8")
        return cls(ann_by_doc=ann_by_doc)

    @classmethod
    def from_jsonl(cls, path) -> "ExternalPredictions":
        """Read JSONL records {doc_id, label, start, end, surface[, qualifier]};
        start/end may be equal-length arrays for discontinuous entities."""
        per_doc: dict[str, list[Entity]] = {}
        with open(path, encoding="utf-8") as fh:
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
