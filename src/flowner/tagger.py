"""Deterministic gazetteer + rule tagger, silver annotation and corpus fusion.

The dictionary pass matches gazetteer names (and the rule set's fixed
lists) at word boundaries, longest name first at every position, both
exactly and under a case fold.  A :class:`TaggerPredictor` holds the
dictionary and is built once per run; a scan costs a few hash lookups per
word start, whatever the dictionary size.  The fold maps each character on
its own and keeps the length: ``c.casefold()`` if that is one character,
else ``c.lower()`` if that is one character, else ``c`` (so ``\u1e9e``
folds to ``\u00df``).  A folded hit takes the label of the first
dictionary surface with the same ``casefold()``.

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
annotation layer; nested predictions only ever come from models, whose
output :func:`read_predictions` reads, as an ``.ann`` directory or JSONL,
into a silver corpus.
"""

from __future__ import annotations

import io
import json
import re
from bisect import bisect_left, insort
from collections import Counter, defaultdict, namedtuple
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .corpus_io import _read_text, check_fields, read_json
from .gazetteer import Gazetteer
from .model import (Corpus, Document, Entity, EntityLabel, InputError, Provenance,
                    Span, validate_document)
from .schema import BIOTOFLOW
from .standoff import StandoffParseError, _norm_space, parse_standoff


class MalformedRules(InputError):
    """A rule set that cannot be used, located by rules file and, for a
    field's value, by its key."""


def _strings(value, key: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)) or \
            not all(isinstance(v, str) for v in value):
        raise MalformedRules("expected a list of strings", where=key)
    return tuple(value)


class RuleSet(namedtuple("RuleSet", "version_patterns biblio_patterns fixed_lists")):
    """Regex patterns and fixed surface lists for the rule pass.

    Fields are checked at construction (a list of strings each, non-empty
    surfaces, fixed lists keyed by workflow-schema labels, compilable
    patterns), so a broken data file fails fast with
    :class:`MalformedRules` naming the key.  Shipped defaults live in
    ``data/default_rules.json`` and can be edited without code changes.
    """

    __slots__ = ()

    def __new__(cls, version_patterns: Sequence[str] = (), biblio_patterns: Sequence[str] = (),
                fixed_lists: Mapping[str, Sequence[str]] = MappingProxyType({})) -> "RuleSet":
        if not isinstance(fixed_lists, Mapping):
            raise MalformedRules("expected an object of lists", where="fixed_lists")
        fixed_lists = {base: _strings(surfaces, f"fixed_lists.{base}")
                       for base, surfaces in fixed_lists.items()}
        for base, surfaces in fixed_lists.items():
            if base not in BIOTOFLOW.labels:
                raise MalformedRules("not a label of the workflow schema",
                                     where=f"fixed_lists.{base}")
            if not all(surfaces):
                raise MalformedRules("empty surface", where=f"fixed_lists.{base}")
        checked = []
        for key, patterns in (("version_patterns", version_patterns),
                              ("biblio_patterns", biblio_patterns)):
            checked.append(_strings(patterns, key))
            for i, pattern in enumerate(checked[-1]):
                try:
                    re.compile(pattern)
                except re.error as exc:
                    raise MalformedRules(f"invalid regex {pattern!r}: {exc}",
                                         where=f"{key}[{i}]") from None
        return tuple.__new__(cls, (*checked, fixed_lists))


def ruleset_from_json(data: dict, path) -> RuleSet:
    """Build a rule set from parsed JSON, a JSON object whose keys are
    :class:`RuleSet` fields (:func:`corpus_io.check_fields`); every fault
    names ``path``, and a fault of a field's value names its key."""
    check_fields(data, MalformedRules, path, None, optional=RuleSet._fields)
    try:
        return RuleSet(**data)
    except MalformedRules as exc:
        raise MalformedRules(exc.reason, path, exc.where) from None


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


_FOLD_BLOCK = 512  # characters folded together when some character expands


def _fold(s: str) -> str:
    """Fold each character on its own, keeping the length (see the module doc)."""
    folded = s.casefold()
    # casefold() works one character at a time, so when no character expands
    # it already is the per-character fold: the same holds for each block.
    # str.translate is several times slower, so it folds only the blocks in
    # which some character expands.
    if len(folded) == len(s):
        return folded
    blocks = []
    for i in range(0, len(s), _FOLD_BLOCK):
        block = s[i:i + _FOLD_BLOCK]
        folded = block.casefold()
        blocks.append(folded if len(folded) == len(block) else block.translate(_FOLD_TABLE))
    return "".join(blocks)


_WORD = re.compile(r"\w")
_WORD_START = re.compile(r"(?<!\w).", re.DOTALL)  # any character not after \w


class TaggerPredictor:
    """The built-in tagger as a predictor: the dictionary (gazetteer names
    plus fixed lists) and the rule regexes, compiled once and applied to
    any number of documents.  ``rules`` defaults to :func:`default_ruleset`."""

    def __init__(self, gaz: Optional[Gazetteer], rules: Optional[RuleSet] = None):
        rules = rules if rules is not None else default_ruleset()
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

    def __call__(self, doc: Document) -> tuple[Entity, ...]:
        return tag(doc.text, self)


def tag(doc_text: str, tagger: TaggerPredictor) -> tuple[Entity, ...]:
    """Tag one text; returns a flat set of entities, ids T1..Tn by offset."""
    candidates = tagger.candidates(doc_text)
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


class MalformedPrediction(InputError):
    """Predictions that cannot be used: a JSONL record, located by file and
    line, or a doc_id that the corpus or the predictions lack, by the path."""


_JSONL_REQUIRED = ("doc_id", "label", "start", "end", "surface")
_LABEL_TOKEN = re.compile(r"\S+").fullmatch


def _jsonl_fault(rec: dict) -> Optional[str]:
    """Why the values of a JSONL record with the right fields do not make a
    prediction, or None."""
    for key in ("doc_id", "label", "surface"):
        if type(rec[key]) is not str:
            return f"{key!r} must be a string, got {rec[key]!r}"
    # The label and qualifier must read back from the .ann file silver writes.
    if not _LABEL_TOKEN(rec["label"]):
        return f"'label' must be one token without whitespace, got {rec['label']!r}"
    qualifier = rec.get("qualifier")
    if qualifier is not None and type(qualifier) is not str:
        return f"'qualifier' must be a string or null, got {qualifier!r}"
    if qualifier is not None and qualifier not in BIOTOFLOW.qualifiers.get(rec["label"], ()):
        return f"'qualifier' {qualifier!r} is not registered for label {rec['label']!r}"
    starts, ends = (rec[k] if type(rec[k]) is list else [rec[k]] for k in ("start", "end"))
    for key, offsets in (("start", starts), ("end", ends)):
        # type(), not isinstance: a JSON true is not an offset.
        if not all(type(offset) is int for offset in offsets):
            return f"{key!r} must be an integer or a list of integers, got {rec[key]!r}"
    if len(starts) != len(ends):
        return "start/end arrays differ in length"
    return None


def _check_doc_ids(predicted, corpus: Corpus, path) -> None:
    """Each prediction names a corpus document, and each document has one."""
    doc_ids = corpus.doc_ids()
    unknown = sorted(set(predicted).difference(doc_ids))
    if unknown:
        raise MalformedPrediction(
            f"prediction(s) for doc_id(s) not in the corpus, e.g. {unknown[:5]}", path)
    for doc_id in doc_ids:
        if doc_id not in predicted:
            raise MalformedPrediction(f"no prediction found for doc_id {doc_id!r}", path)


def read_predictions(path, corpus: Corpus) -> Corpus:
    """``corpus`` re-annotated, as silver, with the model predictions at
    ``path``: a ``.jsonl`` file, else a directory of ``<doc_id>.ann`` files
    (``FileNotFoundError`` if it is not one).  A doc_id without a document
    or a document without a prediction is a :class:`MalformedPrediction`.

    An ``.ann`` is parsed against its document's text, errors located by
    the file, and keeps its non-entity lines.  A JSONL record is a JSON
    object {doc_id, label, start, end, surface[, qualifier]}, its fields
    checked by :func:`corpus_io.check_fields`, start/end integers or
    equal-length arrays of them; the label is one token and the qualifier
    one the workflow schema registers for it, so the written corpus reads
    back.  A faulty record is a :class:`MalformedPrediction` at its line;
    then so is the first whose offsets or surface do not fit its text.  As
    in an ``.ann`` line, a surface fits if it equals the text's slices up to
    runs of whitespace, and the entity keeps the slices.
    """
    path = Path(path)
    read = _read_jsonl if path.suffix == ".jsonl" else _read_ann_dir
    return Corpus(corpus.name, read(path, corpus))


def _read_ann_dir(root: Path, corpus: Corpus) -> list[Document]:
    if not root.is_dir():
        raise FileNotFoundError(f"predictions directory not found: {root}")
    anns = {ann_path.stem: ann_path for ann_path in sorted(root.glob("*.ann"))}
    _check_doc_ids(anns, corpus, root)
    out = []
    for doc in corpus.documents:
        ann_path = str(anns[doc.doc_id])  # parse errors are located by the file
        parsed = parse_standoff(_read_text(ann_path, StandoffParseError), doc.text, ann_path)
        out.append(Document(doc.doc_id, doc.text, parsed.entities, Provenance.SILVER,
                            parsed.sidecar))
    return out


def _read_jsonl(path: Path, corpus: Corpus) -> list[Document]:
    per_doc: dict[str, list[Entity]] = {}
    records = []  # (line_no, doc_id, index in per_doc[doc_id]) in file order
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
            check_fields(rec, MalformedPrediction, path, line_no, _JSONL_REQUIRED,
                         ("qualifier",))
            fault = _jsonl_fault(rec)
            if fault is not None:
                raise MalformedPrediction(fault, path, line_no)
            starts, ends = (rec[k] if type(rec[k]) is list else [rec[k]]
                            for k in ("start", "end"))
            ents = per_doc.setdefault(rec["doc_id"], [])
            try:
                ents.append(Entity(f"T{len(ents) + 1}",
                                   EntityLabel(rec["label"], rec.get("qualifier")),
                                   tuple(map(Span, starts, ends)), rec["surface"]))
            except ValueError as exc:
                raise MalformedPrediction(str(exc), path, line_no) from None
            records.append((line_no, rec["doc_id"], len(ents) - 1))
    _check_doc_ids(per_doc, corpus, path)
    texts = {doc.doc_id: doc.text for doc in corpus.documents}
    for line_no, doc_id, i in records:
        ent, text = per_doc[doc_id][i], texts[doc_id]
        # As in a .ann line: equal up to runs of whitespace, keeping the slices.
        canonical = ent.slice_text(text)
        if ent.surface != canonical and _norm_space(ent.surface) == _norm_space(canonical):
            ent = per_doc[doc_id][i] = ent._replace(surface=canonical)
        violations = validate_document(Document(doc_id, text, (ent,)))
        if violations:
            raise MalformedPrediction(f"{violations[0].kind} in document {doc_id!r}: "
                                      f"{violations[0].message}", path, line_no)
    return [Document(doc.doc_id, doc.text, per_doc[doc.doc_id], Provenance.SILVER)
            for doc in corpus.documents]


def silver_annotate(corpus: Corpus,
                    predictor: Callable[[Document], Sequence[Entity]]) -> Corpus:
    """Re-annotate every document with predictor output, such as a
    :class:`TaggerPredictor`'s (model predictions are read by
    :func:`read_predictions`).

    Existing annotations and sidecar lines are discarded; output documents
    carry ``provenance=silver`` and are validated against their text (a
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


def _collisions(doc_ids: Iterable[str]) -> list[str]:
    """The doc_ids that occur more than once, sorted."""
    return sorted(i for i, n in Counter(doc_ids).items() if n > 1)


def provenance_counts(corpus: Corpus) -> Counter:
    return Counter(doc.provenance.value for doc in corpus.documents)


def fuse(sources: Sequence[tuple[Corpus, Optional[Provenance]]], for_training: bool = False,
         prefix_on_collision: bool = False) -> Corpus:
    """Concatenate the source corpora, preserving per-document provenance.

    Each source is a ``(corpus, role)`` pair; a role that is not None
    overrides the provenance of the corpus's documents.  doc_id collisions
    across sources raise unless ``prefix_on_collision``, in which case
    every doc_id is prefixed with its corpus name.  When the result is
    meant for training (``for_training``), at least one source must
    contribute gold documents.
    """
    if for_training:
        has_gold = any(
            role == Provenance.GOLD or
            (role is None and any(d.provenance == Provenance.GOLD for d in corpus.documents))
            for corpus, role in sources)
        if not has_gold:
            raise ValueError("training fusion needs at least one gold source")

    collisions = _collisions(d.doc_id for corpus, _role in sources for d in corpus.documents)
    prefix = bool(collisions) and prefix_on_collision
    if collisions and not prefix:
        raise DuplicateDocId(f"doc_id collision across sources, e.g. {collisions[:5]}")

    documents = []
    for corpus, role in sources:
        for doc in corpus.documents:
            provenance = doc.provenance if role is None else role
            doc_id = f"{corpus.name}:{doc.doc_id}" if prefix else doc.doc_id
            if (doc_id, provenance) != (doc.doc_id, doc.provenance):
                doc = Document(doc_id, doc.text, doc.entities, provenance, doc.sidecar)
            documents.append(doc)
    collisions = _collisions(d.doc_id for d in documents) if prefix else []
    if collisions:
        raise DuplicateDocId(f"doc_ids still collide after corpus-name prefixing, "
                             f"e.g. {collisions[:5]}")
    name = "+".join(corpus.name for corpus, _role in sources)
    return Corpus(name=name, documents=tuple(documents))
