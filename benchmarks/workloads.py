"""Seeded workload generators with planted ground truth.

Each generator writes the input files of one workload under a directory
and returns a :class:`Workload`: the CLI steps to run, the sizes of what
was generated, and the expected outputs the planted truth implies.  The
program under test only ever sees the generated files.

Every text is built from three kinds of pieces:

* filler words, none of which can trigger the tagger (no digits, no
  brackets, no URL, no gazetteer name, no fixed-list word, under any
  case);
* planted trigger segments (gazetteer names, fixed-list words, version
  strings, citation markers), each of which the default rule set tags as
  exactly one span with a known label;
* planted non-trigger entities made of filler words.

So the tagger's expected output is exactly the list of planted trigger
spans, and every count the checks compare against is known by
construction rather than recomputed with the program's own code.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# Published per-label occurrence counts of the 52-article corpus.
PAPER_COUNTS = {
    "Data": 2434, "Tool": 1482, "Description": 1300, "Biblio": 1251,
    "Method": 936, "WorkflowName": 851, "File": 780, "Parameter": 464,
    "Version": 454, "Hardware": 429, "Database": 288, "ManagementSystem": 243,
    "Container": 108, "ProgrammingLanguage": 104, "LibraryPackage": 101,
    "Environment": 83,
}
PAPER_DOCS = 52
PAPER_NESTED = 905          # 905 / 11308 = 0.080, the published ~8% nesting
SOFTCITE_DOCS = 1159

# Labels the default rule set produces from planted segments.
FIXED_LISTS = {
    "ProgrammingLanguage": ("Python", "Perl", "Java", "Bash", "Groovy", "R"),
    "ManagementSystem": ("Nextflow", "Snakemake", "Galaxy"),
}
TRIGGER_LABELS = {"Tool", "Version", "Biblio", *FIXED_LISTS}

ASCII_FILLER = tuple(
    "reads aligned genome pipeline workflow variant calling results cluster "
    "sample samples quality trimmed assembly annotation reference index "
    "mapping coverage depth contigs scaffolds expression matrix analysis "
    "sequencing library protocol output input files stored remote shared "
    "cohort tumour normal germline somatic filtered merged sorted compressed "
    "downstream upstream module container image nodes memory cores storage "
    "report figure table supplementary described performed applied executed "
    "parallel scheduled cloud local cluster grid batch jobs resources "
    "transcript gene isoform peak motif region interval window threshold "
    "default parameters options settings configured environment runtime".split())
# Non-ASCII filler: every word keeps a letter that no case folding maps to
# ASCII, so no fold can turn filler into a planted (ASCII) name.
UNICODE_FILLER = ("données", "génome", "ανάλυση", "последовательность",
                  "配列", "čeština", "Qualität", "naïve", "größe", "séquençage")
FILLER = ASCII_FILLER + UNICODE_FILLER

SPECIAL_NAMES = ("bwa-mem", "bwa", "STAR-Fusion", "STAR", "Picard Tools",
                 "Trim_Galore", "HTSeq-count", "MultiQC", "deepTools")
# Dump records the gazetteer build must filter: too short, numeric, common.
FILTERED_NAMES = ("X", "2019", "the")
EXPECTED_FILTERED = {"too_short": 1, "numeric": 1, "common_word": 1}

_CONSONANTS = "bdgkmnprtvz"
_VOWELS = "aeiou"
_ENDINGS = "xkz"
_TOKEN_RE = re.compile(r"\w+")


def _tokens(s: str) -> set[str]:
    return {t.casefold() for t in _TOKEN_RE.findall(s)}


FILLER_TOKENS = set().union(*(_tokens(w) for w in FILLER))
_FIXED_FOLDED = {s.casefold() for surfaces in FIXED_LISTS.values() for s in surfaces}
_RESERVED = FILLER_TOKENS | _FIXED_FOLDED | {"version", "versions", "v", "http", "https"}
assert not any(_tokens(n) & _RESERVED for n in SPECIAL_NAMES)


# --------------------------------------------------------------------------
# Sizes, steps and the workload record


@dataclass
class Step:
    """One CLI invocation, the outputs it owns and the glue run before it."""

    name: str
    argv: list[str]
    outputs: list[str]
    before: str | None = None   # glue the child runs (untimed) before this step


@dataclass
class Workload:
    name: str
    seed: int
    steps: list[Step]
    sizes: dict
    expected: dict
    setup_gazetteer: str | None = None   # gazetteer the set-up probe loads

    def plan(self) -> dict:
        return {"steps": [vars(s) for s in self.steps]}


# --------------------------------------------------------------------------
# Names and dumps


def _gen_name(rng: random.Random) -> str:
    syllables = rng.randint(2, 3)
    core = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
    name = core + rng.choice(_ENDINGS)
    style = rng.random()
    if style < 0.15:
        name += str(rng.randint(2, 9))
    elif style < 0.25:
        name += "-" + rng.choice(_CONSONANTS) + rng.choice(_VOWELS) + rng.choice(_ENDINGS)
    casing = rng.random()
    if casing < 0.2:
        name = name.upper()
    elif casing < 0.5:
        name = name.capitalize()
    elif casing < 0.6:
        name = name[0].upper() + name[1:3] + name[3:].capitalize()
    return name


def gen_names(rng: random.Random, n: int, specials=SPECIAL_NAMES) -> list[str]:
    """``n`` distinct names (case-insensitively), specials first."""
    names = list(specials)
    seen = {s.casefold() for s in names}
    while len(names) < n:
        name = _gen_name(rng)
        key = name.casefold()
        if key in seen or _tokens(name) & _RESERVED:
            continue
        seen.add(key)
        names.append(name)
    return names


def _variant(rng: random.Random, name: str) -> str:
    r = rng.random()
    if r < 0.7:
        return name
    if r < 0.8:
        return name.lower()
    if r < 0.9:
        return name.upper()
    return name.swapcase()


def write_dumps(rng: random.Random, names: list[str], in_dir: Path) -> dict:
    """Split names over the three dump kinds, with cross-dump duplicates.

    Returns the expected gazetteer: folded key -> (canonical, kind, sources).
    Canonical casing is the first one seen in ingest order (biotools,
    bioconda, biocontainers); a name seen as tool and binary is a tool.
    """
    shuffled = names[:]
    rng.shuffle(shuffled)
    third = len(shuffled) // 3
    biotools_names = shuffled[:third]
    bioconda_names = shuffled[third:2 * third]
    container_names = shuffled[2 * third:]

    seen_order: list[tuple[str, str, str]] = []   # (surface, kind, source)
    records = []
    i = 0
    while i < len(biotools_names):
        rec = {"name": biotools_names[i]}
        seen_order.append((biotools_names[i], "tool_name", "biotools"))
        i += 1
        if i < len(biotools_names) and rng.random() < 0.3:
            rec["binaries"] = [biotools_names[i]]
            seen_order.append((biotools_names[i], "binary_name", "biotools"))
            i += 1
        records.append(rec)
    records.append({"name": FILTERED_NAMES[2].capitalize()})
    # Cross-dump duplicates in another casing exercise the case-insensitive merge.
    conda_lines = list(bioconda_names)
    for dup in rng.sample(biotools_names, min(len(biotools_names), max(1, third // 10))):
        conda_lines.append(dup.lower())
    conda_lines.append(FILTERED_NAMES[1])
    rng.shuffle(conda_lines)
    seen_order.extend((s, "binary_name", "bioconda") for s in conda_lines)

    image_names = list(container_names)
    for dup in rng.sample(bioconda_names, min(len(bioconda_names), max(1, third // 10))):
        image_names.append(dup)
    image_names.append(FILTERED_NAMES[0])
    rng.shuffle(image_names)
    images = [f"quay.io/biocontainers/{n}:{rng.randint(0, 9)}.{rng.randint(0, 20)}"
              f"--h{rng.randrange(16 ** 6):06x}_0" for n in image_names]
    seen_order.extend((s, "binary_name", "biocontainers") for s in image_names)

    (in_dir / "biotools.json").write_text(json.dumps(records, indent=1), encoding="utf-8")
    (in_dir / "bioconda.txt").write_text("\n".join(conda_lines) + "\n", encoding="utf-8")
    (in_dir / "biocontainers.txt").write_text("\n".join(images) + "\n", encoding="utf-8")

    merged: dict[str, list] = {}
    for surface, kind, source in seen_order:
        key = surface.casefold()
        if key not in merged:
            merged[key] = [surface, kind, {source}]
        else:
            if kind == "tool_name":
                merged[key][1] = "tool_name"
            merged[key][2].add(source)
    filtered = {n.casefold() for n in FILTERED_NAMES}
    return {k: (v[0], v[1], sorted(v[2])) for k, v in sorted(merged.items())
            if k not in filtered}


def gazetteer_argv(in_dir: str, out: str) -> list[str]:
    return ["gazetteer", "build", "--biotools", f"{in_dir}/biotools.json",
            "--bioconda", f"{in_dir}/bioconda.txt",
            "--biocontainers", f"{in_dir}/biocontainers.txt", "--out", out]


# --------------------------------------------------------------------------
# Text building


class TextBuilder:
    """Space-joined words; records where planted pieces start."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.pos = 0

    def add(self, piece: str) -> int:
        if self.parts:
            self.parts.append(" ")
            self.pos += 1
        start = self.pos
        self.parts.append(piece)
        self.pos += len(piece)
        return start

    def filler(self, rng: random.Random, n: int) -> None:
        for _ in range(n):
            word = rng.choice(FILLER)
            if rng.random() < 0.08:
                word += rng.choice(",.;:")
            self.add(word)

    def text(self) -> str:
        return "".join(self.parts)


def _filler_phrase(rng: random.Random, lo: int = 1, hi: int = 2) -> str:
    return " ".join(rng.choice(FILLER) for _ in range(rng.randint(lo, hi)))


def trigger_segment(rng: random.Random, label: str, names: list[str],
                    ) -> tuple[str, tuple[int, int], tuple[int, int]]:
    """(text, gold span, tagger span) of one planted trigger, relative offsets."""
    if label == "Tool":
        s = _variant(rng, rng.choice(names))
        return s, (0, len(s)), (0, len(s))
    if label in FIXED_LISTS:
        s = rng.choice(FIXED_LISTS[label])
        return s, (0, len(s)), (0, len(s))
    if label == "Version":
        r = rng.random()
        a, b, c = rng.randint(0, 12), rng.randint(0, 30), rng.randint(0, 9)
        if r < 0.4:
            s = f"v{a}.{b}.{c}"
        elif r < 0.7:
            s = f"{a}.{b}"
        else:
            s = f"version {a}.{b}"
            if r < 0.85:   # gold marks the number only; the rule tags the phrase
                return s, (8, len(s)), (0, len(s))
        return s, (0, len(s)), (0, len(s))
    if label == "Biblio":
        r = rng.random()
        if r < 0.5:
            s = f"[{rng.randint(1, 90)}]"
        elif r < 0.7:
            s = f"[{rng.randint(1, 40)}, {rng.randint(41, 90)}]"
        elif r < 0.85:
            s = f"10.{rng.randint(1000, 9999)}/j.{rng.randrange(10 ** 6):06d}"
        else:
            s = f"https://example.org/{rng.choice(names).lower().replace(' ', '-')}"
        return s, (0, len(s)), (0, len(s))
    raise ValueError(label)


@dataclass
class PlantedDoc:
    doc_id: str
    text: str
    gold: list[tuple[str, tuple[tuple[int, int], ...]]]   # (label, fragments)
    silver: list[tuple[str, int, int]]                     # expected tagger output


def _ann_lines(text: str, entities) -> str:
    lines = []
    for i, (label, frags) in enumerate(entities, start=1):
        spans = ";".join(f"{s} {e}" for s, e in frags)
        surface = " ".join(text[s:e] for s, e in frags)
        lines.append(f"T{i}\t{label} {spans}\t{surface}")
    return "".join(line + "\n" for line in lines)


def write_doc(dir_: Path, doc_id: str, text: str, ann: str | None) -> None:
    (dir_ / f"{doc_id}.txt").write_text(text, encoding="utf-8", newline="")
    if ann is not None:
        (dir_ / f"{doc_id}.ann").write_text(ann, encoding="utf-8", newline="")


# --------------------------------------------------------------------------
# paper_pipeline


def _paper_items(rng: random.Random) -> list[tuple]:
    labels = [b for b, n in sorted(PAPER_COUNTS.items()) for _ in range(n)]
    rng.shuffle(labels)
    outers = [i for i, b in enumerate(labels) if b not in TRIGGER_LABELS][:PAPER_NESTED]
    outer_set = set(outers)
    rest = [i for i in range(len(labels)) if i not in outer_set]
    inners = rest[:PAPER_NESTED]
    items = [("nested", labels[o], labels[i]) for o, i in zip(outers, inners)]
    items += [("single", labels[i]) for i in rest[PAPER_NESTED:]]
    rng.shuffle(items)
    return items


def _plant(rng: random.Random, tb: TextBuilder, doc: PlantedDoc, label: str,
           names: list[str], suffix: str = "") -> tuple[int, int]:
    """Add one entity (plus optional trailing words); return its extent."""
    if label in TRIGGER_LABELS:
        s, (gs, ge), (ts, te) = trigger_segment(rng, label, names)
        start = tb.add(s + suffix)
        doc.gold.append((label, ((start + gs, start + ge),)))
        doc.silver.append((label, start + ts, start + te))
        return start, start + len(s)
    s = _filler_phrase(rng)
    start = tb.add(s + suffix)
    doc.gold.append((label, ((start, start + len(s)),)))
    return start, start + len(s)


def gen_paper_docs(rng: random.Random, names: list[str], n_docs: int = PAPER_DOCS,
                   target_chars: int = 20_000) -> list[PlantedDoc]:
    buckets: list[list[tuple]] = [[] for _ in range(n_docs)]
    for i, item in enumerate(_paper_items(rng)):
        buckets[i % n_docs].append(item)
    docs = []
    for d, bucket in enumerate(buckets):
        doc = PlantedDoc(f"article{d:02d}", "", [], [])
        tb = TextBuilder()
        gap = max(1, (target_chars // 8 - 2 * len(bucket)) // (len(bucket) + 1))
        tb.filler(rng, gap)
        for item in bucket:
            if item[0] == "single":
                _plant(rng, tb, doc, item[1], names)
            else:
                _, outer, inner = item
                outer_words = _filler_phrase(rng, 1, 2)
                start, _ = _plant(rng, tb, doc, inner, names, suffix=" " + outer_words)
                doc.gold.append((outer, ((start, tb.pos),)))
            tb.filler(rng, rng.randint(max(1, gap // 2), gap + gap // 2))
        doc.text = tb.text()
        docs.append(doc)
    return docs


# The shipped SoftCite mapping table, in table order: (source, attribute, target).
_SOFTCITE_RULES = [("software", "environment", "Tool"), ("software", "url", "Biblio"),
                   ("software", "component", "LibraryPackage"),
                   ("software", "implicit", "Tool"), ("software", None, "Tool"),
                   ("publisher", "environment", "Environment"),
                   ("publisher", None, "Biblio"), ("bibr", None, "Biblio"),
                   ("version", None, "Version"), ("figure", None, None)]


def softcite_target(base: str, attributes: list[str]) -> tuple[str | None, str, bool]:
    """What the default SoftCite table does with one source entity."""
    ranked = [i for i, (b, a, _t) in enumerate(_SOFTCITE_RULES)
              if b == base and a is not None and a in attributes]
    index = min(ranked) if ranked else next(
        i for i, (b, a, _t) in enumerate(_SOFTCITE_RULES) if b == base and a is None)
    b, a, target = _SOFTCITE_RULES[index]
    return target, f"{b}+{a}" if a else b, len(set(attributes)) > 1


def gen_softcite(rng: random.Random, in_dir: Path, names: list[str],
                 n_docs: int = SOFTCITE_DOCS) -> dict:
    """SoftCite-shaped source corpus; returns the expected conversion."""
    mapped, dropped, labels = Counter(), Counter(), Counter()
    warnings = 0
    for d in range(n_docs):
        tb = TextBuilder()
        entities: list[tuple[str, tuple[tuple[int, int], ...]]] = []
        attr_lines: list[str] = []
        tb.filler(rng, rng.randint(3, 8))
        for _ in range(rng.randint(2, 6)):
            base = rng.choices(["software", "publisher", "version", "bibr", "figure"],
                               weights=[5, 2, 2, 2, 1])[0]
            surface = {"software": lambda: rng.choice(names),
                       "publisher": lambda: _filler_phrase(rng).title(),
                       "version": lambda: f"{rng.randint(0, 9)}.{rng.randint(0, 30)}",
                       "bibr": lambda: f"[{rng.randint(1, 60)}]",
                       "figure": lambda: f"Figure {rng.randint(1, 8)}"}[base]()
            start = tb.add(surface)
            entities.append((base, ((start, start + len(surface)),)))
            ent_id = f"T{len(entities)}"
            attributes: list[str] = []
            if base == "software":
                k = rng.choices([0, 1, 2], weights=[5, 4, 1])[0]
                attributes = rng.sample(["environment", "url", "component", "implicit"], k)
            elif base == "publisher" and rng.random() < 0.4:
                attributes = ["environment"]
            for attr in attributes:
                attr_lines.append(f"A{len(attr_lines) + 1}\t{attr} {ent_id}")
            target, key, warn = softcite_target(base, attributes)
            warnings += warn
            if target is None:
                dropped[key] += 1
            else:
                mapped[key] += 1
                labels[target] += 1
            tb.filler(rng, rng.randint(3, 10))
        doc_id = f"sc{d:04d}"
        text = tb.text()
        sidecar = attr_lines[:]
        if len(entities) >= 2 and rng.random() < 0.3:
            sidecar.append(f"R1\tversion_of Arg1:T2 Arg2:T1")
        write_doc(in_dir, doc_id, text,
                  _ann_lines(text, entities) + "".join(s + "\n" for s in sidecar))
    return {"mapped": dict(sorted(mapped.items())), "dropped": dict(sorted(dropped.items())),
            "unknown": {}, "multi_attribute_warnings": warnings,
            "labels": dict(labels), "documents": n_docs}


def nested_count(entities) -> int:
    """Entities whose extent lies strictly inside another entity's extent.

    Sweep over distinct extents sorted by (start, -end): an extent is
    strictly contained iff an earlier distinct extent reaches at least
    as far.
    """
    extents = Counter((frags[0][0], frags[-1][1]) for _label, frags in entities)
    nested = 0
    max_end = -1
    for (start, end) in sorted(extents, key=lambda se: (se[0], -se[1])):
        if max_end >= end:
            nested += extents[(start, end)]
        max_end = max(max_end, end)
    return nested


def build_paper_pipeline(seed: int, in_dir: Path) -> Workload:
    rng = random.Random(f"paper_pipeline:{seed}")
    in_dir.mkdir(parents=True, exist_ok=True)
    names = gen_names(rng, 500)
    gaz = write_dumps(rng, names, in_dir)
    kept = [canonical for canonical, _k, _s in gaz.values()]

    gold_dir = in_dir / "gold"
    gold_dir.mkdir()
    docs = gen_paper_docs(rng, kept)
    silver_labels, gold_labels = Counter(), Counter()
    shared = 0
    silver_total = 0
    for doc in docs:
        write_doc(gold_dir, doc.doc_id, doc.text, _ann_lines(doc.text, doc.gold))
        gold_keys = {(label, frags) for label, frags in doc.gold}
        shared += sum((label, ((s, e),)) in gold_keys for label, s, e in doc.silver)
        silver_total += len(doc.silver)
        silver_labels.update(label for label, _s, _e in doc.silver)
        gold_labels.update(label for label, _f in doc.gold)
    assert gold_labels == Counter(PAPER_COUNTS)
    nested = sum(nested_count(doc.gold) for doc in docs)

    sc_dir = in_dir / "softcite"
    sc_dir.mkdir()
    conversion = gen_softcite(rng, sc_dir, names)

    fused_labels = gold_labels + silver_labels + Counter(conversion["labels"])
    fused_entities = sum(fused_labels.values())
    n_fused = 2 * len(docs) + conversion["documents"]
    gold_n = sum(gold_labels.values())
    expected = {
        "gazetteer": gaz,
        "silver": {doc.doc_id: sorted(doc.silver) for doc in docs},
        "conversion": conversion,
        "fuse_stdout": {"documents": n_fused,
                        "provenance": {"converted": conversion["documents"],
                                       "gold": len(docs), "silver": len(docs)}},
        "validate_last_line": f"0 violation(s) in {n_fused} document(s)",
        "stats": {"documents": n_fused, "labels": dict(fused_labels),
                  "entities": fused_entities,
                  "nesting_fraction": round(nested / fused_entities, 6)},
        "splits": {"n": 5, "sizes": [26, 13, 13], "doc_ids": [d.doc_id for d in docs]},
        # Every silver entity overlaps exactly one gold entity of its label.
        "eval": {"strict_tp": shared, "relaxed_tp": silver_total,
                 "gold": gold_n, "pred": silver_total,
                 "gold_labels": dict(gold_labels), "pred_labels": dict(silver_labels)},
    }
    steps = [
        Step("gazetteer_build", gazetteer_argv("in", "out/gazetteer.json"),
             ["out/gazetteer.json"]),
        Step("convert", ["convert", "--corpus", "in/softcite", "--out", "out/converted",
                         "--report", "out/convert_report.json"],
             ["out/converted", "out/convert_report.json"]),
        Step("tag", ["tag", "--corpus", "in/gold", "--gazetteer", "out/gazetteer.json",
                     "--out", "out/silver"], ["out/silver"]),
        Step("fuse", ["fuse", "--source", "in/gold:gold", "--source", "out/silver:silver",
                      "--source", "out/converted:converted", "--prefix-collisions",
                      "--out", "out/fused"], ["out/fused"]),
        Step("validate", ["validate", "--corpus", "out/fused", "--schema", "biotoflow"], []),
        Step("stats", ["stats", "--corpus", "out/fused", "--out", "out/stats.json"],
             ["out/stats.json"]),
        Step("split", ["split", "--corpus", "in/gold", "--out", "out/splits", "--n", "5",
                       "--seed", "42"], ["out/splits"]),
        Step("eval", ["eval", "--gold", "in/gold", "--pred", "out/silver", "--mode", "both",
                      "--json", "out/eval.json"], ["out/eval.json"]),
        Step("report", ["report", "--results", "glue/runs", "--out", "out/report.txt"],
             ["out/report.txt"], before="run_results"),
    ]
    sizes = {
        "gazetteer_names": len(gaz), "dump_names": len(names) + len(FILTERED_NAMES),
        "gold_docs": len(docs), "gold_chars": sum(len(d.text) for d in docs),
        "gold_entities": gold_n, "gold_nested": nested,
        "nesting_share": round(nested / gold_n, 6),
        "planted_triggers": silver_total, "planted_shared": shared,
        "softcite_docs": conversion["documents"],
        "softcite_entities": sum(conversion["mapped"].values())
        + sum(conversion["dropped"].values()),
        "fused_docs": n_fused, "fused_entities": fused_entities,
    }
    return Workload("paper_pipeline", seed, steps, sizes, expected,
                    setup_gazetteer="out/gazetteer.json")


# --------------------------------------------------------------------------
# fulltext_tag


def build_fulltext_tag(seed: int, in_dir: Path, n_names: int = 20_000,
                       n_docs: int = 2, target_chars: int = 50_000,
                       mentions: int = 600) -> Workload:
    rng = random.Random(f"fulltext_tag:{seed}")
    in_dir.mkdir(parents=True, exist_ok=True)
    names = gen_names(rng, n_names, SPECIAL_NAMES + ("C++",))
    gaz = write_dumps(rng, names, in_dir)
    kept = [canonical for canonical, _k, _s in gaz.values() if canonical != "C++"]

    corpus = in_dir / "articles"
    corpus.mkdir()
    silver = {}
    chars = 0
    for d in range(n_docs):
        doc = PlantedDoc(f"fulltext{d}", "", [], [])
        tb = TextBuilder()
        gap = max(1, (target_chars // 8 - mentions) // (mentions + 1))
        tb.filler(rng, gap)
        for _ in range(mentions):
            r = rng.random()
            if r < 0.03:   # a gazetteer name that the fixed list relabels
                start = tb.add("C++")
                doc.silver.append(("ProgrammingLanguage", start, start + 3))
            elif r < 0.06:
                _plant(rng, tb, doc, rng.choice(["Version", "Biblio"]), kept)
            else:
                _plant(rng, tb, doc, "Tool", kept)
            tb.filler(rng, rng.randint(max(1, gap // 2), gap + gap // 2))
        doc.text = tb.text()
        chars += len(doc.text)
        write_doc(corpus, doc.doc_id, doc.text, None)
        silver[doc.doc_id] = sorted(doc.silver)
    steps = [
        Step("gazetteer_build", gazetteer_argv("in", "out/gazetteer.json"),
             ["out/gazetteer.json"]),
        Step("tag", ["tag", "--corpus", "in/articles", "--gazetteer", "out/gazetteer.json",
                     "--out", "out/silver"], ["out/silver"]),
    ]
    sizes = {"gazetteer_names": len(gaz), "dump_names": len(names) + len(FILTERED_NAMES),
             "docs": n_docs, "chars": chars,
             "planted_triggers": sum(len(v) for v in silver.values())}
    return Workload("fulltext_tag", seed, steps, sizes,
                    {"gazetteer": gaz, "silver": silver},
                    setup_gazetteer="out/gazetteer.json")


# --------------------------------------------------------------------------
# dense_eval

DENSE_LABELS = ("Tool", "Data", "Method", "Parameter")


def _word_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in re.finditer(r"\S+", text)]


def _random_entity(rng: random.Random, words: list[tuple[int, int]]):
    n = len(words)
    w = rng.randrange(n - 8)
    length = rng.randint(1, 4)
    if rng.random() < 0.1:   # discontinuous: two fragments with a gap
        gap = rng.randint(1, 3)
        frags = ((words[w][0], words[w + length - 1][1]),
                 (words[w + length + gap][0], words[w + length + gap][1]))
    else:
        frags = ((words[w][0], words[w + length - 1][1]),)
    return rng.choice(DENSE_LABELS), frags


def _perturb(rng: random.Random, ent, words: list[tuple[int, int]], word_at: dict):
    label, frags = ent
    if rng.random() < 0.3:
        return rng.choice([l for l in DENSE_LABELS if l != label]), frags
    s, e = frags[0]
    ws, we = word_at[s], word_at[e]
    if rng.random() < 0.5 and ws > 0:
        ws -= 1
    elif we + 1 < len(words) and (len(frags) == 1 or words[we + 1][1] < frags[1][0]):
        we += 1
    else:
        return rng.choice([l for l in DENSE_LABELS if l != label]), frags
    return label, ((words[ws][0], words[we][1]),) + frags[1:]


def build_dense_eval(seed: int, in_dir: Path, n_docs: int = 2, n_words: int = 9_000,
                     n_gold: int = 1_400, n_pred: int = 1_400) -> Workload:
    rng = random.Random(f"dense_eval:{seed}")
    gold_dir, pred_dir = in_dir / "gold", in_dir / "pred"
    gold_dir.mkdir(parents=True)
    pred_dir.mkdir()
    shared_total, gold_labels, pred_labels = 0, Counter(), Counter()
    nested_total = chars = 0
    for d in range(n_docs):
        tb = TextBuilder()
        tb.filler(rng, n_words)
        text = tb.text()
        chars += len(text)
        words = _word_spans(text)
        # Word ends map to the word index too, for perturbing either side.
        word_at = {s: i for i, (s, _e) in enumerate(words)}
        word_at.update({e: i for i, (_s, e) in enumerate(words)})
        gold: list = []
        gold_keys: set = set()
        while len(gold) < n_gold:
            ent = _random_entity(rng, words)
            if ent not in gold_keys:
                gold_keys.add(ent)
                gold.append(ent)
        n_shared = int(0.55 * n_pred)
        pred = rng.sample(gold, n_shared)
        pred_keys = set(pred)
        while len(pred) < n_pred:
            if rng.random() < 0.75:
                ent = _perturb(rng, rng.choice(gold), words, word_at)
            else:
                ent = _random_entity(rng, words)
            if ent not in gold_keys and ent not in pred_keys:
                pred_keys.add(ent)
                pred.append(ent)
        rng.shuffle(pred)
        doc_id = f"dense{d}"
        write_doc(gold_dir, doc_id, text, _ann_lines(text, gold))
        write_doc(pred_dir, doc_id, text, _ann_lines(text, pred))
        shared_total += n_shared
        gold_labels.update(label for label, _f in gold)
        pred_labels.update(label for label, _f in pred)
        nested_total += nested_count(gold)
    gold_n = sum(gold_labels.values())
    steps = [
        # One mode per invocation keeps each timed step short (see README, "Noise")
        # and times the two matching modes apart.
        Step("eval_strict", ["eval", "--gold", "in/gold", "--pred", "in/pred", "--mode",
                             "strict", "--json", "out/eval_strict.json"],
             ["out/eval_strict.json"]),
        Step("eval_relaxed", ["eval", "--gold", "in/gold", "--pred", "in/pred", "--mode",
                              "relaxed", "--json", "out/eval_relaxed.json"],
             ["out/eval_relaxed.json"]),
        Step("stats", ["stats", "--corpus", "in/gold", "--out", "out/stats.json"],
             ["out/stats.json"]),
    ]
    expected = {
        "eval": {"strict_tp": shared_total, "relaxed_tp": None,
                 "gold": gold_n, "pred": sum(pred_labels.values()),
                 "gold_labels": dict(gold_labels), "pred_labels": dict(pred_labels)},
        "stats": {"documents": n_docs, "labels": dict(gold_labels), "entities": gold_n,
                  "nesting_fraction": round(nested_total / gold_n, 6)},
    }
    sizes = {"docs": n_docs, "chars": chars, "gold_entities": gold_n,
             "pred_entities": sum(pred_labels.values()), "planted_shared": shared_total,
             "gold_nested": nested_total, "nesting_share": round(nested_total / gold_n, 6)}
    return Workload("dense_eval", seed, steps, sizes, expected)


BUILDERS = {
    "paper_pipeline": build_paper_pipeline,
    "fulltext_tag": build_fulltext_tag,
    "dense_eval": build_dense_eval,
}
