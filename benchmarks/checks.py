"""Checks of one iteration's outputs against the planted truth.

Each check reads what a CLI step wrote and returns a list of problems
(empty when the output is right).  The checks parse the standoff and
JSON outputs themselves, so a defect in the program's own readers cannot
hide a defect in its writers.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

from workloads import EXPECTED_FILTERED, Workload


def read_entities(ann_path: Path) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """(label, fragments) of every entity line in one .ann file."""
    out = []
    if not ann_path.exists():
        return out
    for line in ann_path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("T"):
            continue
        _id, label_spans, _surface = line.split("\t", 2)
        label, spans = label_spans.split(" ", 1)
        frags = tuple(tuple(int(x) for x in seg.split()) for seg in spans.split(";"))
        out.append((label, frags))
    return out


def _label_counts(corpus_dir: Path) -> Counter:
    counts: Counter = Counter()
    for ann in corpus_dir.glob("*.ann"):
        counts.update(label for label, _f in read_entities(ann))
    return counts


def _diff(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got!r}, want {want!r}"]


def check_gazetteer(wl: Workload, work: Path, _stdout: str) -> list[str]:
    data = json.loads((work / "out/gazetteer.json").read_text(encoding="utf-8"))
    got = {row["key"]: (row["canonical"], row["kind"], row["sources"])
           for row in data["entries"]}
    want = wl.expected["gazetteer"]
    problems = _diff("filtered", data["normalization"]["filtered"], EXPECTED_FILTERED)
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])[:3]
        problems.append(f"gazetteer entries differ: missing {missing}, extra {extra}, "
                        f"wrong {wrong}")
    return problems


def check_convert(wl: Workload, work: Path, _stdout: str) -> list[str]:
    want = wl.expected["conversion"]
    report = json.loads((work / "out/convert_report.json").read_text(encoding="utf-8"))
    problems = []
    for key in ("mapped", "dropped", "unknown", "multi_attribute_warnings"):
        problems += _diff(f"conversion {key}", report[key], want[key])
    converted = work / "out/converted"
    problems += _diff("converted documents", len(list(converted.glob("*.txt"))),
                      want["documents"])
    problems += _diff("converted labels", dict(_label_counts(converted)), want["labels"])
    return problems


def check_tag(wl: Workload, work: Path, _stdout: str) -> list[str]:
    planted = found = hit = 0
    for doc_id, want in wl.expected["silver"].items():
        got = sorted((label, frags[0][0], frags[-1][1]) for label, frags
                     in read_entities(work / "out/silver" / f"{doc_id}.ann"))
        planted += len(want)
        found += len(got)
        hit += len(set(got) & set(want))
    if hit == planted == found:
        return []
    return [f"tagger precision {hit}/{found}, recall {hit}/{planted} on planted names"]


def check_fuse(wl: Workload, work: Path, stdout: str) -> list[str]:
    want = wl.expected["fuse_stdout"]
    lines = stdout.strip().splitlines()
    problems = _diff("fuse stdout", json.loads(lines[-1]) if lines else None, want)
    return problems + _diff("fused documents",
                            len(list((work / "out/fused").glob("*.txt"))), want["documents"])


def check_validate(wl: Workload, _work: Path, stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    return _diff("validate", lines[-1] if lines else "", wl.expected["validate_last_line"])


def check_stats(wl: Workload, work: Path, _stdout: str) -> list[str]:
    data = json.loads((work / "out/stats.json").read_text(encoding="utf-8"))
    return [p for key, want in wl.expected["stats"].items()
            for p in _diff(f"stats {key}", data[key], want)]


def check_split(wl: Workload, work: Path, _stdout: str) -> list[str]:
    want = wl.expected["splits"]
    problems = []
    for k in range(want["n"]):
        m = json.loads((work / f"out/splits/split_{k}.json").read_text(encoding="utf-8"))
        parts = [m["train"], m["dev"], m["test"]]
        problems += _diff(f"split {k} sizes", [len(p) for p in parts], want["sizes"])
        problems += _diff(f"split {k} ids", sorted(i for p in parts for i in p),
                          sorted(want["doc_ids"]))
    return problems


def _eval_reports(work: Path, step_name: str) -> dict:
    """Mode -> report JSON, from ``eval --mode both`` or a single-mode run."""
    if step_name == "eval":
        return json.loads((work / "out/eval.json").read_text(encoding="utf-8"))
    data = json.loads((work / f"out/{step_name}.json").read_text(encoding="utf-8"))
    return {data["mode"]: data}


def check_eval(wl: Workload, work: Path, _stdout: str, step_name: str = "eval") -> list[str]:
    want = wl.expected["eval"]
    problems = []
    for mode, report in _eval_reports(work, step_name).items():
        tp = report["overall"]["tp"]
        if mode == "strict":
            problems += _diff("strict tp", tp, want["strict_tp"])
        elif want["relaxed_tp"] is not None:
            problems += _diff("relaxed tp", tp, want["relaxed_tp"])
        elif not want["strict_tp"] <= tp <= min(want["gold"], want["pred"]):
            problems.append(f"relaxed tp {tp} outside [{want['strict_tp']}, "
                            f"{min(want['gold'], want['pred'])}]")
        per_label = report["per_label"]
        problems += _diff(f"{mode} gold per label",
                          {k: v["tp"] + v["fn"] for k, v in per_label.items()
                           if v["tp"] + v["fn"]}, want["gold_labels"])
        problems += _diff(f"{mode} pred per label",
                          {k: v["tp"] + v["fp"] for k, v in per_label.items()
                           if v["tp"] + v["fp"]}, want["pred_labels"])
    return problems


def check_report(wl: Workload, work: Path, _stdout: str) -> list[str]:
    want = wl.expected["eval"]
    p = want["strict_tp"] / want["pred"]
    r = want["strict_tp"] / want["gold"]
    f1 = 2 * p * r / (p + r)
    expected = [f"{100 * v:.1f} ±0.0" for v in (p, r, f1)]
    for line in (work / "out/report.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("Overall "):
            return _diff("report overall", re.findall(r"\d+\.\d ±\d+\.\d", line), expected)
    return ["report has no Overall row"]


CHECKS = {
    "gazetteer_build": check_gazetteer, "convert": check_convert, "tag": check_tag,
    "fuse": check_fuse, "validate": check_validate, "stats": check_stats,
    "split": check_split, "eval": check_eval, "report": check_report,
    "eval_strict": lambda wl, work, out: check_eval(wl, work, out, "eval_strict"),
    "eval_relaxed": lambda wl, work, out: check_eval(wl, work, out, "eval_relaxed"),
}


def check_step(wl: Workload, step_name: str, work: Path, stdout: str) -> list[str]:
    try:
        return CHECKS[step_name](wl, work, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{step_name}: unreadable output ({type(exc).__name__}: {exc})"]


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
