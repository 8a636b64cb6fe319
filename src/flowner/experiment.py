"""Reproducible corpus splits and mean±std aggregation of run results.

Split manifests must be reproducible across platforms and languages, so
shuffling uses a fully specified PRNG instead of the platform default:
xorshift64* (Marsaglia), state initialized by one splitmix64 step of the
seed, with the seed for split *k* being ``base_seed + k``.  Shuffling is
a Fisher-Yates pass from the last index down with ``j = next() % (i+1)``.

Cut sizes: ``n_test = floor((1 - train_frac) * N + 0.5)`` and
``n_dev = floor(dev_frac * (N - n_test))``.  With the default ratios
(0.75, 1/3) a 52-document corpus yields (26, 13, 13).

Aggregation has one path: a row (a label, Overall or Overall-focused)
pools each run's counts over its label set, and reports the mean and
sample standard deviation (divisor n-1, 0 for one group) over groups of
runs, one run each or one split each behind a flag, of their mean P/R/F1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping, Optional, Sequence

from .corpus_io import check_fields, read_json
from .evaluation import LabelScore, MatchMode, MatchReport, _aligned, _micro
from .model import Corpus, InputError

_MASK64 = (1 << 64) - 1


class CorpusTooSmall(ValueError):
    pass


class EmptyResults(ValueError):
    pass


class MixedModes(ValueError):
    pass


class MalformedResult(InputError):
    """A run-result file that cannot be read, located by path and by the
    dotted key at fault (or by line, for a byte that is not UTF-8)."""


class MalformedManifest(InputError):
    """A split manifest that cannot be used, located by path and by the
    dotted key at fault."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SplitRng:
    """xorshift64* generator; state seeded via one splitmix64 step."""

    def __init__(self, seed: int):
        self._state = _splitmix64(seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


DEFAULT_RATIOS = (0.75, 1.0 / 3.0)


class SplitManifest(namedtuple("SplitManifest",
                               "split_id seed train_ids dev_ids test_ids ratios")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "split_id": self.split_id,
            "seed": self.seed,
            "train": list(self.train_ids),
            "dev": list(self.dev_ids),
            "test": list(self.test_ids),
            "ratios": [self.ratios[0], self.ratios[1]],
        }

    @classmethod
    def from_json_dict(cls, data, path=None) -> "SplitManifest":
        """The manifest that ``data`` holds, built in the walk that checks
        it: a :class:`MalformedManifest` naming ``path`` and the key at
        fault unless ``data`` has the keys :meth:`to_json_dict` writes
        (:func:`corpus_io.check_fields`), ``split_id`` and ``seed`` are
        integers, the three id lists hold strings and no id twice, within a
        list or across them, and ``ratios`` are two numbers that
        :func:`ratios_in_range` accepts."""
        def expect(ok: bool, what: str, value, where: str) -> None:
            _expect(ok, what, value, path, where, MalformedManifest)

        check_fields(data, MalformedManifest, path, None,
                     ("split_id", "seed", "train", "dev", "test", "ratios"))
        for key in ("split_id", "seed"):
            expect(type(data[key]) is int, "an integer", data[key], key)
        seen: set[str] = set()
        for key in ("train", "dev", "test"):
            ids = data[key]
            expect(type(ids) is list, "a list of strings", ids, key)
            for i, doc_id in enumerate(ids):
                expect(type(doc_id) is str, "a string", doc_id, f"{key}[{i}]")
                expect(doc_id not in seen, "an id that no list holds before it", doc_id,
                       f"{key}[{i}]")
                seen.add(doc_id)
        ratios = data["ratios"]
        expect(type(ratios) is list and len(ratios) == 2
               and all(type(r) in (int, float) for r in ratios) and ratios_in_range(ratios),
               "[train, dev] with 0 < train < 1 and 0 <= dev < 1", ratios, "ratios")
        return cls(data["split_id"], data["seed"], tuple(data["train"]), tuple(data["dev"]),
                   tuple(data["test"]), (ratios[0], ratios[1]))


def ratios_in_range(ratios: Sequence[float]) -> bool:
    """Whether ``(train_frac, dev_frac)`` has 0 < train < 1 and 0 <= dev < 1."""
    train_frac, dev_frac = ratios
    return 0.0 < train_frac < 1.0 and 0.0 <= dev_frac < 1.0


def split_sizes(n: int, ratios: Sequence[float] = DEFAULT_RATIOS) -> tuple[int, int, int]:
    """(n_train, n_dev, n_test) for a corpus of n documents."""
    train_frac, dev_frac = ratios
    if not ratios_in_range(ratios):
        raise ValueError(f"ratios out of range: {ratios!r}")
    n_test = math.floor((1.0 - train_frac) * n + 0.5)
    pool = n - n_test
    n_dev = math.floor(dev_frac * pool)
    return pool - n_dev, n_dev, n_test


def make_splits(corpus: Corpus, n_splits: int, base_seed: int,
                ratios: Sequence[float] = DEFAULT_RATIOS) -> list[SplitManifest]:
    """Deterministic multi-split assignment of a corpus's doc_ids.

    Identical inputs reproduce identical manifests; each manifest's three
    lists partition the corpus.
    """
    doc_ids = corpus.doc_ids()
    if n_splits < 1:
        raise ValueError(f"need at least 1 split, got {n_splits}")
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError("doc_ids are not unique")
    n = len(doc_ids)
    if n < 4:
        raise CorpusTooSmall(f"need at least 4 documents, got {n}")
    n_train, n_dev, n_test = split_sizes(n, ratios)
    manifests = []
    for split_id in range(n_splits):
        seed = base_seed + split_id
        shuffled = sorted(doc_ids)
        SplitRng(seed).shuffle(shuffled)
        test = shuffled[:n_test]
        dev = shuffled[n_test:n_test + n_dev]
        train = shuffled[n_test + n_dev:]
        manifests.append(SplitManifest(
            split_id=split_id, seed=seed,
            train_ids=tuple(sorted(train)), dev_ids=tuple(sorted(dev)),
            test_ids=tuple(sorted(test)), ratios=(ratios[0], ratios[1])))
    return manifests


class RunResult(namedtuple("RunResult", "split_id seed_model report meta")):
    """One evaluation run: which split, which model seed, what scores."""

    __slots__ = ()

    def __new__(cls, split_id: int, seed_model: int, report: MatchReport,
                meta: Optional[Mapping] = None) -> "RunResult":
        return tuple.__new__(cls, (split_id, seed_model, report, {} if meta is None else meta))

    def to_json_dict(self) -> dict:
        return {"split_id": self.split_id, "seed_model": self.seed_model,
                "report": self.report.to_json_dict(), "meta": dict(self.meta)}


def _expect(ok: bool, what: str, value, path, where,
            error: type[InputError] = MalformedResult) -> None:
    """An ``error`` at key ``where`` unless ``ok``."""
    if not ok:
        raise error(f"must be {what}, got {value!r}", path, where)


def _check_counts(row, path, where: str, pooled: Optional[LabelScore]) -> LabelScore:
    """The score of the counts row ``row`` at key ``where``: a
    :class:`MalformedResult` unless its counts are non-negative integers (not
    booleans), equal to those of ``pooled`` if given, and each p/r/f1 it
    holds is a number within 1e-9 of the one its counts give."""
    check_fields(row, MalformedResult, path, where, ("tp", "fp", "fn"), ("p", "r", "f1"))
    for key in ("tp", "fp", "fn"):
        _expect(type(row[key]) is int and row[key] >= 0, "a non-negative integer",
                row[key], path, f"{where}.{key}")
        if pooled is not None:
            _expect(row[key] == getattr(pooled, key), f"{getattr(pooled, key)}, the per-label "
                    "sum (over label_filter, if set)", row[key], path, f"{where}.{key}")
    score = LabelScore.from_counts(row["tp"], row["fp"], row["fn"])
    for key in ("p", "r", "f1"):
        if key in row:
            value, derived = row[key], getattr(score, key)
            _expect(type(value) in (int, float), "a number", value, path, f"{where}.{key}")
            # Compared, not subtracted: an int too large for a float compares exactly.
            _expect(derived - 1e-9 <= value <= derived + 1e-9, f"{derived!r}, as tp/fp/fn give",
                    value, path, f"{where}.{key}")
    return score


def _check_run_result(data, path) -> RunResult:
    """The :class:`RunResult` that ``data`` holds, built in the walk that
    checks it: a :class:`MalformedResult` naming ``path`` and the dotted key
    at fault unless ``data`` has the shape :meth:`RunResult.to_json_dict`
    writes (``meta`` may be absent) and each stored p/r/f1 and overall count
    agrees with the per-label counts (see :func:`_check_counts`); each
    record's keys are checked by :func:`corpus_io.check_fields`."""
    check_fields(data, MalformedResult, path, None, ("split_id", "seed_model", "report"),
                 ("meta",))
    for key in ("split_id", "seed_model"):
        _expect(type(data[key]) is int, "an integer", data[key], path, key)
    meta = data.get("meta", {})
    _expect(type(meta) is dict, "a JSON object", meta, path, "meta")
    report = data["report"]
    check_fields(report, MalformedResult, path, "report", ("mode", "per_label"),
                 ("overall", "label_filter"))
    modes = [m.value for m in MatchMode]
    _expect(report["mode"] in modes, f"one of {', '.join(modes)}", report["mode"], path,
            "report.mode")
    flt = report.get("label_filter")
    _expect(flt is None or (type(flt) is list and all(type(x) is str for x in flt)),
            "null or a list of strings", flt, path, "report.label_filter")
    per_label = report["per_label"]
    _expect(type(per_label) is dict, "a JSON object", per_label, path, "report.per_label")
    scores = {label: _check_counts(row, path, f"report.per_label.{label}", None)
              for label, row in per_label.items()}
    if "overall" in report:
        _check_counts(report["overall"], path, "report.overall", _micro(scores, flt))
    return RunResult(data["split_id"], data["seed_model"],
                     MatchReport(MatchMode(report["mode"]), scores, tuple(flt) if flt else None),
                     meta)


def run_result_from_file(path) -> RunResult:
    """The :class:`RunResult` of one :meth:`RunResult.to_json_dict` file,
    read in one walk (:func:`_check_run_result`); every fault is a
    :class:`MalformedResult` that names ``path`` and the key at fault."""
    return _check_run_result(read_json(path, MalformedResult), path)


class MetricRow(namedtuple("MetricRow", "mean_p std_p mean_r std_r mean_f1 std_f1")):
    __slots__ = ()

    def cells(self) -> tuple[str, str, str]:
        return (f"{self.mean_p:.1f} ±{self.std_p:.1f}",
                f"{self.mean_r:.1f} ±{self.std_r:.1f}",
                f"{self.mean_f1:.1f} ±{self.std_f1:.1f}")


class AggregateTable(namedtuple("AggregateTable", "per_label overall overall_focused")):
    __slots__ = ()


def _row(groups: Sequence[Sequence[MatchReport]], labels: Optional[Sequence[str]]) -> MetricRow:
    """Mean and sample std, over ``groups``, of each group's mean P/R/F1
    percentages of the counts pooled over ``labels`` (None: every label).
    ``statistics`` sums exactly, so no order changes a float; it is imported
    here, as only ``report`` needs it and it costs every start-up a few ms."""
    import statistics
    means = []
    for group in groups:
        scores = [_micro(report.per_label, labels) for report in group]
        percents = [(100.0 * s.p, 100.0 * s.r, 100.0 * s.f1) for s in scores]
        means.append([statistics.mean(metric) for metric in zip(*percents)])
    cells = []
    for values in zip(*means):
        cells += [statistics.mean(values), statistics.stdev(values) if len(values) > 1 else 0.0]
    return MetricRow(*cells)


def aggregate(results: Sequence[RunResult],
              label_filter: Optional[Sequence[str]] = None,
              per_split: bool = False) -> AggregateTable:
    """Mean and sample std of P/R/F1 percentages across runs.

    All runs are pooled by default (n = splits x seeds).  With
    ``per_split`` the runs of each split are averaged first and the std
    is taken over the split means.  Every row is recomputed from each
    run's per-label counts, so it never depends on how the run's own
    filter was set; ``overall_focused`` pools over ``label_filter``.
    """
    if not results:
        raise EmptyResults("no run results to aggregate")
    modes = {r.report.mode for r in results}
    if len(modes) > 1:
        raise MixedModes(f"runs mix modes {sorted(m.value for m in modes)}")
    flt = tuple(sorted(set(label_filter))) if label_filter else None

    by_group: dict[int, list[MatchReport]] = {}
    for i, r in enumerate(results):
        by_group.setdefault(r.split_id if per_split else i, []).append(r.report)
    groups = list(by_group.values())
    labels = sorted({base for r in results for base in r.report.per_label})
    return AggregateTable(per_label={base: _row(groups, (base,)) for base in labels},
                          overall=_row(groups, None),
                          overall_focused=_row(groups, flt) if flt else None)


def _csv_cell(cell: str) -> str:
    """``cell`` as an RFC 4180 field: quoted, each ``"`` doubled, if it
    holds a comma, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_table(table: AggregateTable, layout: str = "text") -> str:
    """Render as aligned text, Markdown or CSV; cells are ``mean ±std``.
    A label that holds a separator is quoted in CSV, its ``|`` escaped as
    ``\\|`` in Markdown."""
    rows = [("Entities", "P", "R", "F1")]
    for base in sorted(table.per_label):
        rows.append((base,) + table.per_label[base].cells())
    rows.append(("Overall",) + table.overall.cells())
    if table.overall_focused is not None:
        rows.append(("Overall-focused",) + table.overall_focused.cells())

    if layout == "csv":
        return "\n".join(",".join(map(_csv_cell, r)) for r in rows) + "\n"
    if layout == "markdown":
        lines = ["| " + " | ".join(rows[0]) + " |",
                 "|" + "|".join("---" for _ in rows[0]) + "|"]
        lines += ["| " + " | ".join(cell.replace("|", "\\|") for cell in r) + " |"
                  for r in rows[1:]]
        return "\n".join(lines) + "\n"
    if layout == "text":
        return _aligned(rows)
    raise ValueError(f"unknown layout {layout!r}")
