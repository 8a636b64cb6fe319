"""Reproducible corpus splits and mean±std aggregation of run results.

Split manifests must be reproducible across platforms and languages, so
shuffling uses a fully specified PRNG instead of the platform default:
xorshift64* (Marsaglia), state initialized by one splitmix64 step of the
seed, with the seed for split *k* being ``base_seed + k``.  Shuffling is
a Fisher-Yates pass from the last index down with ``j = next() % (i+1)``.

Cut sizes: ``n_test = floor((1 - train_frac) * N + 0.5)`` and
``n_dev = floor(dev_frac * (N - n_test))``.  With the default ratios
(0.75, 1/3) a 52-document corpus yields (26, 13, 13).

Aggregation reports the mean and sample standard deviation (divisor n-1,
0 for a single run) of each percentage metric over all runs pooled; a
per-split variant (std over split means) is available behind a flag.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .evaluation import LabelScore, MatchMode, MatchReport, _micro
from .model import Corpus

_MASK64 = (1 << 64) - 1


class CorpusTooSmall(ValueError):
    pass


class EmptyResults(ValueError):
    pass


class MixedModes(ValueError):
    pass


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


@dataclass(frozen=True)
class SplitManifest:
    split_id: int
    seed: int
    train_ids: tuple[str, ...]
    dev_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    ratios: tuple[float, float]

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
    def from_json_dict(cls, data: Mapping) -> "SplitManifest":
        return cls(split_id=data["split_id"], seed=data["seed"],
                   train_ids=tuple(data["train"]), dev_ids=tuple(data["dev"]),
                   test_ids=tuple(data["test"]),
                   ratios=(data["ratios"][0], data["ratios"][1]))


def split_sizes(n: int, ratios: Sequence[float] = DEFAULT_RATIOS) -> tuple[int, int, int]:
    """(n_train, n_dev, n_test) for a corpus of n documents."""
    train_frac, dev_frac = ratios
    if not (0.0 < train_frac < 1.0 and 0.0 <= dev_frac < 1.0):
        raise ValueError(f"ratios out of range: {ratios!r}")
    n_test = math.floor((1.0 - train_frac) * n + 0.5)
    pool = n - n_test
    n_dev = math.floor(dev_frac * pool)
    return pool - n_dev, n_dev, n_test


def make_split_ids(doc_ids: Sequence[str], n_splits: int, base_seed: int,
                   ratios: Sequence[float] = DEFAULT_RATIOS) -> list[SplitManifest]:
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


def make_splits(corpus: Corpus, n_splits: int, base_seed: int,
                ratios: Sequence[float] = DEFAULT_RATIOS) -> list[SplitManifest]:
    """Deterministic multi-split assignment of a corpus's doc_ids.

    Identical inputs reproduce identical manifests; each manifest's three
    lists partition the corpus.
    """
    return make_split_ids(corpus.doc_ids(), n_splits, base_seed, ratios)


@dataclass(frozen=True)
class RunResult:
    """One evaluation run: which split, which model seed, what scores."""

    split_id: int
    seed_model: int
    report: MatchReport
    meta: Mapping = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"split_id": self.split_id, "seed_model": self.seed_model,
                "report": self.report.to_json_dict(), "meta": dict(self.meta)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RunResult":
        return cls(split_id=data["split_id"], seed_model=data["seed_model"],
                   report=MatchReport.from_json_dict(data["report"]),
                   meta=data.get("meta", {}))


@dataclass(frozen=True)
class MetricRow:
    mean_p: float
    std_p: float
    mean_r: float
    std_r: float
    mean_f1: float
    std_f1: float

    def cells(self) -> tuple[str, str, str]:
        return (f"{self.mean_p:.1f} ±{self.std_p:.1f}",
                f"{self.mean_r:.1f} ±{self.std_r:.1f}",
                f"{self.mean_f1:.1f} ±{self.std_f1:.1f}")


@dataclass(frozen=True)
class AggregateTable:
    per_label: Mapping[str, MetricRow]
    overall: MetricRow
    overall_focused: Optional[MetricRow]
    label_filter: Optional[tuple[str, ...]]
    n_runs: int
    mode: MatchMode


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    mean = statistics.mean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def _row(samples: Sequence[tuple[float, float, float]]) -> MetricRow:
    mp, sp = _mean_std([s[0] for s in samples])
    mr, sr = _mean_std([s[1] for s in samples])
    mf, sf = _mean_std([s[2] for s in samples])
    return MetricRow(mp, sp, mr, sr, mf, sf)


def _prf_percent(score: LabelScore) -> tuple[float, float, float]:
    return (100.0 * score.p, 100.0 * score.r, 100.0 * score.f1)


def _per_split_means(samples_by_split: Mapping[int, list[tuple[float, float, float]]],
                     ) -> list[tuple[float, float, float]]:
    means = []
    for split_id in sorted(samples_by_split):
        runs = samples_by_split[split_id]
        means.append(tuple(statistics.mean(r[i] for r in runs) for i in range(3)))
    return means


def aggregate(results: Sequence[RunResult],
              label_filter: Optional[Sequence[str]] = None,
              per_split: bool = False) -> AggregateTable:
    """Mean and sample std of P/R/F1 percentages across runs.

    All runs are pooled by default (n = splits x seeds).  With
    ``per_split`` the runs of each split are averaged first and the std
    is taken over the split means.  The overall row is recomputed from
    each run's per-label counts so it never depends on how the run's own
    filter was set; ``overall_focused`` restricts to ``label_filter``.
    """
    if not results:
        raise EmptyResults("no run results to aggregate")
    modes = {r.report.mode for r in results}
    if len(modes) > 1:
        raise MixedModes(f"runs mix modes {sorted(m.value for m in modes)}")
    flt = tuple(sorted(set(label_filter))) if label_filter else None

    labels = sorted({base for r in results for base in r.report.per_label})
    zero = LabelScore.from_counts(0, 0, 0)

    def collect(metric_of) -> MetricRow:
        if per_split:
            by_split: dict[int, list] = {}
            for r in results:
                by_split.setdefault(r.split_id, []).append(metric_of(r))
            return _row(_per_split_means(by_split))
        return _row([metric_of(r) for r in results])

    per_label_rows = {
        base: collect(lambda r, b=base: _prf_percent(r.report.per_label.get(b, zero)))
        for base in labels
    }
    overall_row = collect(lambda r: _prf_percent(_micro(r.report.per_label, None)))
    focused_row = None
    if flt:
        focused_row = collect(lambda r: _prf_percent(_micro(r.report.per_label, flt)))

    return AggregateTable(per_label=per_label_rows, overall=overall_row,
                          overall_focused=focused_row, label_filter=flt,
                          n_runs=len(results), mode=next(iter(modes)))


def render_table(table: AggregateTable, layout: str = "text") -> str:
    """Render as aligned text, Markdown or CSV; cells are ``mean ±std``."""
    rows = [("Entities", "P", "R", "F1")]
    for base in sorted(table.per_label):
        rows.append((base,) + table.per_label[base].cells())
    rows.append(("Overall",) + table.overall.cells())
    if table.overall_focused is not None:
        rows.append(("Overall-focused",) + table.overall_focused.cells())

    if layout == "csv":
        return "\n".join(",".join(r) for r in rows) + "\n"
    if layout == "markdown":
        lines = ["| " + " | ".join(rows[0]) + " |",
                 "|" + "|".join("---" for _ in rows[0]) + "|"]
        lines += ["| " + " | ".join(r) + " |" for r in rows[1:]]
        return "\n".join(lines) + "\n"
    if layout == "text":
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = []
        for r in rows:
            lines.append("  ".join(
                r[0].ljust(widths[0]) if i == 0 else r[i].rjust(widths[i])
                for i in range(4)))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown layout {layout!r}")
