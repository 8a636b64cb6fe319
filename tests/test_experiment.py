import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowner.corpus_io import atomic_write_json
from flowner.evaluation import LabelScore, MatchMode, MatchReport
from flowner.experiment import (CorpusTooSmall, EmptyResults, MalformedManifest, MixedModes,
                                RunResult, SplitManifest, SplitRng, _splitmix64,
                                aggregate, make_splits, render_table,
                                run_result_from_file, split_sizes)
from flowner.model import Corpus, Document
from oracles import oracle_aggregate, oracle_run_result_from_file


def test_splitmix64_reference_vector():
    # First output of the reference splitmix64 for seed 0.
    assert _splitmix64(0) == 0xE220A8397B1DCDAF


def test_rng_is_deterministic_and_seed_sensitive():
    a = [SplitRng(42).next_u64() for _ in range(5)]
    b = [SplitRng(42).next_u64() for _ in range(5)]
    c = [SplitRng(43).next_u64() for _ in range(5)]
    assert a == b
    assert a != c


def test_shuffle_is_a_permutation():
    items = list(range(100))
    shuffled = items.copy()
    SplitRng(7).shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_split_sizes_for_52_documents():
    assert split_sizes(52) == (26, 13, 13)


def test_split_sizes_for_1159_documents_with_published_ratios():
    # The published counts for the 1159-article subset imply an effective
    # 0.8/0.3 cut, not the nominal 0.75/(1/3); see the README note.
    assert split_sizes(1159, (0.8, 0.3)) == (649, 278, 232)


def test_split_sizes_default_ratios_other_n():
    n_train, n_dev, n_test = split_sizes(100)
    assert n_train + n_dev + n_test == 100
    assert n_test == 25


def _ids(n):
    return [f"doc{i:04d}" for i in range(n)]


def _corpus(ids):
    return Corpus("c", [Document(doc_id, "") for doc_id in ids])


def test_manifests_partition_the_corpus():
    manifests = make_splits(_corpus(_ids(52)), 5, 17)
    assert len(manifests) == 5
    for m in manifests:
        ids = list(m.train_ids) + list(m.dev_ids) + list(m.test_ids)
        assert sorted(ids) == _ids(52)
        assert (len(m.train_ids), len(m.dev_ids), len(m.test_ids)) == (26, 13, 13)


def test_manifests_differ_across_splits_but_reproduce():
    a = make_splits(_corpus(_ids(52)), 3, 99)
    b = make_splits(_corpus(_ids(52)), 3, 99)
    assert a == b
    assert a[0].test_ids != a[1].test_ids


def test_manifests_independent_of_input_order():
    ids = _ids(20)
    shuffled_input = ids[::-1]
    assert make_splits(_corpus(ids), 2, 5) == make_splits(_corpus(shuffled_input), 2, 5)


def test_corpus_too_small():
    with pytest.raises(CorpusTooSmall):
        make_splits(_corpus(_ids(3)), 1, 0)


@pytest.mark.parametrize("n_splits", [0, -3])
def test_fewer_than_one_split_is_an_error(n_splits):
    with pytest.raises(ValueError, match=f"need at least 1 split, got {n_splits}"):
        make_splits(_corpus(_ids(10)), n_splits, 0)


def test_manifest_json_roundtrip():
    (m,) = make_splits(_corpus(_ids(10)), 1, 3)
    data = json.loads(json.dumps(m.to_json_dict()))
    assert SplitManifest.from_json_dict(data) == m


@settings(max_examples=100)
@given(n=st.integers(4, 40), n_splits=st.integers(1, 3), seed=st.integers(-5, 2**40),
       ratios=st.tuples(st.floats(0, 1, exclude_min=True, exclude_max=True),
                        st.floats(0, 1, exclude_max=True)))
def test_every_manifest_of_make_splits_reads_back_through_its_check(n, n_splits, seed,
                                                                       ratios):
    for m in make_splits(_corpus(_ids(n)), n_splits, seed, ratios):
        data = json.loads(json.dumps(m.to_json_dict()))
        assert SplitManifest.from_json_dict(data, "m.json") == m


_MANIFEST = {"split_id": 0, "seed": 3, "train": ["a", "b"], "dev": ["c"], "test": ["d"],
             "ratios": [0.75, 0.5]}


@pytest.mark.parametrize("change, where, reason", [
    (None, None, "expected a JSON object"),
    ({"ratios": ...}, None, "missing field(s) ratios"),
    ({"extra": 1}, None, "unknown field(s) extra "
     "(expected split_id, seed, train, dev, test, ratios)"),
    ({"split_id": True}, "split_id", "must be an integer, got True"),
    ({"seed": "3"}, "seed", "must be an integer, got '3'"),
    ({"train": "ab"}, "train", "must be a list of strings, got 'ab'"),
    ({"dev": [1]}, "dev[0]", "must be a string, got 1"),
    ({"train": ["a", "b", "a"]}, "train[2]", "must be an id that no list holds before it, "
     "got 'a'"),
    ({"test": ["d", "b"]}, "test[1]", "must be an id that no list holds before it, got 'b'"),
    ({"ratios": [0.75]}, "ratios", "must be [train, dev] with 0 < train < 1 and "
     "0 <= dev < 1, got [0.75]"),
    ({"ratios": [1.0, 0.5]}, "ratios", "must be [train, dev] with 0 < train < 1 and "
     "0 <= dev < 1, got [1.0, 0.5]"),
    ({"ratios": [0.75, True]}, "ratios", "must be [train, dev] with 0 < train < 1 and "
     "0 <= dev < 1, got [0.75, True]"),
])
def test_each_manifest_fault_names_the_path_and_the_key(change, where, reason):
    data = [] if change is None else {k: v for k, v in {**_MANIFEST, **change}.items()
                                      if v is not ...}
    with pytest.raises(MalformedManifest) as exc:
        SplitManifest.from_json_dict(data, "m.json")
    assert (exc.value.path, exc.value.where, exc.value.reason) == ("m.json", where, reason)
    assert str(exc.value) == ": ".join(p for p in ("m.json", where, reason) if p)


def _report(mode, counts):
    per_label = {base: LabelScore.from_counts(*c) for base, c in counts.items()}
    return MatchReport(mode=mode, per_label=per_label)


def _run(split_id, seed, counts, mode=MatchMode.RELAXED):
    return RunResult(split_id=split_id, seed_model=seed,
                     report=_report(mode, counts))


def test_aggregate_forced_mean_and_std():
    # three runs with per-label F1 of exactly 60/70/80 (precision == recall)
    runs = [_run(0, s, {"Tool": (tp, 100 - tp, 100 - tp)})
            for s, tp in ((1, 60), (2, 70), (3, 80))]
    for tp, run in zip((60, 70, 80), runs):
        assert run.report.per_label["Tool"].f1 == pytest.approx(tp / 100)
    table = aggregate(runs)
    row = table.per_label["Tool"]
    assert row.mean_f1 == pytest.approx(70.0)
    assert row.std_f1 == pytest.approx(10.0)


def test_aggregate_single_run_std_zero():
    table = aggregate([_run(0, 1, {"Tool": (8, 2, 2)})])
    assert table.per_label["Tool"].std_f1 == 0.0


def test_aggregate_rejects_empty_and_mixed():
    with pytest.raises(EmptyResults):
        aggregate([])
    with pytest.raises(MixedModes):
        aggregate([_run(0, 1, {"Tool": (1, 0, 0)}, MatchMode.RELAXED),
                   _run(0, 2, {"Tool": (1, 0, 0)}, MatchMode.STRICT)])


def test_aggregate_is_permutation_invariant():
    rng = random.Random(4)
    runs = [_run(s, seed, {"Tool": (rng.randint(0, 9), rng.randint(0, 9),
                                    rng.randint(0, 9))})
            for s in range(5) for seed in range(5)]
    t1 = aggregate(runs)
    t2 = aggregate(list(reversed(runs)))
    assert t1 == t2


def _random_counts(rng):
    return {base: (rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50))
            for base in ("Tool", "Data", "Version")}


def test_aggregate_matches_numpy_oracle():
    rng = random.Random(1001)
    all_counts = [[_random_counts(rng) for _seed in range(5)] for _split in range(5)]
    runs = [_run(split, seed, counts)
            for split, per_seed in enumerate(all_counts)
            for seed, counts in enumerate(per_seed)]
    table = aggregate(runs, label_filter=["Tool", "Version"])

    def prf(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return 100 * p, 100 * r, 100 * f1

    for base in ("Tool", "Data", "Version"):
        samples = np.array([prf(*counts[base])
                            for per_seed in all_counts for counts in per_seed])
        row = table.per_label[base]
        assert row.mean_p == pytest.approx(samples[:, 0].mean(), abs=1e-9)
        assert row.std_p == pytest.approx(samples[:, 0].std(ddof=1), abs=1e-9)
        assert row.mean_f1 == pytest.approx(samples[:, 2].mean(), abs=1e-9)
        assert row.std_f1 == pytest.approx(samples[:, 2].std(ddof=1), abs=1e-9)

    focused = np.array([
        prf(sum(counts[b][0] for b in ("Tool", "Version")),
            sum(counts[b][1] for b in ("Tool", "Version")),
            sum(counts[b][2] for b in ("Tool", "Version")))
        for per_seed in all_counts for counts in per_seed])
    assert table.overall_focused.mean_f1 == pytest.approx(
        focused[:, 2].mean(), abs=1e-9)
    assert table.overall_focused.std_f1 == pytest.approx(
        focused[:, 2].std(ddof=1), abs=1e-9)


def test_aggregate_per_split_flag():
    runs = [_run(0, 1, {"Tool": (6, 4, 4)}), _run(0, 2, {"Tool": (8, 2, 2)}),
            _run(1, 1, {"Tool": (5, 5, 5)}), _run(1, 2, {"Tool": (9, 1, 1)})]
    pooled = aggregate(runs)
    by_split = aggregate(runs, per_split=True)
    split_means = [np.mean([60.0, 80.0]), np.mean([50.0, 90.0])]
    assert by_split.per_label["Tool"].mean_f1 == pytest.approx(np.mean(split_means))
    assert by_split.per_label["Tool"].std_f1 == pytest.approx(
        np.std(split_means, ddof=1))
    assert pooled.per_label["Tool"].std_f1 != by_split.per_label["Tool"].std_f1


_LABELS = ("Biblio", "Data", "Tool", "Version")
_counts = st.tuples(*[st.integers(0, 30)] * 3)
_runs = st.lists(st.builds(_run, st.integers(0, 3), st.integers(0, 9),
                           st.dictionaries(st.sampled_from(_LABELS), _counts)),
                 min_size=1, max_size=9)
_filters = st.one_of(st.none(), st.lists(st.sampled_from(_LABELS + ("Other",))))


@settings(max_examples=300, deadline=None)
@given(_runs, _filters, st.booleans(), st.randoms(use_true_random=False))
def test_aggregate_equals_the_oracle_and_ignores_run_order(runs, label_filter, per_split,
                                                           rng):
    table = aggregate(runs, label_filter, per_split)
    assert table == oracle_aggregate(runs, label_filter, per_split)
    shuffled = list(runs)
    rng.shuffle(shuffled)
    for layout in ("text", "markdown", "csv"):
        assert (render_table(aggregate(shuffled, label_filter, per_split), layout)
                == render_table(table, layout))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


# ``meta`` None is a file without the key; ``label_filter`` is written as drawn.
@settings(max_examples=200, deadline=None)
@given(st.integers(), st.integers(), st.sampled_from(MatchMode),
       st.dictionaries(st.sampled_from(_LABELS), _counts),
       st.none() | st.just([]) | st.lists(st.sampled_from(_LABELS + ("Other",)), min_size=1),
       st.none() | st.dictionaries(st.text(max_size=4), _json_values, max_size=3))
def test_a_run_result_file_reads_in_one_walk_as_the_two_walk_oracle_reads_it(
        tmp_path_factory, split_id, seed_model, mode, counts, label_filter, meta):
    report = _report(mode, counts)._replace(
        label_filter=tuple(label_filter) if label_filter else None)
    data = RunResult(split_id, seed_model, report, meta).to_json_dict()
    data["report"]["label_filter"] = label_filter
    if meta is None:
        del data["meta"]
    path = tmp_path_factory.getbasetemp() / "run.json"
    atomic_write_json(path, data)
    got = run_result_from_file(path)
    assert got == oracle_run_result_from_file(path)
    assert got == RunResult(split_id, seed_model, report, meta)


def test_render_one_decimal_plus_minus():
    runs = [_run(0, s, {"Tool": (tp, 100 - tp, 100 - tp)})
            for s, tp in ((1, 70), (2, 71), (3, 70))]
    table = aggregate(runs)
    text = render_table(table, "text")
    assert "70.3 ±0.6" in text
    md = render_table(table, "markdown")
    assert md.startswith("| Entities | P | R | F1 |")
    csv = render_table(table, "csv")
    assert csv.splitlines()[0] == "Entities,P,R,F1"


def test_render_without_filter_has_no_focused_row():
    table = aggregate([_run(0, 1, {"Tool": (1, 0, 0)})])
    assert "Overall-focused" not in render_table(table, "text")
    table_f = aggregate([_run(0, 1, {"Tool": (1, 0, 0)})], label_filter=["Tool"])
    assert "Overall-focused" in render_table(table_f, "text")


def test_render_golden_fixture(tmp_path):
    runs = [
        _run(0, 1, {"Tool": (70, 30, 30), "Biblio": (95, 5, 3)}),
        _run(0, 2, {"Tool": (72, 28, 26), "Biblio": (97, 3, 4)}),
        _run(1, 1, {"Tool": (68, 31, 33), "Biblio": (96, 4, 2)}),
    ]
    table = aggregate(runs, label_filter=["Tool"])
    got = render_table(table, "text")
    # Reviewed against a by-hand numpy computation of the same counts
    # (e.g. Tool P: mean 70.229, std 1.668 -> "70.2 ±1.7").
    golden = (
        "Entities                 P          R         F1\n"
        "Biblio           96.0 ±1.0  97.0 ±1.0  96.5 ±0.5\n"
        "Tool             70.2 ±1.7  70.3 ±3.1  70.2 ±2.4\n"
        "Overall          83.1 ±1.2  83.6 ±1.3  83.3 ±1.2\n"
        "Overall-focused  70.2 ±1.7  70.3 ±3.1  70.2 ±2.4\n"
    )
    assert got == golden
