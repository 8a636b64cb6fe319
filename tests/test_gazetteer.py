import json
import random

import pytest

from flowner.gazetteer import (BINARY_NAME, TOOL_NAME, BuildOptions, Gazetteer,
                               MalformedDump, VocabEntry, build_gazetteer,
                               export_vocab, ingest, shipped_common_words,
                               vocab_lines)


def test_ingest_biotools_json():
    entries = ingest("biotools", '[{"name":"BWA"},{"name":"SAMtools"}]')
    assert [(e.canonical, e.kind) for e in entries] == \
        [("BWA", TOOL_NAME), ("SAMtools", TOOL_NAME)]
    assert entries[0].sources == frozenset({"biotools"})


def test_ingest_biotools_binaries():
    entries = ingest("biotools", '[{"name":"SAMtools","binaries":["samtools"]}]')
    assert [(e.canonical, e.kind) for e in entries] == \
        [("SAMtools", TOOL_NAME), ("samtools", BINARY_NAME)]


def test_ingest_package_list():
    entries = ingest("bioconda", "bwa\nsamtools\n")
    assert [(e.canonical, e.kind) for e in entries] == \
        [("bwa", BINARY_NAME), ("samtools", BINARY_NAME)]


@pytest.mark.parametrize("payload", ["bwa\r\nsamtools\r\n", "bwa\rsamtools\r"])
def test_ingest_lines_may_end_in_crlf_or_cr(payload):
    assert [e.canonical for e in ingest("bioconda", payload)] == ["bwa", "samtools"]


def test_ingest_container_images():
    entries = ingest("biocontainers",
                     "quay.io/biocontainers/bwa:0.7.17--h84994c4_5\n"
                     "biocontainers/samtools:v1.9\n")
    assert [e.canonical for e in entries] == ["bwa", "samtools"]
    assert all(e.kind == BINARY_NAME for e in entries)


def test_ingest_bioweb_and_custom_are_tool_names():
    assert ingest("bioweb", "ClustalW\n")[0].kind == TOOL_NAME
    assert ingest("custom", "MyTool\n")[0].kind == TOOL_NAME


def test_ingest_malformed_json_record():
    with pytest.raises(MalformedDump) as exc:
        ingest("biotools", '[{"name":"ok"},{"label":"no-name"}]')
    assert exc.value.record_index == 1
    with pytest.raises(MalformedDump):
        ingest("biotools", "not json")
    with pytest.raises(MalformedDump):
        ingest("biotools", '[{"name":"   "}]')


def test_ingest_unknown_source_kind():
    with pytest.raises(ValueError):
        ingest("npm", "x\n")


def test_build_merges_case_insensitively():
    entries = (ingest("biotools", '[{"name":"BWA"},{"name":"SAMtools"}]') +
               ingest("bioconda", "bwa\n"))
    gaz = build_gazetteer(entries)
    assert sorted(gaz.entries) == ["bwa", "samtools"]
    bwa = gaz.entries["bwa"]
    assert bwa.canonical == "BWA"          # first-seen casing
    assert bwa.sources == frozenset({"biotools", "bioconda"})
    assert bwa.kind == TOOL_NAME           # tool outranks binary on merge


def test_build_filters_short_numeric_and_common():
    entries = ingest("custom", "R\n42\n2.5\nusing\nBWA\n")
    gaz = build_gazetteer(entries)
    assert sorted(gaz.entries) == ["bwa"]
    assert gaz.normalization["filtered"] == \
        {"too_short": 1, "numeric": 2, "common_word": 1}


def test_build_filters_are_configurable():
    entries = ingest("custom", "R\n42\nusing\n")
    gaz = build_gazetteer(entries, BuildOptions(
        min_length=1, drop_numeric=False, drop_common_words=False))
    assert sorted(gaz.entries) == ["42", "r", "using"]


def test_shipped_common_words_keep_real_tool_names():
    words = shipped_common_words()
    assert "the" in words and "using" in words
    # these collide with English words but are real tools; must stay taggable
    for name in ("star", "muscle", "blast"):
        assert name not in words


def test_vocab_lines_sorted_case_insensitively():
    gaz = build_gazetteer(ingest("custom", "zTool\nApple\nbanana\n"))
    assert vocab_lines(gaz) == ["Apple", "banana", "zTool"]


def test_vocab_split_multiword():
    gaz = build_gazetteer(ingest("custom", "Burrows Wheeler Aligner\nBWA\n"))
    assert vocab_lines(gaz) == ["Burrows Wheeler Aligner", "BWA"]
    parts = vocab_lines(gaz, split_multiword=True)
    assert parts == ["Aligner", "Burrows", "Burrows Wheeler Aligner", "BWA",
                     "Wheeler"]


def test_export_is_deterministic_and_reingestable(tmp_path):
    gaz = build_gazetteer(ingest("custom", "BWA\nSAMtools\nstar\n"))
    path = tmp_path / "vocab.txt"
    export_vocab(gaz, path)
    first = path.read_bytes()
    export_vocab(gaz, path)
    assert path.read_bytes() == first
    assert first.decode("utf-8").endswith("\n")
    assert b"\r" not in first

    again = build_gazetteer(ingest("custom", path.read_text("utf-8")))
    assert sorted(again.entries) == sorted(gaz.entries)
    assert again.entries == gaz.entries


def test_rebuild_from_own_output_is_identity():
    gaz = build_gazetteer(ingest("custom", "BWA\nSAMtools\n") +
                          ingest("bioconda", "bwa\n"))
    rebuilt = build_gazetteer(list(gaz.entries.values()))
    assert rebuilt.entries == gaz.entries


def test_adding_a_source_never_removes_keys():
    base_entries = ingest("biotools", '[{"name":"BWA"},{"name":"SAMtools"}]')
    more = ingest("bioconda", "bwa\nstar\n")
    small = build_gazetteer(base_entries)
    large = build_gazetteer(base_entries + more)
    assert set(small.entries) <= set(large.entries)


def test_gazetteer_json_roundtrip():
    gaz = build_gazetteer(ingest("custom", "BWA\nSAMtools\n"))
    data = json.loads(json.dumps(gaz.to_json_dict()))
    back = Gazetteer.from_json_dict(data)
    assert back.entries == gaz.entries


def _fixture_dump(rng, kind, n_records=100):
    """Generate one dump with a known number of distinct, keepable names."""
    names = []
    for i in range(n_records):
        names.append(f"tool{kind[:3]}{i:03d}" if rng.random() < 0.8
                     else f"shared{i % 10:02d}")
    if kind == "biotools":
        payload = json.dumps([{"name": n} for n in names])
    elif kind == "biocontainers":
        payload = "\n".join(f"quay.io/biocontainers/{n}:1.0" for n in names) + "\n"
    else:
        payload = "\n".join(names) + "\n"
    return payload, names


def test_fixture_dumps_with_count_oracle():
    rng = random.Random(2025)
    all_entries = []
    oracle_keys = set()
    for kind in ("biotools", "bioconda", "biocontainers", "bioweb"):
        payload, names = _fixture_dump(rng, kind)
        entries = ingest(kind, payload)
        assert len(entries) == 100
        all_entries.extend(entries)
        oracle_keys.update(n.casefold() for n in names)
    gaz = build_gazetteer(all_entries)
    # no name here hits a filter, so the union is pure case-folded dedup
    assert len(gaz) == len(oracle_keys)
    assert sum(gaz.normalization["filtered"].values()) == 0
