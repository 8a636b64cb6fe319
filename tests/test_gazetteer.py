import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowner.gazetteer import (BINARY_NAME, SOURCE_KINDS, TOOL_NAME, Gazetteer,
                               MalformedDump, VocabEntry, build_gazetteer,
                               common_words, export_vocab, ingest,
                               shipped_common_words, vocab_lines)
from oracles import oracle_build_gazetteer, oracle_dumps_json, oracle_gazetteer_json


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


def test_a_bad_container_image_is_located_by_its_line():
    # Line 3, after a comment and a blank line, which are not records.
    with pytest.raises(MalformedDump) as exc:
        ingest("biocontainers", "# images\n\nquay.io/x/:tag\n", "bc.txt")
    assert exc.value.where == 3
    assert str(exc.value) == "bc.txt:3: cannot extract a name from image 'quay.io/x/:tag'"


# Form feed, vertical tab, \x1c-\x1e, NEL and U+2028/U+2029 end a line for
# str.splitlines but not for an editor; CRLF and a lone CR do end one.
_INNER_BREAKS = "\f\v\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("inner", list(_INNER_BREAKS))
def test_dump_lines_end_only_at_cr_and_lf(inner):
    payload = f"bwa{inner}star\r\nsamtools\rhisat2\n"
    names = [f"bwa{inner}star", "samtools", "hisat2"]
    assert [e.canonical for e in ingest("bioconda", payload)] == names
    assert common_words(payload) == {n.casefold() for n in names}
    with pytest.raises(MalformedDump) as exc:
        ingest("biocontainers", f"quay.io/x/bwa{inner}star\nquay.io/x/:tag\n", "bc.txt")
    assert str(exc.value) == "bc.txt:2: cannot extract a name from image 'quay.io/x/:tag'"


def test_ingest_bioweb_and_custom_are_tool_names():
    assert ingest("bioweb", "ClustalW\n")[0].kind == TOOL_NAME
    assert ingest("custom", "MyTool\n")[0].kind == TOOL_NAME


def test_ingest_malformed_json_record():
    with pytest.raises(MalformedDump) as exc:
        ingest("biotools", '[{"name":"ok"},{"label":"no-name"}]')
    assert exc.value.where == "record 1"
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


@pytest.mark.parametrize("payload, field", [
    ('[{"name": "star"}, {"name": "bwa\\nmem"}]', "name"),
    ('[{"name": "star"}, {"name": "bwa\\r"}]', "name"),
    ('[{"name": "star"}, {"name": "bwa", "binaries": ["bwa-mem", "bwa\\r\\nmem"]}]',
     "binaries"),
])
def test_a_biotools_name_with_a_line_break_is_a_dump_error(payload, field):
    with pytest.raises(MalformedDump) as exc:
        ingest("biotools", payload, "biotools.json")
    assert str(exc.value) == f"biotools.json: record 1: line break in {field!r}"


def test_build_filters_short_numeric_and_common():
    entries = ingest("custom", "R\n42\n2.5\nusing\nBWA\n")
    gaz = build_gazetteer(entries)
    assert sorted(gaz.entries) == ["bwa"]
    assert gaz.normalization["filtered"] == \
        {"too_short": 1, "numeric": 2, "common_word": 1}


def test_build_filters_are_configurable():
    entries = ingest("custom", "R\n42\nusing\n")
    gaz = build_gazetteer(entries, min_length=1, drop_numeric=False,
                          drop_common_words=False)
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


def test_source_sets_are_shared_per_dump_and_per_union():
    biotools = ingest("biotools", '[{"name":"BWA","binaries":["bwa-mem"]},{"name":"STAR"}]')
    bioconda = ingest("bioconda", "bwa\nstar\nhisat2\n")
    assert len({id(e.sources) for e in biotools}) == 1
    assert len({id(e.sources) for e in bioconda}) == 1
    gaz = build_gazetteer(biotools + bioconda)
    both = gaz.entries["bwa"].sources
    assert both == frozenset({"biotools", "bioconda"})
    assert gaz.entries["star"].sources is both
    assert gaz.entries["hisat2"].sources is bioconda[0].sources


def test_loaded_entries_with_equal_sources_share_one_set():
    gaz = build_gazetteer(ingest("custom", "BWA\nSAMtools\nSTAR\n") +
                          ingest("bioconda", "bwa\nstar\n"))
    back = Gazetteer.from_json_dict(json.loads(json.dumps(gaz.to_json_dict())))
    assert back.entries == gaz.entries
    assert back.entries["bwa"].sources is back.entries["star"].sources
    assert back.entries["samtools"].sources == frozenset({"custom"})


@pytest.mark.parametrize("bad_sources", [["custom", 1], [["custom"]], [{"custom": 1}],
                                         [None]])
def test_a_bad_source_after_a_valid_list_names_its_entry(bad_sources):
    row = {"key": "bwa", "canonical": "BWA", "kind": TOOL_NAME, "sources": ["custom"]}
    data = {"entries": [row, {**row, "key": "star", "canonical": "STAR"},
                        {**row, "key": "x1", "canonical": "X1", "sources": bad_sources}]}
    with pytest.raises(MalformedDump) as exc:
        Gazetteer.from_json_dict(data, "gaz.json")
    assert exc.value.where == "record 2"
    assert str(exc.value).startswith("gaz.json: record 2: entry must be")


@pytest.mark.parametrize("change", [{"canonical": "  "}, {"extra": 1}, {"kind": None}])
def test_a_bad_entry_after_a_cached_sources_list_names_its_entry(change):
    row = {"key": "bwa", "canonical": "BWA", "kind": TOOL_NAME, "sources": ["custom"]}
    with pytest.raises(MalformedDump) as exc:
        Gazetteer.from_json_dict({"entries": [row, {**row, "key": "star", **change}]})
    assert exc.value.where == "record 1"


def test_common_words_skip_blank_and_indented_comment_lines():
    assert common_words("The\n  # a comment\n\n  Using \r\n#x\n") == \
        frozenset({"the", "using"})


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


def test_vocab_entry_is_an_immutable_value_with_named_fields():
    sources = frozenset({"biotools"})
    entry = VocabEntry("BWA", TOOL_NAME, sources)
    assert (entry.canonical, entry.kind, entry.sources) == ("BWA", TOOL_NAME, sources)
    assert VocabEntry(sources=sources, kind=TOOL_NAME, canonical="BWA") == entry
    assert hash(VocabEntry("BWA", TOOL_NAME, frozenset({"biotools"}))) == hash(entry)
    assert entry != VocabEntry("BWA", BINARY_NAME, sources)
    # documented: an entry equals the plain tuple of its fields
    assert entry == ("BWA", TOOL_NAME, sources)
    assert repr(entry) == ("VocabEntry(canonical='BWA', kind='tool_name', "
                           "sources=frozenset({'biotools'}))")
    with pytest.raises(AttributeError):
        entry.canonical = "SAMtools"
    with pytest.raises(AttributeError):
        entry.extra = 1
    for blank in ("", "  ", "\t\n"):
        with pytest.raises(ValueError, match="vocab entry name is empty"):
            VocabEntry(blank, TOOL_NAME, sources)


def test_vocab_entry_copies_and_pickles_as_itself():
    entry = VocabEntry("BWA", TOOL_NAME, frozenset({"biotools"}))
    for clone in (copy.copy(entry), copy.deepcopy(entry),
                  pickle.loads(pickle.dumps(entry))):
        assert type(clone) is VocabEntry and clone == entry
    match entry:
        case VocabEntry(canonical, kind, _sources):
            assert (canonical, kind) == ("BWA", TOOL_NAME)


def test_a_name_seen_once_keeps_its_ingested_entry():
    custom = ingest("custom", "BWA\nSAMtools\n")
    bioconda = ingest("bioconda", "bwa\n")
    gaz = build_gazetteer(custom + bioconda)
    assert gaz.entries["samtools"] is custom[1]
    assert gaz.entries["bwa"] == VocabEntry("BWA", TOOL_NAME,
                                            frozenset({"custom", "bioconda"}))
    spaced = VocabEntry(" STAR ", BINARY_NAME, frozenset({"custom"}))
    assert build_gazetteer([spaced]).entries["star"] == ("STAR", BINARY_NAME,
                                                          spaced.sources)


_ROW = {"key": "bwa", "canonical": "BWA", "kind": TOOL_NAME, "sources": ["biotools"]}


def test_a_repeated_key_in_a_gazetteer_file_is_an_error():
    data = {"entries": [_ROW, {**_ROW, "key": "star", "canonical": "STAR"},
                        {**_ROW, "canonical": "Samtools"}]}
    with pytest.raises(MalformedDump) as exc:
        Gazetteer.from_json_dict(data, "gaz.json")
    assert str(exc.value) == "gaz.json: record 2: duplicate key 'bwa'"
    assert exc.value.where == "record 2"


@pytest.mark.parametrize("normalization", [5, None, [], "x"])
def test_normalization_must_be_an_object(normalization):
    with pytest.raises(MalformedDump) as exc:
        Gazetteer.from_json_dict({"normalization": normalization, "entries": [_ROW]},
                                 "gaz.json")
    assert str(exc.value) == "gaz.json: 'normalization' must be a JSON object"
    assert Gazetteer.from_json_dict({"entries": [_ROW]}).normalization == {}


# Names that collide under case folding, carry surrounding space, fall to a
# filter or are not ASCII.  No name holds "/", ":" or "@" (image listings
# split on them), starts with "#" or holds a line break.
_NAMES = st.sampled_from(["BWA", "bwa", "Bwa", " bwa ", "SAMtools", "samtools\t",
                          "STAR", "star", "R", "42", "2.5", "using", "the", "C++",
                          "Burrows Wheeler", "Straße", "STRASSE", "ß", "İzmir",
                          "ǅemal", "Ωmega", "ωMEGA", "tool-1", "x"])
_DUMPS = st.lists(st.tuples(st.sampled_from(SOURCE_KINDS), st.lists(_NAMES, max_size=8),
                            st.lists(_NAMES, max_size=3)), max_size=5)


def _dump_payload(kind, names, binaries):
    if kind == "biotools":
        records = [{"name": name} for name in names]
        if records:
            records[0]["binaries"] = binaries
        return json.dumps(records)
    if kind == "biocontainers":
        return "".join(f"quay.io/biocontainers/{name.strip()}:1.0\n" for name in names)
    return "".join(name + "\r\n" for name in names)


@settings(max_examples=200)
@given(_DUMPS, st.lists(st.tuples(_NAMES, st.sampled_from([TOOL_NAME, BINARY_NAME]),
                                  st.sampled_from(SOURCE_KINDS)), max_size=4),
       st.integers(1, 3), st.booleans(), st.booleans())
def test_build_equals_the_oracle(dumps, loose, min_length, drop_numeric, drop_common):
    entries = [entry for kind, names, binaries in dumps
               for entry in ingest(kind, _dump_payload(kind, names, binaries))]
    # entries made by hand keep their surrounding space until the build
    entries += [VocabEntry(name, kind, frozenset({source})) for name, kind, source in loose]
    options = dict(min_length=min_length, drop_numeric=drop_numeric,
                   drop_common_words=drop_common)
    gaz = build_gazetteer(entries, **options)
    kept, normalization = oracle_build_gazetteer(entries, **options)
    assert [(key, *entry) for key, entry in gaz.entries.items()] == \
        [(key, e.canonical, e.kind, e.sources) for key, e in kept.items()]
    assert gaz.normalization == normalization
    text = gaz.to_json_text()
    assert text == oracle_dumps_json(oracle_gazetteer_json(kept, normalization)) + "\n"
    assert Gazetteer.from_json_dict(json.loads(text)) == gaz


# Strings that JSON escapes, line breaks that re-indenting must not touch,
# "%" that the row template must not read, and non-ASCII and non-BMP
# characters.
_STRINGS = st.one_of(st.sampled_from(['"', "\\", "%", "%s", "%%(key)s", "\x00", "\x1f",
                                      "\x7f", "\u2028", "é", "Straße", "𝔅", "\U0010ffff",
                                      "\n", "\r\n", "a\n  b"]),
                     st.text(max_size=5))
_SOURCE_SETS = st.frozensets(_STRINGS, max_size=3)
_NORMALIZATIONS = st.dictionaries(_STRINGS, st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _STRINGS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner,
                                                                max_size=3),
    max_leaves=8), max_size=4)


@settings(max_examples=200)
@given(st.lists(st.tuples(_STRINGS, _STRINGS.filter(str.strip), _STRINGS,
                          st.one_of(st.integers(0, 1), _SOURCE_SETS)), max_size=6),
       st.tuples(_SOURCE_SETS, _SOURCE_SETS), _NORMALIZATIONS)
def test_to_json_text_equals_the_stdlib_indented_encoder(rows, shared, normalization):
    # An integer picks one of two source sets that its entries share; a
    # drawn set is the entry's own, though it may equal another.
    entries = {key: VocabEntry(canonical, kind,
                               shared[sources] if type(sources) is int else sources)
               for key, canonical, kind, sources in rows}
    gaz = Gazetteer(entries, normalization)
    assert gaz.to_json_text() == oracle_dumps_json(
        oracle_gazetteer_json(gaz.entries, gaz.normalization)) + "\n"


def test_an_empty_gazetteer_writes_an_empty_entry_list():
    text = Gazetteer({}, {}).to_json_text()
    assert text == '{\n  "normalization": {},\n  "entries": []\n}\n'
    assert text == oracle_dumps_json({"normalization": {}, "entries": []}) + "\n"
