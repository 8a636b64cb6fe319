import json
from pathlib import Path

import pytest

from flowner.cli import main
from flowner.corpus_io import load_corpus_dir, write_corpus_dir
from flowner.model import Corpus, Document, Provenance
from flowner.tagger import (ExternalPredictions, MalformedPrediction, MalformedRules,
                            ruleset_from_file)
from util import doc_of, ent


@pytest.fixture
def gold_dir(tmp_path):
    text = "aligned with BWA in Python pipelines"
    corpus = Corpus("gold", (
        doc_of("d1", text,
               ent("T1", "Tool", 13, 16, text),
               ent("T2", "ProgrammingLanguage", 20, 26, text)),
        doc_of("d2", "nothing annotated here"),
    ))
    path = tmp_path / "gold"
    write_corpus_dir(corpus, path)
    return path


def _write_pred_dir(tmp_path, name="pred"):
    text = "aligned with BWA in Python pipelines"
    corpus = Corpus(name, (
        doc_of("d1", text, ent("T1", "Tool", 13, 16, text)),
        doc_of("d2", "nothing annotated here"),
    ))
    path = tmp_path / name
    write_corpus_dir(corpus, path)
    return path


def test_validate_ok_exits_zero(gold_dir, capsys):
    assert main(["validate", "--corpus", str(gold_dir)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_validate_broken_corpus_exits_one(tmp_path, capsys):
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "d1.txt").write_text("short", encoding="utf-8")
    (tmp_path / "bad" / "d1.ann").write_text("T1\tTool 0 99\tshort\n",
                                             encoding="utf-8")
    assert main(["validate", "--corpus", str(tmp_path / "bad")]) == 1
    assert "OffsetOutOfRange" in capsys.readouterr().out


def test_missing_required_flag_exits_two(capsys):
    assert main(["stats"]) == 2
    assert "required" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_stats_writes_json(gold_dir, tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert main(["stats", "--corpus", str(gold_dir), "--out", str(out)]) == 0
    data = json.loads(out.read_text("utf-8"))
    assert data["labels"] == {"ProgrammingLanguage": 1, "Tool": 1}
    assert data["documents"] == 2


def test_eval_with_focus(gold_dir, tmp_path, capsys):
    pred = _write_pred_dir(tmp_path)
    out = tmp_path / "report.json"
    code = main(["eval", "--gold", str(gold_dir), "--pred", str(pred),
                 "--mode", "relaxed",
                 "--focus", "Tool,Biblio,Version,LibraryPackage,"
                            "ProgrammingLanguage,Environment",
                 "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Overall-focused" in printed
    data = json.loads(out.read_text("utf-8"))
    assert data["mode"] == "relaxed"
    assert data["overall"]["tp"] == 1
    assert data["overall"]["fn"] == 1
    assert set(data["label_filter"]) >= {"Tool", "Biblio"}


def test_eval_both_modes_and_diff(gold_dir, tmp_path, capsys):
    pred = _write_pred_dir(tmp_path)
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(pred),
                 "--diff"]) == 0
    out = capsys.readouterr().out
    assert "== strict ==" in out and "== relaxed ==" in out
    assert "MISSED\td1\tProgrammingLanguage" in out


def test_eval_doc_mismatch_exits_one(gold_dir, tmp_path, capsys):
    other = tmp_path / "other"
    write_corpus_dir(Corpus("x", (doc_of("zz", "different"),)), other)
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(other)]) == 1


def test_iaa_symmetric_output(gold_dir, tmp_path, capsys):
    assert main(["iaa", "--annotator-a", str(gold_dir),
                 "--annotator-b", str(gold_dir), "--mode", "relaxed"]) == 0
    assert "100.0" in capsys.readouterr().out


def test_split_writes_manifests(gold_dir, tmp_path, capsys):
    # need >= 4 docs
    big = tmp_path / "big"
    write_corpus_dir(Corpus("big", tuple(
        doc_of(f"d{i}", "some text") for i in range(8))), big)
    out = tmp_path / "splits"
    assert main(["split", "--corpus", str(big), "--n", "5", "--seed", "17",
                 "--out", str(out)]) == 0
    files = sorted(out.glob("split_*.json"))
    assert len(files) == 5
    first = json.loads(files[0].read_text("utf-8"))
    assert set(first) == {"split_id", "seed", "train", "dev", "test", "ratios"}
    before = [f.read_bytes() for f in files]
    assert main(["split", "--corpus", str(big), "--n", "5", "--seed", "17",
                 "--out", str(out)]) == 0
    assert [f.read_bytes() for f in sorted(out.glob("split_*.json"))] == before


def test_convert_pipeline(tmp_path, capsys):
    text = "We used BWA v2 fig"
    src = tmp_path / "softcite"
    src.mkdir()
    (src / "a1.txt").write_text(text, encoding="utf-8")
    (src / "a1.ann").write_text(
        "T1\tsoftware 8 11\tBWA\nT2\tversion 12 14\tv2\nT3\tfigure 15 18\tfig\n",
        encoding="utf-8")
    out = tmp_path / "converted"
    report = tmp_path / "conv.json"
    assert main(["convert", "--corpus", str(src), "--out", str(out),
                 "--report", str(report)]) == 0
    converted = load_corpus_dir(out)
    assert [e.label.base for e in converted.documents[0].entities] == \
        ["Tool", "Version"]
    assert json.loads(report.read_text("utf-8"))["dropped"] == {"figure": 1}


def test_gazetteer_build_export_tag_silver(tmp_path, capsys):
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    (dumps / "biotools.json").write_text(
        '[{"name":"BWA"},{"name":"SAMtools"}]', encoding="utf-8")
    (dumps / "bioconda.txt").write_text("bwa\nstar\n", encoding="utf-8")
    gaz_path = tmp_path / "gaz.json"
    assert main(["gazetteer", "build", "--biotools", str(dumps / "biotools.json"),
                 "--bioconda", str(dumps / "bioconda.txt"),
                 "--out", str(gaz_path)]) == 0
    vocab = tmp_path / "vocab.txt"
    assert main(["gazetteer", "export", "--gazetteer", str(gaz_path),
                 "--out", str(vocab)]) == 0
    assert vocab.read_text("utf-8").splitlines() == ["BWA", "SAMtools", "star"]

    corpus_dir = tmp_path / "plain"
    write_corpus_dir(Corpus("plain", (
        doc_of("d1", "aligned with BWA v1.2 and star"),)), corpus_dir)
    tagged_dir = tmp_path / "tagged"
    assert main(["tag", "--corpus", str(corpus_dir), "--gazetteer", str(gaz_path),
                 "--out", str(tagged_dir)]) == 0
    tagged = load_corpus_dir(tagged_dir)
    surfaces = {e.surface for e in tagged.documents[0].entities}
    assert {"BWA", "v1.2", "star"} <= surfaces

    silver_dir = tmp_path / "silver"
    assert main(["silver", "--corpus", str(corpus_dir),
                 "--gazetteer", str(gaz_path), "--out", str(silver_dir)]) == 0
    assert (silver_dir / "d1.ann").exists()


def test_silver_with_external_predictions(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"doc_id": "d1", "label": "Tool", "start": 13, '
                     '"end": 16, "surface": "BWA"}\n', encoding="utf-8")
    out = tmp_path / "silver"
    assert main(["silver", "--corpus", str(corpus_dir),
                 "--predictions", str(preds), "--out", str(out)]) == 0
    assert "T1\tTool 13 16\tBWA" in (out / "d1.ann").read_text("utf-8")


def test_silver_needs_a_predictor(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "text"),)), corpus_dir)
    assert main(["silver", "--corpus", str(corpus_dir),
                 "--out", str(tmp_path / "o")]) == 2


def test_fuse_cli(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_corpus_dir(Corpus("a", (doc_of("g1", "x"),)), a)
    write_corpus_dir(Corpus("b", (doc_of("c1", "y"), doc_of("c2", "z"))), b)
    out = tmp_path / "fused"
    assert main(["fuse", "--source", str(a), "--source", f"{b}:converted",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"documents": 3,
                       "provenance": {"converted": 2, "gold": 1}}


def test_report_cli(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    for i, tp in enumerate((60, 70, 80)):
        run = {
            "split_id": i, "seed_model": 1,
            "report": {"mode": "relaxed",
                       "per_label": {"Tool": {"tp": tp, "fp": 100 - tp,
                                              "fn": 100 - tp,
                                              "p": 0, "r": 0, "f1": 0}},
                       "overall": {"tp": 0, "fp": 0, "fn": 0,
                                   "p": 0, "r": 0, "f1": 0},
                       "label_filter": None},
            "meta": {"note": "synthetic"},
        }
        (results / f"run{i}.json").write_text(json.dumps(run), encoding="utf-8")
    assert main(["report", "--results", str(results), "--layout", "csv"]) == 0
    out = capsys.readouterr().out
    assert "Tool,70.0 ±10.0,70.0 ±10.0,70.0 ±10.0" in out


def test_config_file_supplies_defaults(gold_dir, tmp_path, capsys):
    pred = _write_pred_dir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gold": str(gold_dir), "pred": str(pred),
                                  "mode": "strict"}), encoding="utf-8")
    assert main(["eval", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "== strict ==" in out and "== relaxed ==" not in out
    # explicit flags win over the config file
    assert main(["eval", "--config", str(config), "--mode", "relaxed"]) == 0
    assert "== relaxed ==" in capsys.readouterr().out


def test_inputs_are_never_mutated(gold_dir, tmp_path):
    pred = _write_pred_dir(tmp_path)
    snapshot = {p.name: p.read_bytes() for p in sorted(gold_dir.iterdir())}
    main(["eval", "--gold", str(gold_dir), "--pred", str(pred)])
    main(["stats", "--corpus", str(gold_dir)])
    assert {p.name: p.read_bytes() for p in sorted(gold_dir.iterdir())} == snapshot


def test_config_equals_form_applies(gold_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    out = tmp_path / "stats.json"
    config.write_text(json.dumps({"out": str(out)}), encoding="utf-8")
    assert main(["stats", "--corpus", str(gold_dir), f"--config={config}"]) == 0
    assert json.loads(out.read_text("utf-8")) == json.loads(capsys.readouterr().out)


def test_unknown_config_keys_exit_two(gold_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"focus": "Tool", "label_filter": "Tool",
                                  "outt": "x"}), encoding="utf-8")
    assert main(["stats", "--corpus", str(gold_dir), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"usage error: unknown config key(s) in {config}: "
                            "label_filter, outt\n")
    assert captured.out == ""


def test_fuse_unknown_role_exits_two(tmp_path, capsys):
    a = tmp_path / "a"
    write_corpus_dir(Corpus("a", (doc_of("g1", "x"),)), a)
    assert main(["fuse", "--source", f"{a}:bogus", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "gold|silver|converted" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("record, reason", [
    ('{"doc_id": "d1", "label": "Tool", "end": 16, "surface": "BWA"}',
     "missing field(s) start"),
    ('{"doc_id": "d1", "label": "Tool", "start": 13, "end": 16, "surface": "BWA", '
     '"qualifer": "General"}', "unknown field(s) qualifer"),
    ('{"doc_id": "d1", "label": "Tool", "start": 13,', "invalid JSON"),
    ('["d1", "Tool", 13, 16, "BWA"]', "not a JSON object"),
    ('{"doc_id": "d1", "label": "Tool", "start": 16, "end": 13, "surface": "BWA"}',
     "span must be non-empty"),
])
def test_malformed_jsonl_prediction_names_file_and_line(tmp_path, capsys, record, reason):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"doc_id": "d1", "label": "Tool", "start": 13, "end": 16, '
                     '"surface": "BWA"}\n\n' + record + "\n", encoding="utf-8")
    with pytest.raises(MalformedPrediction) as exc:
        ExternalPredictions.from_jsonl(preds)
    assert exc.value.line_no == 3
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{preds}:3: " in err and reason in err


@pytest.mark.parametrize("rules, key, reason", [
    ('{"version_pattern": ["v[0-9]+"]}', "version_pattern", "unknown key"),
    ('{"fixed_lists": {"ProgrammingLanguage": "Python"}}',
     "fixed_lists.ProgrammingLanguage", "expected a list of strings"),
    ('{"biblio_patterns": ["[0-9"]}', "biblio_patterns[0]", "invalid regex"),
    ('{"fixed_lists": {', None, "invalid JSON"),
    ('{"fixed_lists": {"Toool": ["BWA"]}}', "fixed_lists.Toool",
     "not a label of the workflow schema"),
])
def test_malformed_rules_file_names_file_and_key(tmp_path, capsys, rules, key, reason):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "written in Python"),)), corpus_dir)
    gaz_path = tmp_path / "gaz.json"
    gaz_path.write_text('{"entries": []}', encoding="utf-8")
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(rules, encoding="utf-8")
    with pytest.raises(MalformedRules) as exc:
        ruleset_from_file(rules_path)
    assert exc.value.key == key
    assert main(["tag", "--corpus", str(corpus_dir), "--gazetteer", str(gaz_path),
                 "--rules", str(rules_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{rules_path}: {key + ': ' if key else ''}" in err and reason in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, content, reason", [
    ("--gazetteer", '{"entries": [', "invalid JSON"),
    ("--gazetteer", "[]", "expected a JSON object with an 'entries' list"),
    ("--gazetteer", '{"entries": [{"canonical": "BWA", "kind": "tool_name", '
                    '"sources": []}]}', "record 0: entry must be an object"),
    ("--table", '[{"source": ', "invalid JSON"),
    ("--table", '{"source": "software"}', "expected a JSON array of rows"),
    ("--table", '[{"target": "Tool"}]', "row 0: 'source' must be a string"),
    ("--table", '[{"source": "software", "target": "Toool"}]',
     "row 0: target Toool is not a label of the workflow schema"),
    ("--table", '[{"source": "software", "target": "Tool", "qualifier": "Nope"}]',
     "row 0: target Tool(Nope) is not a label"),
    ("--results", '{"split_id": ', "invalid JSON"),
    ("--results", "[]", "not a run result"),
    ("--results", '{"split_id": 0, "seed_model": 1, "report": {"mode": "strict"}}',
     "missing field 'per_label'"),
    ("--config", '{"out": ', "invalid JSON"),
    ("--config", "[]", "--config must contain a JSON object"),
    ("gazetteer build --biotools", '[{"name": ', "payload is not valid JSON"),
    ("gazetteer build --biotools", '{"name": "BWA"}', "payload must be a JSON array"),
    ("gazetteer build --biotools", '[{"name": "BWA"}, {"label": "x"}]',
     "record 1: record has no usable 'name' field"),
])
def test_malformed_json_input_names_its_file(tmp_path, capsys, flag, content, reason):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    path = tmp_path / "input.json"
    path.write_text(content, encoding="utf-8")
    out = str(tmp_path / "o")
    argv = {
        "--gazetteer": ["tag", "--corpus", str(corpus_dir), "--gazetteer", str(path),
                        "--out", out],
        "--table": ["convert", "--corpus", str(corpus_dir), "--table", str(path),
                    "--out", out],
        "--results": ["report", "--results", str(path), "--out", out],
        "--config": ["stats", "--corpus", str(corpus_dir), "--config", str(path),
                     "--out", out],
        "gazetteer build --biotools": ["gazetteer", "build", "--biotools", str(path),
                                       "--out", out],
    }[flag]
    assert main(argv) == (2 if flag == "--config" else 1)
    err = capsys.readouterr().err
    assert f"{path}: " in err and reason in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# Byte 0xff on the second line, at byte offset 18.
_NOT_UTF8 = b"T1\tTool 13 16\tBWA\n\xff\n"
_NOT_UTF8_REASON = "not UTF-8: byte 0xff at offset 18"


def _corpus_with_undecodable(tmp_path, suffix):
    """Corpus ``c`` of d1 (made undecodable in its ``suffix`` file) and d2,
    whose annotation is out of range."""
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),
                                  doc_of("d2", "short"))), corpus_dir)
    (corpus_dir / "d2.ann").write_text("T1\tTool 0 99\tshort\n", encoding="utf-8")
    bad = corpus_dir / f"d1{suffix}"
    bad.write_bytes(_NOT_UTF8)
    return corpus_dir, bad


@pytest.mark.parametrize("suffix", [".ann", ".txt"])
def test_undecodable_document_names_its_file_and_line(tmp_path, capsys, suffix):
    corpus_dir, bad = _corpus_with_undecodable(tmp_path, suffix)
    assert main(["stats", "--corpus", str(corpus_dir)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: {_NOT_UTF8_REASON}" in err and "Traceback" not in err


@pytest.mark.parametrize("suffix", [".ann", ".txt"])
def test_validate_lists_an_undecodable_document_and_checks_the_rest(tmp_path, capsys,
                                                                     suffix):
    corpus_dir, bad = _corpus_with_undecodable(tmp_path, suffix)
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    captured = capsys.readouterr()
    assert f"StandoffParseError at {bad}:2: {_NOT_UTF8_REASON}" in captured.out
    assert "OffsetOutOfRange at d2:1" in captured.out
    assert "2 violation(s) in 2 document(s)" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("flag", ["--table", "--gazetteer", "gazetteer build --biotools",
                                  "gazetteer build --common-words"])
def test_undecodable_json_input_names_its_file(tmp_path, capsys, flag):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    path = tmp_path / "input.json"
    path.write_bytes(b'[\n"\xff"]')
    dump = tmp_path / "bioweb.txt"
    dump.write_text("BWA\n", encoding="utf-8")
    out = str(tmp_path / "o")
    argv = {
        "--table": ["convert", "--corpus", str(corpus_dir), "--table", str(path)],
        "--gazetteer": ["tag", "--corpus", str(corpus_dir), "--gazetteer", str(path)],
        "gazetteer build --biotools": ["gazetteer", "build", "--biotools", str(path)],
        "gazetteer build --common-words": ["gazetteer", "build", "--bioweb", str(dump),
                                           "--common-words", str(path)],
    }[flag]
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8: byte 0xff at offset 3 (line 2)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["pd/d1.ann", "preds.jsonl"])
def test_undecodable_prediction_file_names_its_file_and_line(tmp_path, capsys, name):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    (tmp_path / "pd").mkdir()
    bad = tmp_path / name
    bad.write_bytes(_NOT_UTF8)
    preds = bad.parent if bad.suffix == ".ann" else bad
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: {_NOT_UTF8_REASON}" in err and "Traceback" not in err


def _crlf_corpus(tmp_path):
    """Corpus ``c`` with one document whose text and annotation end lines in CRLF."""
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    (corpus_dir / "d2.txt").write_bytes(b"BWA\r\nx\r\n")
    (corpus_dir / "d2.ann").write_bytes(b"T1\tTool 5 6\tx\r\n")
    return corpus_dir


def test_crlf_text_keeps_its_offsets(tmp_path, capsys):
    corpus_dir = _crlf_corpus(tmp_path)
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0
    assert "0 violation(s) in 1 document(s)" in capsys.readouterr().out
    (doc,) = load_corpus_dir(corpus_dir).documents
    assert doc.text == "BWA\r\nx\r\n"
    assert [(e.start, e.end, e.surface) for e in doc.entities] == [(5, 6, "x")]


def test_span_digit_int_rejects_is_a_malformed_line(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    (corpus_dir / "d1.txt").write_text("BWA", encoding="utf-8")
    (corpus_dir / "d1.ann").write_text("T1\tTool 0 \u00b2\tBWA\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    out = capsys.readouterr().out
    assert "MalformedLine at d1:1: bad span segment '0 \u00b2'" in out
    assert "1 violation(s) in 1 document(s)" in out
    assert main(["stats", "--corpus", str(corpus_dir)]) == 1
    assert "error: d1:1: bad span segment '0 \u00b2'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_a_directory_named_like_a_document_is_an_error(tmp_path, capsys, command):
    corpus_dir = _crlf_corpus(tmp_path)
    (corpus_dir / "dir.txt").mkdir()
    assert main([command, "--corpus", str(corpus_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error: [Errno 21] Is a directory: '{corpus_dir / 'dir.txt'}'" in err
