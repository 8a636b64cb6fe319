import json
import re

import pytest

from flowner.cli import main
from flowner.corpus_io import load_corpus_dir, write_corpus_dir
from flowner.experiment import split_sizes
from flowner.gazetteer import SOURCE_KINDS, Gazetteer, build_gazetteer, ingest
from flowner.model import Corpus
from flowner.standoff import SurfaceMismatch
from flowner.tagger import (MalformedPrediction, MalformedRules, read_predictions,
                            ruleset_from_file)
from oracles import oracle_dumps_json, oracle_gazetteer_json
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


def test_validate_against_the_schema_reports_a_foreign_label(tmp_path, capsys):
    text = "aligned with BWA"
    write_corpus_dir(Corpus("c", (doc_of("d1", text, ent("T1", "software", 13, 16, text)),)),
                     tmp_path / "c")
    assert main(["validate", "--corpus", str(tmp_path / "c"), "--schema", "biotoflow"]) == 1
    assert capsys.readouterr().out == (
        "UnregisteredLabel at d1/T1: label 'software' is not in the schema\n"
        "1 violation(s) in 1 document(s)\n")


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
    text = oracle_dumps_json(data) + "\n"
    assert out.read_text("utf-8") == capsys.readouterr().out == text


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
    text = out.read_text("utf-8")
    data = json.loads(text)
    assert text == oracle_dumps_json(data) + "\n"
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
    out = tmp_path / "iaa.json"
    assert main(["iaa", "--annotator-a", str(gold_dir),
                 "--annotator-b", str(gold_dir), "--mode", "relaxed",
                 "--json", str(out)]) == 0
    assert "100.0" in capsys.readouterr().out
    text = out.read_text("utf-8")
    assert text == oracle_dumps_json(json.loads(text)) + "\n"


_CORPUS_FLAGS = {"eval": ["--gold", "--pred"], "iaa": ["--annotator-a", "--annotator-b"]}


def _cell_ends(line):
    return [m.end() for m in re.finditer(r"\S+", line)]


@pytest.mark.parametrize("command", ["eval", "iaa"])
def test_the_macro_row_ends_its_cells_in_the_columns_of_the_table(gold_dir, tmp_path,
                                                                  capsys, command):
    pred = _write_pred_dir(tmp_path)
    first, second = _CORPUS_FLAGS[command]
    assert main([command, first, str(gold_dir), second, str(pred), "--mode", "relaxed",
                 "--focus", "Tool", "--macro"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line == line.rstrip() for line in lines)
    start = next(i for i, line in enumerate(lines) if line.startswith("Entities"))
    header, rows, macro = lines[start], lines[start + 1:-1], lines[-1]
    assert [row.split()[0] for row in rows] == ["ProgrammingLanguage", "Tool",
                                                "Overall-focused"]
    assert macro.split() == ["Macro", "100.0", "100.0", "100.0"]
    assert all(_cell_ends(row)[1:] == _cell_ends(header)[1:] for row in rows)
    assert _cell_ends(macro)[1:] == _cell_ends(header)[1:4]


def test_the_macro_row_of_corpora_without_entities_is_zero(tmp_path, capsys):
    for name in ("gold", "pred"):
        write_corpus_dir(Corpus(name, (doc_of("d1", "nothing annotated"),)), tmp_path / name)
    assert main(["eval", "--gold", str(tmp_path / "gold"), "--pred", str(tmp_path / "pred"),
                 "--mode", "strict", "--macro"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Macro     0.0  0.0  0.0"


def test_eval_relaxed_and_iaa_print_and_write_the_same_report(gold_dir, tmp_path, capsys):
    pred = _write_pred_dir(tmp_path)
    shared = ["--focus", "Tool,ProgrammingLanguage", "--macro", "--diff"]
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(pred), "--mode", "relaxed",
                 "--json", str(tmp_path / "eval.json")] + shared) == 0
    evaluated = capsys.readouterr().out
    assert main(["iaa", "--annotator-a", str(gold_dir), "--annotator-b", str(pred),
                 "--json", str(tmp_path / "iaa.json")] + shared) == 0
    agreed = capsys.readouterr().out
    assert "Macro" in agreed and "MISSED" in agreed
    assert evaluated == "== relaxed ==\n" + agreed
    assert (tmp_path / "eval.json").read_bytes() == (tmp_path / "iaa.json").read_bytes()


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
    for f in files:
        text = f.read_text("utf-8")
        assert text == oracle_dumps_json(json.loads(text)) + "\n"
    before = [f.read_bytes() for f in files]
    assert main(["split", "--corpus", str(big), "--n", "5", "--seed", "17",
                 "--out", str(out)]) == 0
    assert [f.read_bytes() for f in sorted(out.glob("split_*.json"))] == before


@pytest.mark.parametrize("from_config", [False, True])
def test_split_takes_valid_ratios_from_the_flag_or_the_config(tmp_path, capsys, from_config):
    corpus = tmp_path / "c"
    write_corpus_dir(Corpus("c", tuple(doc_of(f"d{i}", "some text") for i in range(8))),
                     corpus)
    out = tmp_path / "splits"
    argv = ["split", "--corpus", str(corpus), "--out", str(out), "--n", "2"]
    if from_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ratios": "0.5,0.5"}), encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv += ["--ratios", "0.5,0.5"]
    assert main(argv) == 0
    sizes = split_sizes(8, (0.5, 0.5))
    assert sizes == (2, 2, 4)
    for path in sorted(out.glob("split_*.json")):
        manifest = json.loads(path.read_text("utf-8"))
        assert manifest["ratios"] == [0.5, 0.5]
        assert tuple(len(manifest[part]) for part in ("train", "dev", "test")) == sizes


@pytest.mark.parametrize("flags, named", [
    (["--n", "0"], "--n"), (["--n", "-3"], "--n"), (["--ratios", "a,b"], "--ratios"),
    (["--ratios", "0.8"], "--ratios"), (["--ratios", "0.8,0.3,0.1"], "--ratios"),
    (["--ratios", "1.5,0.3"], "--ratios"), (["--ratios", "nan,0.3"], "--ratios"),
    (["--ratios", ""], "--ratios"),
])
def test_split_with_no_splits_or_bad_ratios_is_a_usage_error(tmp_path, capsys, flags,
                                                              named):
    corpus = tmp_path / "c"
    write_corpus_dir(Corpus("c", tuple(doc_of(f"d{i}", "some text") for i in range(8))),
                     corpus)
    out = tmp_path / "splits"
    assert main(["split", "--corpus", str(corpus), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: {named} ") and captured.out == ""
    assert not out.exists()


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
    data = json.loads(report.read_text("utf-8"))
    assert data["dropped"] == {"figure": 1}
    text = oracle_dumps_json(data) + "\n"
    assert report.read_text("utf-8") == capsys.readouterr().out == text


@pytest.mark.parametrize("split_flag", [[], ["--split-multiword"]])
def test_gazetteer_export_prints_the_line_count_of_its_file(tmp_path, capsys, split_flag):
    dump = tmp_path / "custom.txt"
    dump.write_text("Burrows Wheeler Aligner\nBWA\nSAMtools\n", encoding="utf-8")
    gaz_path = tmp_path / "gaz.json"
    assert main(["gazetteer", "build", "--custom", str(dump), "--out", str(gaz_path)]) == 0
    capsys.readouterr()
    vocab = tmp_path / "vocab.txt"
    assert main(["gazetteer", "export", "--gazetteer", str(gaz_path), "--out", str(vocab),
                 *split_flag]) == 0
    n_lines = len(vocab.read_text("utf-8").splitlines())
    assert n_lines == (6 if split_flag else 3)
    assert capsys.readouterr().out == f"wrote {n_lines} line(s) to {vocab}\n"


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

    # The tagger's output read back as model predictions is written unchanged.
    silver_dir = tmp_path / "silver"
    assert main(["silver", "--corpus", str(corpus_dir),
                 "--predictions", str(tagged_dir), "--out", str(silver_dir)]) == 0
    assert (silver_dir / "d1.ann").read_bytes() == (tagged_dir / "d1.ann").read_bytes()


def test_silver_reads_model_predictions_only(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["silver", "--corpus", str(tmp_path), "--gazetteer", "gaz.json",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_gazetteer_build_writes_the_stdlib_indented_json(tmp_path, capsys):
    biotools = tmp_path / "biotools.json"
    biotools.write_text(json.dumps([{"name": "Bowtie\u00a02", "binaries": ["bowtie2"]},
                                    {"name": 'say "hi"\\'}, {"name": "Ångström-Σ"}]),
                        encoding="utf-8")
    bioconda = tmp_path / "bioconda.txt"
    bioconda.write_text("bowtie2\nsamtools\n", encoding="utf-8")
    out = tmp_path / "gaz.json"
    assert main(["gazetteer", "build", "--biotools", str(biotools),
                 "--bioconda", str(bioconda), "--out", str(out)]) == 0
    gaz = build_gazetteer(ingest("biotools", biotools.read_text("utf-8")) +
                          ingest("bioconda", bioconda.read_text("utf-8")))
    assert out.read_text("utf-8") == oracle_dumps_json(
        oracle_gazetteer_json(gaz.entries, gaz.normalization)) + "\n"
    assert "Ångström-Σ" in out.read_text("utf-8")


def test_dumps_without_names_are_an_error_naming_them(tmp_path, capsys):
    biotools = tmp_path / "biotools.json"
    biotools.write_text("[]", encoding="utf-8")
    bioweb = tmp_path / "bioweb.txt"
    bioweb.write_text("# only a comment\n", encoding="utf-8")
    out = tmp_path / "gaz.json"
    assert main(["gazetteer", "build", "--biotools", str(biotools),
                 "--bioweb", str(bioweb), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {biotools}, {bioweb}: no names found\n"
    assert not out.exists()
    assert main(["gazetteer", "build", "--out", str(out)]) == 2
    assert "no dump files given" in capsys.readouterr().err


def test_common_words_file_skips_indented_comment_lines(tmp_path, capsys):
    biotools = tmp_path / "biotools.json"
    biotools.write_text('[{"name": "# kept"}, {"name": "BWA"}, {"name": "STAR"}]',
                        encoding="utf-8")
    words = tmp_path / "words.txt"
    words.write_text("  # kept\nbwa\n", encoding="utf-8")
    out = tmp_path / "gaz.json"
    assert main(["gazetteer", "build", "--biotools", str(biotools),
                 "--common-words", str(words), "--out", str(out)]) == 0
    gaz = Gazetteer.from_json_dict(json.loads(out.read_text("utf-8")))
    assert sorted(gaz.entries) == ["# kept", "star"]
    assert gaz.normalization["filtered"]["common_word"] == 1


@pytest.mark.parametrize("name", ["preds.json", "pred_dirr"])
def test_silver_predictions_path_that_is_not_a_directory(tmp_path, capsys, name):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    missing = tmp_path / name
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(missing),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"error: predictions directory not found: {missing}" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_bad_prediction_ann_is_located_by_its_file(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "run BWA align now"),)), corpus_dir)
    pred_dir = tmp_path / "pd"
    pred_dir.mkdir()
    (pred_dir / "d1.ann").write_text("T1\tTool 4 7\tBWA align\n", encoding="utf-8")
    with pytest.raises(SurfaceMismatch):
        read_predictions(pred_dir, load_corpus_dir(corpus_dir))
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(pred_dir),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert (f"error: {pred_dir / 'd1.ann'}:1: recorded surface 'BWA align' != "
            "text slice 'BWA'") in err
    assert "Traceback" not in err


def test_silver_keeps_every_line_of_a_prediction_ann(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    pred_dir = tmp_path / "pd"
    pred_dir.mkdir()
    ann = "T1\tTool 13 16\tBWA\nA1\tNegated T1\n#1\tAnnotatorNotes T1\tcheck\n"
    (pred_dir / "d1.ann").write_text(ann, encoding="utf-8")
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(pred_dir),
                 "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "d1.ann").read_text("utf-8") == ann


def test_jsonl_predictions_are_checked_against_their_texts_in_file_order(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"), doc_of("d2", "short"))),
                     corpus_dir)
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        '{"doc_id": "d2", "label": "Tool", "start": 0, "end": 99, "surface": "short"}\n'
        '{"doc_id": "d1", "label": "Tool", "start": 13, "end": 16, "surface": "BWB"}\n',
        encoding="utf-8")
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {preds}:1: OffsetOutOfRange in document 'd2': "
                                       "fragment end 99 exceeds text length 5\n")
    assert not (tmp_path / "o").exists()


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


def test_fuse_names_the_ids_that_still_collide_after_prefixing(tmp_path, capsys):
    # Both sources are corpora named "c", so the corpus-name prefix is no help.
    for parent in ("a", "b"):
        write_corpus_dir(Corpus("c", (doc_of("d1", "x"),)), tmp_path / parent / "c")
    out = tmp_path / "fused"
    assert main(["fuse", "--source", str(tmp_path / "a" / "c"),
                 "--source", str(tmp_path / "b" / "c"), "--prefix-collisions",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: doc_ids still collide after corpus-name prefixing, e.g. ['c:d1']\n")
    assert not out.exists()


def test_report_cli(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    for i, tp in enumerate((60, 70, 80)):
        run = {
            "split_id": i, "seed_model": 1,
            "report": {"mode": "relaxed",
                       "per_label": {"Tool": {"tp": tp, "fp": 100 - tp,
                                              "fn": 100 - tp}},
                       "label_filter": None},
            "meta": {"note": "synthetic"},
        }
        (results / f"run{i}.json").write_text(json.dumps(run), encoding="utf-8")
    assert main(["report", "--results", str(results), "--layout", "csv"]) == 0
    out = capsys.readouterr().out
    assert "Tool,70.0 ±10.0,70.0 ±10.0,70.0 ±10.0" in out


def test_a_run_result_file_named_twice_is_a_usage_error(tmp_path, capsys):
    results = tmp_path / "runs"
    results.mkdir()
    for i, tp in enumerate((60, 80)):
        (results / f"run{i}.json").write_text(json.dumps(
            {"split_id": i, "seed_model": 1,
             "report": {"mode": "relaxed",
                        "per_label": {"Tool": {"tp": tp, "fp": 100 - tp, "fn": 100 - tp}}}}),
            encoding="utf-8")
    assert main(["report", "--results", str(results)]) == 0
    assert "Overall   70.0 ±14.1" in capsys.readouterr().out
    run0, alias = results / "run0.json", tmp_path / "alias.json"
    alias.symlink_to(run0)
    for named, again in (([results, run0], ""), ([results, results], ""),
                         ([run0, alias], f", again as {alias}")):
        assert main(["report", "--results", *map(str, named)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: --results names {run0} more than once{again}\n"
        assert captured.out == ""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"results": [str(results), str(run0)]}), encoding="utf-8")
    assert main(["report", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: {config}: --results names {run0} more than once\n")


def test_report_quotes_a_label_that_holds_a_separator(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    per_label = {label: {"tp": 1, "fp": 1, "fn": 1} for label in ("Tool,x", 'a"b', "A|B")}
    (results / "run0.json").write_text(json.dumps(
        {"split_id": 0, "seed_model": 1,
         "report": {"mode": "strict", "per_label": per_label, "label_filter": None}}),
        encoding="utf-8")
    cells = "50.0 ±0.0"
    assert main(["report", "--results", str(results), "--layout", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:4] == [
        f"A|B,{cells},{cells},{cells}", f'"Tool,x",{cells},{cells},{cells}',
        f'"a""b",{cells},{cells},{cells}']
    assert main(["report", "--results", str(results), "--layout", "markdown"]) == 0
    assert capsys.readouterr().out.splitlines()[2:5] == [
        f"| A\\|B | {cells} | {cells} | {cells} |", f"| Tool,x | {cells} | {cells} | {cells} |",
        f'| a"b | {cells} | {cells} | {cells} |']


def _write_run_results(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    report = {"mode": "strict",
              "per_label": {"Tool": {"tp": 1, "fp": 0, "fn": 0, "p": 1, "r": 1, "f1": 1}},
              "overall": {"tp": 1, "fp": 0, "fn": 0, "p": 1, "r": 1, "f1": 1},
              "label_filter": None}
    (results / "run0.json").write_text(json.dumps(
        {"split_id": 0, "seed_model": 1, "report": report}), encoding="utf-8")
    return results


def _focus_argv(command, gold_dir, tmp_path, out):
    return {"eval": ["eval", "--gold", str(gold_dir), "--pred", str(gold_dir),
                     "--mode", "strict", "--json", str(out)],
            "iaa": ["iaa", "--annotator-a", str(gold_dir), "--annotator-b",
                    str(gold_dir), "--json", str(out)],
            "report": ["report", "--results", str(_write_run_results(tmp_path)),
                       "--out", str(out)]}[command]


@pytest.mark.parametrize("focus", [",", " , ,", ""])
@pytest.mark.parametrize("command", ["eval", "iaa", "report"])
def test_a_focus_that_names_no_label_is_a_usage_error(gold_dir, tmp_path, capsys,
                                                      command, focus):
    out = tmp_path / "out.json"
    assert main(_focus_argv(command, gold_dir, tmp_path, out) + ["--focus", focus]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --focus names no label: {focus!r}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("config", [None, {"keep_common": True},
                                    {"keep_common": True, "common_words": "@words"}])
def test_keep_common_with_a_common_word_list_is_a_usage_error(tmp_path, capsys, config):
    # Neither file exists: the pair is refused before any input is read.
    dump, words, out = tmp_path / "bc.txt", tmp_path / "words.txt", tmp_path / "g.json"
    argv = ["gazetteer", "build", "--bioconda", str(dump), "--out", str(out)]
    where = ""
    if config is None:
        argv += ["--keep-common", "--common-words", str(words)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: str(words) if v == "@words" else v
                                    for k, v in config.items()}), encoding="utf-8")
        argv += ["--config", str(path)] + ([] if "common_words" in config
                                          else ["--common-words", str(words)])
        where = f"{path}: "
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"usage error: {where}--keep-common drops no common word, "
                            f"so it takes no --common-words\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("focus, err", [
    (",", "--focus names no label: ','"), ([], "--focus names no label: []"),
    ([" "], "--focus names no label: [' ']"),
    (["Tool", 5], "--focus takes comma-separated labels, got ['Tool', 5]"),
    (5, "--focus takes comma-separated labels, got 5"),
])
def test_a_focus_from_the_config_that_names_no_label_is_a_usage_error(
        gold_dir, tmp_path, capsys, focus, err):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"focus": focus}), encoding="utf-8")
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(gold_dir),
                 "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {config}: {err}\n" and captured.out == ""


def test_a_focus_list_from_the_config_is_stripped(gold_dir, tmp_path, capsys):
    pred = _write_pred_dir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"focus": [" Tool", ""]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(pred), "--mode", "strict",
                 "--config", str(config), "--json", str(out)]) == 0
    text = out.read_text("utf-8")
    data = json.loads(text)
    assert text == oracle_dumps_json(data) + "\n"
    assert data["label_filter"] == ["Tool"] and data["overall"]["tp"] == 1
    assert data["overall"]["fn"] == 0


@pytest.mark.parametrize("focus, named", [
    ("Toool", "'Toool'"), ("Tool,Toool,Bibio,Toool", "'Toool', 'Bibio'"),
    ("tool", "'tool'")])
@pytest.mark.parametrize("command", ["eval", "iaa", "report"])
def test_a_focus_label_found_nowhere_is_a_usage_error(gold_dir, tmp_path, capsys,
                                                      command, focus, named):
    out = tmp_path / "out.json"
    assert main(_focus_argv(command, gold_dir, tmp_path, out) + ["--focus", focus]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --focus names unknown label(s): {named}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("focus", [["Tool", "Toool"], "Toool"])
@pytest.mark.parametrize("command", ["eval", "iaa", "report"])
def test_a_focus_label_found_nowhere_in_the_config_is_a_usage_error(
        gold_dir, tmp_path, capsys, command, focus):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"focus": focus}), encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(_focus_argv(command, gold_dir, tmp_path, out)
                + ["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {config}: --focus names unknown label(s): 'Toool'\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["stats"], "corpus"),
    (["validate"], "corpus"),
    (["eval", "--pred", "@gold"], "gold"),
    (["iaa", "--annotator-a", "@gold"], "annotator_b"),
    (["fuse", "--out", "@out"], "source"),
])
def test_a_missing_corpus_directory_from_the_config_names_the_config(gold_dir, tmp_path,
                                                                      capsys, argv, key):
    missing = tmp_path / "nope"
    config = tmp_path / "cfg.json"
    value = [f"{missing}:gold"] if key == "source" else str(missing)
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = [{"@gold": str(gold_dir), "@out": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: corpus directory not found: {missing}\n")


@pytest.mark.parametrize("argv, key, name", [
    (["tag", "--corpus", "@corpus"], "gazetteer", "nope.json"),
    (["gazetteer", "export"], "gazetteer", "nope.json"),
    (["tag", "--corpus", "@corpus", "--gazetteer", "@gaz"], "rules", "nope.json"),
    (["silver", "--corpus", "@corpus"], "predictions", "nope"),
    (["silver", "--corpus", "@corpus"], "predictions", "nope.jsonl"),
    (["convert", "--corpus", "@corpus"], "table", "nope.json"),
    (["gazetteer", "build", "--custom", "@dump"], "common_words", "nope.txt"),
    (["report"], "results", "nope.json"),
] + [(["gazetteer", "build"], kind, "nope.txt") for kind in SOURCE_KINDS])
def test_a_missing_input_file_from_the_config_names_the_config(tmp_path, capsys, argv, key,
                                                               name):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    dump = tmp_path / "names.txt"
    dump.write_text("BWA\n", encoding="utf-8")
    gaz = tmp_path / "gaz.json"
    gaz.write_text(build_gazetteer(ingest("custom", "BWA\n")).to_json_text(), encoding="utf-8")
    argv = [{"@corpus": str(corpus_dir), "@dump": str(dump), "@gaz": str(gaz)}.get(a, a)
            for a in argv] + ["--out", str(tmp_path / "o")]
    missing = tmp_path / name
    assert main(argv + [f"--{key.replace('_', '-')}", str(missing)]) == 1
    typed = capsys.readouterr().err
    assert typed == (f"error: predictions directory not found: {missing}\n" if name == "nope"
                     else f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: [str(missing)] if key == "results" else str(missing)}),
                      encoding="utf-8")
    assert main(argv + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}: {typed.removeprefix('error: ')}"
    assert not (tmp_path / "o").exists()


def test_a_missing_corpus_directory_flag_is_reported_as_a_flag(gold_dir, tmp_path, capsys):
    missing = tmp_path / "nope"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"corpus": str(gold_dir), "source": [f"{gold_dir}:gold"]}),
                      encoding="utf-8")
    for argv in (["stats", "--corpus", str(missing)],
                 ["fuse", "--source", str(missing), "--out", str(tmp_path / "o")]):
        for extra in ([], ["--config", str(config)]):
            assert main(argv + extra) == 1
            assert capsys.readouterr().err == \
                f"error: corpus directory not found: {missing}\n"


@pytest.mark.parametrize("argv, key, name", [
    (["silver", "--corpus", "@corpus"], "predictions", "d1.ann"),
    (["report"], "results", "x.json"),
    (["fuse"], "source", "d1.txt"),
])
def test_a_file_missing_inside_a_directory_from_the_config_does_not_name_the_config(
        tmp_path, capsys, argv, key, name):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    # A dangling symlink inside a directory that exists.
    directory = tmp_path / "in"
    if key == "source":
        write_corpus_dir(Corpus("in", (doc_of("d1", "aligned with BWA"),)), directory)
        (directory / name).unlink()
    else:
        directory.mkdir()
    dangling = directory / name
    dangling.symlink_to(tmp_path / "gone")
    argv = [str(corpus_dir) if a == "@corpus" else a for a in argv]
    argv += ["--out", str(tmp_path / "o")]
    value = f"{directory}:gold" if key == "source" else str(directory)
    expected = f"error: [Errno 2] No such file or directory: {str(dangling)!r}\n"
    if key == "source":  # a corpus loader names a dangling link as such
        expected = f"error: {dangling}: dangling symbolic link\n"
    assert main(argv + [f"--{key}", value]) == 1
    assert capsys.readouterr().err == expected
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value if key == "predictions" else [value]}),
                      encoding="utf-8")
    assert main(argv + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "o").exists()


def test_a_source_flag_replaces_the_sources_of_the_config(gold_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"source": [f"{gold_dir}:gold"]}), encoding="utf-8")
    pred_dir = _write_pred_dir(tmp_path)
    assert main(["fuse", "--source", f"{pred_dir}:silver", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == '{"documents": 2, "provenance": {"silver": 2}}\n'


def test_a_focus_flag_wins_over_the_config_and_is_reported_as_a_flag(gold_dir, tmp_path,
                                                                     capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"focus": "Tool"}), encoding="utf-8")
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(gold_dir),
                 "--config", str(config), "--focus", "Toool"]) == 2
    assert capsys.readouterr().err == "usage error: --focus names unknown label(s): 'Toool'\n"


@pytest.mark.parametrize("command", ["eval", "iaa", "report"])
def test_a_focus_on_a_schema_label_without_entities_is_scored(gold_dir, tmp_path, capsys,
                                                              command):
    out = tmp_path / "out.json"
    assert main(_focus_argv(command, gold_dir, tmp_path, out)
                + ["--focus", "Hardware,Tool"]) == 0
    assert "Overall-focused" in capsys.readouterr().out and out.exists()


def test_a_focus_label_from_a_corpus_or_result_outside_the_schema_is_known(tmp_path,
                                                                          capsys):
    text = "cite the software here"
    corpus = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", text, ent("T1", "software", 9, 17, text)),)),
                     corpus)
    out = tmp_path / "run.json"
    assert main(["eval", "--gold", str(corpus), "--pred", str(corpus), "--mode", "strict",
                 "--focus", "software", "--json", str(out)]) == 0
    assert main(["iaa", "--annotator-a", str(corpus), "--annotator-b", str(corpus),
                 "--focus", "software"]) == 0
    out.write_text(json.dumps({"split_id": 0, "seed_model": 1,
                               "report": json.loads(out.read_text("utf-8"))}),
                   encoding="utf-8")
    assert main(["report", "--results", str(out), "--focus", "software"]) == 0
    assert "Overall-focused" in capsys.readouterr().out


@pytest.mark.parametrize("argv, config, err", [
    (["eval"], {"mode": "bogus"},
     "config key 'mode' in {} takes one of strict, relaxed, both, got 'bogus'"),
    (["iaa"], {"mode": "both"},
     "config key 'mode' in {} takes one of strict, relaxed, got 'both'"),
    (["report"], {"layout": "html"},
     "config key 'layout' in {} takes one of text, markdown, csv, got 'html'"),
    (["validate"], {"schema": None},
     "config key 'schema' in {} takes one of biotoflow, none, got None"),
    (["gazetteer", "build"], {"keep_numeric": "false"},
     "config key 'keep_numeric' in {} takes true or false, got 'false'"),
    (["eval"], {"macro": 1}, "config key 'macro' in {} takes true or false, got 1"),
    (["split"], {"n": True}, "config key 'n' in {} takes an integer, got True"),
    (["split"], {"seed": 4.0}, "config key 'seed' in {} takes an integer, got 4.0"),
    (["gazetteer", "build"], {"min_length": [2]},
     "config key 'min_length' in {} takes an integer, got [2]"),
    (["stats"], {"out": 5}, "config key 'out' in {} takes a string, got 5"),
    (["stats"], {"corpus": ["g"]}, "config key 'corpus' in {} takes a string, got ['g']"),
    (["fuse"], {"source": "g:gold"},
     "config key 'source' in {} takes a list of strings, got 'g:gold'"),
    (["fuse"], {"source": ["g", 5]},
     "config key 'source' in {} takes a list of strings, got ['g', 5]"),
    (["report"], {"results": "runs"},
     "config key 'results' in {} takes a list of strings, got 'runs'"),
    (["report"], {"results": []},
     "config key 'results' in {} takes at least one string, got []"),
    (["split"], {"n": "x"}, "config key 'n' in {} takes an integer, got 'x'"),
    (["split"], {"ratios": "x"}, "{}: --ratios takes two comma-separated fractions, got 'x'"),
    (["split"], {"ratios": "0.6,0.2,0.2"},
     "{}: --ratios takes two comma-separated fractions, got '0.6,0.2,0.2'"),
    (["split"], {"ratios": "1.5,0.3"}, "{}: --ratios out of range, got '1.5,0.3'"),
    (["split"], {"ratios": "nan,0.3"}, "{}: --ratios out of range, got 'nan,0.3'"),
])
def test_a_config_value_gets_the_check_of_its_flag(tmp_path, capsys, argv, config, err):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(argv + ["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {err.format(path)}\n" and captured.out == ""


def test_a_config_value_is_checked_against_the_subcommand_that_runs(gold_dir, tmp_path,
                                                                    capsys):
    # "both" is a mode of eval but not of iaa, and "n" is split's.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "both", "macro": False, "n": "x"}),
                      encoding="utf-8")
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(gold_dir),
                 "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "== strict ==" in out and "== relaxed ==" in out and "Macro" not in out


@pytest.mark.parametrize("config", [{"min_length": 4}, {"bogus": 1}])
def test_a_config_before_a_gazetteer_subcommand_is_a_usage_error(tmp_path, capsys, config):
    dump = tmp_path / "names.txt"
    dump.write_text("BWA\nSAMtools\n", encoding="utf-8")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "gaz.json"
    argv = ["--custom", str(dump), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(["gazetteer", "--config", str(path), "build"] + argv)
    assert exc.value.code == 2 and not out.exists()
    code = main(["gazetteer", "build", "--config", str(path)] + argv)
    if "bogus" in config:
        err = capsys.readouterr().err
        assert code == 2 and f"usage error: {path}: unknown field(s) bogus (expected " in err
    else:
        assert code == 0 and "gazetteer: 1 entries" in capsys.readouterr().out


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
    assert captured.err == (
        f"usage error: {config}: unknown field(s) label_filter, outt (expected annotator_a, "
        "annotator_b, bioconda, biocontainers, biotools, bioweb, common_words, corpus, custom, "
        "diff, focus, for_training, gazetteer, gold, json, keep_common, keep_numeric, layout, "
        "macro, min_length, mode, n, out, per_split, pred, predictions, prefix_collisions, "
        "qualifier_sensitive, ratios, report, results, rules, schema, seed, source, "
        "split_multiword, strict, table)\n")
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
    ('["d1", "Tool", 13, 16, "BWA"]', "expected a JSON object"),
    ('{"doc_id": "d1", "label": "Tool", "start": 16, "end": 13, "surface": "BWA"}',
     "span must be non-empty"),
    ('{"doc_id": "d1", "label": "Tool", "start": true, "end": 3, "surface": "ali"}',
     "'start' must be an integer or a list of integers, got True"),
    ('{"doc_id": "d1", "label": "Tool", "start": 0.5, "end": 3, "surface": "ali"}',
     "'start' must be an integer or a list of integers, got 0.5"),
    ('{"doc_id": "d1", "label": "Tool", "start": [0], "end": [false], "surface": "a"}',
     "'end' must be an integer or a list of integers, got [False]"),
    ('{"doc_id": "d1", "label": "Tool", "start": [0, 4], "end": 3, "surface": "ali"}',
     "start/end arrays differ in length"),
    ('{"doc_id": 7, "label": "Tool", "start": 0, "end": 3, "surface": "ali"}',
     "'doc_id' must be a string, got 7"),
    ('{"doc_id": "d1", "label": 5, "start": 0, "end": 3, "surface": "ali"}',
     "'label' must be a string, got 5"),
    ('{"doc_id": "d1", "label": "Tool", "start": 0, "end": 3, "surface": null}',
     "'surface' must be a string, got None"),
    ('{"doc_id": "d1", "label": "Tool", "qualifier": ["General"], "start": 0, "end": 3, '
     '"surface": "ali"}', "'qualifier' must be a string or null, got ['General']"),
    ('{"doc_id": "d1", "label": "Tool X", "start": 13, "end": 16, "surface": "BWA"}',
     "'label' must be one token without whitespace, got 'Tool X'"),
    ('{"doc_id": "d1", "label": "", "start": 13, "end": 16, "surface": "BWA"}',
     "'label' must be one token without whitespace, got ''"),
    ('{"doc_id": "d1", "label": "Data", "qualifier": "General", "start": 13, "end": 16, '
     '"surface": "BWA"}', "'qualifier' 'General' is not registered for label 'Data'"),
    ('{"doc_id": "d1", "label": "Tool", "qualifier": "", "start": 13, "end": 16, '
     '"surface": "BWA"}', "'qualifier' '' is not registered for label 'Tool'"),
])
def test_malformed_jsonl_prediction_names_file_and_line(tmp_path, capsys, record, reason):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"doc_id": "d1", "label": "Tool", "start": 13, "end": 16, '
                     '"surface": "BWA"}\n\n' + record + "\n", encoding="utf-8")
    with pytest.raises(MalformedPrediction) as exc:
        read_predictions(preds, load_corpus_dir(corpus_dir))
    assert exc.value.where == 3
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{preds}:3: " in err and reason in err


@pytest.mark.parametrize("record, reason", [
    ('{"doc_id": "d1", "label": "Tool", "start": 0, "end": 99, "surface": "x"}',
     "OffsetOutOfRange in document 'd1': fragment end 99 exceeds text length 16"),
    ('{"doc_id": "d1", "label": "Tool", "start": 0, "end": 3, "surface": "BWA"}',
     "SurfaceMismatch in document 'd1': surface 'BWA' != text slice 'ali'"),
])
def test_a_jsonl_prediction_that_does_not_fit_its_text_names_its_line(
        tmp_path, capsys, record, reason):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    preds = tmp_path / "preds.jsonl"
    # The bad record sorts before the good one, and is still found on line 3.
    preds.write_text('{"doc_id": "d1", "label": "Tool", "start": 13, "end": 16, '
                     '"surface": "BWA"}\n\n' + record + "\n", encoding="utf-8")
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {preds}:3: {reason}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rules, key, reason", [
    ('{"version_pattern": ["v[0-9]+"]}', None, "unknown field(s) version_pattern "
     "(expected version_patterns, biblio_patterns, fixed_lists)"),
    ('{"fixed_lists": {"ProgrammingLanguage": "Python"}}',
     "fixed_lists.ProgrammingLanguage", "expected a list of strings"),
    ('{"biblio_patterns": ["[0-9"]}', "biblio_patterns[0]", "invalid regex"),
    ('{"fixed_lists": {', None, "invalid JSON"),
    ('{"fixed_lists": {"Toool": ["BWA"]}}', "fixed_lists.Toool",
     "not a label of the workflow schema"),
    ('{"fixed_lists": null}', "fixed_lists", "expected an object of lists"),
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
    assert exc.value.where == key
    assert main(["tag", "--corpus", str(corpus_dir), "--gazetteer", str(gaz_path),
                 "--rules", str(rules_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{rules_path}: {key + ': ' if key else ''}" in err and reason in err
    assert not (tmp_path / "o").exists()


# A valid run-result file: "Tool" scored tp 1.
_RUN_RESULT = {"split_id": 0, "seed_model": 1, "meta": {},
               "report": {"mode": "strict", "label_filter": None,
                          "per_label": {"Tool": {"tp": 1, "fp": 0, "fn": 0}}}}


def _run_result(report=(), **fields) -> str:
    """The text of ``_RUN_RESULT`` with its ``report`` and top-level items
    replaced by those given."""
    data = {**_RUN_RESULT, "report": {**_RUN_RESULT["report"], **dict(report)}, **fields}
    return json.dumps(data)


def _counts(**counts) -> dict:
    """A report whose "Tool" row has ``counts`` in place of tp 1, fp 0, fn 0."""
    return {"per_label": {"Tool": {"tp": 1, "fp": 0, "fn": 0, **counts}}}


# A name with a line break would be two lines of the exported vocabulary.
_LINE_BREAK_GAZETTEER = ('{"entries": [{"key": "bwa", "canonical": "BWA", "kind": "tool_name", '
                         '"sources": ["custom"]}, {"key": "a\\nb", "canonical": "a\\nb", '
                         '"kind": "tool_name", "sources": ["custom"]}]}')


@pytest.mark.parametrize("flag, content, reason", [
    ("--gazetteer", '{"entries": [', "invalid JSON"),
    ("--gazetteer", "[]", "expected a JSON object"),
    ("--gazetteer", '{"entries": [{"canonical": "BWA", "kind": "tool_name", '
                    '"sources": []}]}', "record 0: entry must be an object"),
    ("--gazetteer", '{"entries": [{"key": "bwa", "canonical": "BWA", "kind": "tool_name", '
                    '"sources": ["biotools"]}, {"key": "bwa", "canonical": "Samtools", '
                    '"kind": "tool_name", "sources": ["biotools"]}]}',
     "record 1: duplicate key 'bwa'"),
    ("--gazetteer", '{"normalization": 5, "entries": []}',
     "'normalization' must be a JSON object"),
    ("--gazetteer", '{"entries": [], "normalisation": {}}',
     "unknown field(s) normalisation (expected entries, normalization)"),
    ("--gazetteer", _LINE_BREAK_GAZETTEER, "record 1: line break in 'canonical'"),
    ("gazetteer export --gazetteer", _LINE_BREAK_GAZETTEER.replace(r"\n", r"\r"),
     "record 1: line break in 'canonical'"),
    ("--table", '[{"source": ', "invalid JSON"),
    ("--table", '{"source": "software"}', "expected a JSON array of rows"),
    ("--table", '[{"target": "Tool"}]', "row 0: missing field(s) source"),
    ("--table", '[{"source": "software"}, {"source": "url", "targt": "Tool"}]',
     "row 1: unknown field(s) targt (expected source, attribute, target, qualifier)"),
    ("--table", '[{"source": "software", "target": "Toool"}]',
     "row 0: target Toool is not a label of the workflow schema"),
    ("--table", '[{"source": "software", "target": "Tool", "qualifier": "Nope"}]',
     "row 0: target Tool(Nope) is not a label"),
    ("--results", '{"split_id": ', "invalid JSON"),
    ("--results", "[]", "expected a JSON object"),
    ("--results", _run_result(split=0, notes="x"),
     "unknown field(s) notes, split (expected split_id, seed_model, report, meta)"),
    ("--results", '{"split_id": 0, "seed_model": 1, "report": {"mode": "strict"}}',
     "report: missing field(s) per_label"),
    ("--results", _run_result(split_id=[0]), "split_id: must be an integer, got [0]"),
    ("--results", _run_result(seed_model=True), "seed_model: must be an integer, got True"),
    ("--results", _run_result(meta=[]), "meta: must be a JSON object, got []"),
    ("--results", '{"split_id": 0, "seed_model": 1, "report": []}',
     "report: expected a JSON object"),
    ("--results", _run_result({"mode": "loose"}),
     "report.mode: must be one of strict, relaxed, got 'loose'"),
    ("--results", _run_result({"label_filter": "Tool"}),
     "report.label_filter: must be null or a list of strings, got 'Tool'"),
    ("--results", _run_result({"per_label": ["Tool"]}),
     "report.per_label: must be a JSON object, got ['Tool']"),
    ("--results", _run_result(_counts(tp=-1)),
     "report.per_label.Tool.tp: must be a non-negative integer, got -1"),
    ("--results", _run_result(_counts(fp=1.5)),
     "report.per_label.Tool.fp: must be a non-negative integer, got 1.5"),
    ("--results", _run_result(_counts(fn=True)),
     "report.per_label.Tool.fn: must be a non-negative integer, got True"),
    ("--results", _run_result({"overall": {"tp": 1, "fp": 0}}),
     "report.overall: missing field(s) fn"),
    ("--results", _run_result(_counts(p="x", f1=7)),
     "report.per_label.Tool.p: must be a number, got 'x'"),
    ("--results", _run_result(_counts(r=True)),
     "report.per_label.Tool.r: must be a number, got True"),
    ("--results", _run_result(_counts(f1=7)),
     "report.per_label.Tool.f1: must be 1.0, as tp/fp/fn give, got 7"),
    ("--results", _run_result(_counts(p=1 - 1e-6)),
     "report.per_label.Tool.p: must be 1.0, as tp/fp/fn give, got 0.999999"),
    ("--results", _run_result(_counts(p=float("nan"))),
     "report.per_label.Tool.p: must be 1.0, as tp/fp/fn give, got nan"),
    ("--results", _run_result(_counts(r=10 ** 400)),
     "report.per_label.Tool.r: must be 1.0, as tp/fp/fn give, got 1000"),
    ("--results", _run_result({"overall": {"tp": 9, "fp": 0, "fn": 0}}),
     "report.overall.tp: must be 1, the per-label sum (over label_filter, if set), got 9"),
    ("--results", _run_result({"label_filter": ["Data"], "overall": {"tp": 1, "fp": 0, "fn": 0}}),
     "report.overall.tp: must be 0, the per-label sum (over label_filter, if set), got 1"),
    ("--results", _run_result({"overall": {"tp": 1, "fp": 0, "fn": 0, "f1": 0.5}}),
     "report.overall.f1: must be 1.0, as tp/fp/fn give, got 0.5"),
    ("--rules", "[]", "expected a JSON object"),
    ("--config", '{"out": ', "invalid JSON"),
    ("--config", "[]", "expected a JSON object"),
    ("gazetteer build --biotools", '[{"name": ', "payload is not valid JSON"),
    ("gazetteer build --biotools", '{"name": "BWA"}', "payload must be a JSON array"),
    ("gazetteer build --biotools", '[{"name": "BWA"}, {"label": "x"}]',
     "record 1: record has no usable 'name' field"),
    ("gazetteer build --biotools", '[{"name": "BWA", "binaries": "samtools"}]',
     "record 0: 'binaries' must be a list of names"),
    ("gazetteer build --biotools", '[{"name": "BWA"}, {"name": "STAR", "binaries": 5}]',
     "record 1: 'binaries' must be a list of names"),
])
def test_malformed_json_input_names_its_file(tmp_path, capsys, flag, content, reason):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    path = tmp_path / "input.json"
    path.write_text(content, encoding="utf-8")
    gaz_path = tmp_path / "gaz.json"
    gaz_path.write_text('{"entries": []}', encoding="utf-8")
    out = str(tmp_path / "o")
    argv = {
        "--gazetteer": ["tag", "--corpus", str(corpus_dir), "--gazetteer", str(path),
                        "--out", out],
        "gazetteer export --gazetteer": ["gazetteer", "export", "--gazetteer", str(path),
                                         "--out", out],
        "--table": ["convert", "--corpus", str(corpus_dir), "--table", str(path),
                    "--out", out],
        "--results": ["report", "--results", str(path), "--out", out],
        "--rules": ["tag", "--corpus", str(corpus_dir), "--gazetteer", str(gaz_path),
                    "--rules", str(path), "--out", out],
        "--config": ["stats", "--corpus", str(corpus_dir), "--config", str(path),
                     "--out", out],
        "gazetteer build --biotools": ["gazetteer", "build", "--biotools", str(path),
                                       "--out", out],
    }[flag]
    assert main(argv) == (2 if flag == "--config" else 1)
    err = capsys.readouterr().err
    assert f"{path}: {reason}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, content", [
    ("--predictions", {"doc_id": "d1", "label": "Tool", "start": 13, "end": 16,
                       "surface": "BWA"}),
    ("--rules", {"fixed_lists": {"ProgrammingLanguage": ["Python"]}}),
    ("--table", [{"source": "software", "target": "Tool"}]),
    ("--gazetteer", {"normalization": {}, "entries": []}),
    ("--results", _RUN_RESULT),
    ("--config", {"mode": "strict"}),
])
def test_every_json_input_rejects_an_unknown_key_and_names_its_file(tmp_path, capsys, flag,
                                                                     content):
    corpus_dir, out = tmp_path / "c", str(tmp_path / "o")
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    gaz = tmp_path / "gaz.json"
    gaz.write_text('{"entries": []}', encoding="utf-8")
    data = json.loads(json.dumps(content))
    (data[0] if isinstance(data, list) else data)["bogus_key"] = 1
    path = tmp_path / ("input.jsonl" if flag == "--predictions" else "input.json")
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    corpus = ["--corpus", str(corpus_dir)]
    argv = {"--predictions": ["silver", *corpus, "--predictions", str(path), "--out", out],
            "--rules": ["tag", *corpus, "--gazetteer", str(gaz), "--rules", str(path),
                        "--out", out],
            "--table": ["convert", *corpus, "--table", str(path), "--out", out],
            "--gazetteer": ["tag", *corpus, "--gazetteer", str(path), "--out", out],
            "--results": ["report", "--results", str(path), "--out", out],
            "--config": ["eval", "--gold", str(corpus_dir), "--pred", str(corpus_dir),
                         "--json", out, "--config", str(path)]}[flag]
    assert main(argv) == (2 if flag == "--config" else 1)
    captured = capsys.readouterr()
    assert str(path) in captured.err and "bogus_key" in captured.err
    assert captured.out == "" and not (tmp_path / "o").exists()


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
    assert f"OffsetOutOfRange at {corpus_dir / 'd2.ann'}:1" in captured.out
    assert "2 violation(s) in 2 document(s)" in captured.out
    assert "Traceback" not in captured.out + captured.err


def _corpus_with_orphan_ann(tmp_path):
    """Corpus ``c`` of d1.txt with a ``D1.ann`` that no ``.txt`` names."""
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    (corpus_dir / "d1.txt").write_text("aligned with BWA", encoding="utf-8")
    orphan = corpus_dir / "D1.ann"
    orphan.write_text("T1\tTool 13 16\tBWA\n", encoding="utf-8")
    return corpus_dir, orphan


def test_an_ann_without_its_txt_is_an_error_that_names_it(tmp_path, capsys):
    corpus_dir, orphan = _corpus_with_orphan_ann(tmp_path)
    assert main(["stats", "--corpus", str(corpus_dir)]) == 1
    captured = capsys.readouterr()
    assert f"{orphan}: annotations without a text" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_validate_lists_an_ann_without_its_txt_and_checks_the_rest(tmp_path, capsys):
    corpus_dir, orphan = _corpus_with_orphan_ann(tmp_path)
    (corpus_dir / "d1.ann").write_text("T1\tTool 0 99\tBWA\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    captured = capsys.readouterr()
    assert f"StandoffParseError at {orphan}: annotations without a text" in captured.out
    assert f"OffsetOutOfRange at {corpus_dir / 'd1.ann'}:1" in captured.out
    assert "2 violation(s) in 1 document(s)" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_an_ann_that_is_a_dangling_link_is_an_error_that_names_it(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    (corpus_dir / "d1.txt").write_text("aligned with BWA", encoding="utf-8")
    link = corpus_dir / "d1.ann"
    link.symlink_to(corpus_dir / "gone.ann")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    assert capsys.readouterr().out == (f"StandoffParseError at {link}: dangling symbolic link\n"
                                       "1 violation(s) in 1 document(s)\n")
    out = str(tmp_path / "o")
    for argv in (["stats", "--corpus", str(corpus_dir)],
                 ["fuse", "--source", f"{corpus_dir}:gold", "--out", out]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {link}: dangling symbolic link\n"
        assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_a_txt_that_is_a_dangling_link_is_an_error_that_names_it(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    link = corpus_dir / "d1.txt"
    link.symlink_to(corpus_dir / "gone.txt")
    (corpus_dir / "d2.txt").write_text("aligned with BWA", encoding="utf-8")
    (corpus_dir / "d2.ann").write_text("T1\tTool 13 99\tBWA\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"StandoffParseError at {link}: dangling symbolic link",
        f"OffsetOutOfRange at {corpus_dir / 'd2.ann'}:1: fragment end 99 exceeds text length 16",
        "2 violation(s) in 2 document(s)"]
    out = str(tmp_path / "o")
    for argv in (["stats", "--corpus", str(corpus_dir)],
                 ["fuse", "--source", f"{corpus_dir}:gold", "--out", out],
                 ["eval", "--gold", str(corpus_dir), "--pred", str(corpus_dir)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {link}: dangling symbolic link\n"
        assert captured.out == ""
    assert not (tmp_path / "o").exists()


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
    assert f"{path}:2: not UTF-8: byte 0xff at offset 3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("name", ["pd/d1.ann", "preds.jsonl"])
def test_undecodable_prediction_file_names_its_file_and_line(tmp_path, capsys, name, eol):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    (tmp_path / "pd").mkdir()
    bad = tmp_path / name
    bad.write_bytes(_NOT_UTF8.replace(b"\n", eol))
    preds = bad.parent if bad.suffix == ".ann" else bad
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    reason = f"not UTF-8: byte 0xff at offset {17 + len(eol)}"
    assert f"{bad}:2: {reason}" in err and "Traceback" not in err


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
def test_an_undecodable_dump_names_the_line_its_reader_counts(tmp_path, capsys, eol):
    dump = tmp_path / "bc.txt"
    dump.write_bytes(eol.join([b"bwa", b"star", b"\xff", b""]))
    assert main(["gazetteer", "build", "--bioconda", str(dump),
                 "--out", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert f"{dump}:3: not UTF-8: byte 0xff at offset {3 + 2 * len(eol) + 4}" in err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("name", ["pd", "preds.jsonl"])
def test_a_missing_prediction_names_the_doc_id_and_the_predictions(tmp_path, capsys,
                                                                   name):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),
                                  doc_of("d2", "aligned with BWA"))), corpus_dir)
    preds = tmp_path / name
    if name == "pd":
        preds.mkdir()
    else:
        preds.write_text('{"doc_id": "d2", "label": "Tool", "start": 0, "end": 3, '
                         '"surface": "ali"}\n', encoding="utf-8")
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {preds}: no prediction found for doc_id 'd1'\n")


@pytest.mark.parametrize("name", ["pd", "preds.jsonl"])
def test_predictions_for_a_doc_id_not_in_the_corpus_are_an_error(tmp_path, capsys, name):
    corpus_dir = tmp_path / "c"
    write_corpus_dir(Corpus("c", (doc_of("d1", "aligned with BWA"),)), corpus_dir)
    preds = tmp_path / name
    if name == "pd":
        preds.mkdir()
        (preds / "d1.ann").write_text("T1\tTool 13 16\tBWA\n", encoding="utf-8")
        (preds / "d9.ann").write_text("T1\tTool 0 3\tnot the text\n", encoding="utf-8")
        unknown = "d9"
    else:
        preds.write_text('{"doc_id": "d1", "label": "Tool", "start": 13, "end": 16, '
                         '"surface": "BWA"}\n'
                         '{"doc_id": "zz", "label": "Tool", "start": 0, "end": 3, '
                         '"surface": "ali"}\n', encoding="utf-8")
        unknown = "zz"
    out = tmp_path / "o"
    assert main(["silver", "--corpus", str(corpus_dir), "--predictions", str(preds),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {preds}: prediction(s) for doc_id(s) not in the "
                            f"corpus, e.g. [{unknown!r}]\n")
    assert captured.out == "" and not out.exists()


def test_a_bad_prediction_corpus_is_named_by_its_file(gold_dir, tmp_path, capsys):
    # Gold and predictions share doc ids, so the message names the file.
    pred = _write_pred_dir(tmp_path)
    (pred / "d1.ann").write_text("T1\tTool 13 99\tBWA\n", encoding="utf-8")
    assert main(["eval", "--gold", str(gold_dir), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pred / 'd1.ann'}:1: fragment end 99 exceeds text length 36\n")


def test_list_valued_flags_take_a_list_from_the_config(gold_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"source": [f"{gold_dir}:silver"]}), encoding="utf-8")
    assert main(["fuse", "--out", str(tmp_path / "f"), "--config", str(config)]) == 0
    assert capsys.readouterr().out == '{"documents": 2, "provenance": {"silver": 2}}\n'


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
    ann = corpus_dir / "d1.ann"
    ann.write_text("T1\tTool 0 \u00b2\tBWA\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    out = capsys.readouterr().out
    assert f"MalformedLine at {ann}:1: bad span segment '0 \u00b2'" in out
    assert "1 violation(s) in 1 document(s)" in out
    assert main(["stats", "--corpus", str(corpus_dir)]) == 1
    assert f"error: {ann}:1: bad span segment '0 \u00b2'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_a_directory_named_like_a_document_is_an_error(tmp_path, capsys, command):
    corpus_dir = _crlf_corpus(tmp_path)
    (corpus_dir / "dir.txt").mkdir()
    assert main([command, "--corpus", str(corpus_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error: [Errno 21] Is a directory: '{corpus_dir / 'dir.txt'}'" in err
