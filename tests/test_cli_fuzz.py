"""Fuzz every CLI input file: a damaged input is a clean, located error.

Each example takes one valid input of a small workspace (a corpus's
``.txt``/``.ann``, a gazetteer, rules, table, config or run-result file,
JSONL or a predictions directory, a dump of each kind, a common-word
list), damages it and runs the subcommand that reads it.  The damage is
a truncation, a few inserted bytes (0xff among them), or, in a JSON
input, a dropped or renamed key or a value of another type.  The run must
exit 0, 1 or 2 without a traceback, a non-zero exit must name the
damaged file, and a ``silver`` run that exits 0 must write a corpus that
loads again.  A run-result file is also damaged at every key in turn,
each way, under ``report --per-split``.

One input is named another way: a ``.txt`` its ``.ann`` no longer fits
is reported at the ``.ann`` line, so either file of the pair counts.
The config holds switches, choices and a ``--focus`` label, whose checks
name the file: a string value that names a path is reported by the check
of that path.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from flowner.cli import main
from flowner.corpus_io import load_corpus_dir, write_corpus_dir
from flowner.evaluation import MatchMode, score
from flowner.experiment import RunResult
from flowner.gazetteer import build_gazetteer, ingest
from flowner.model import Corpus
from util import doc_of, ent

_TEXT = "aligned with BWA in Python"

_FILES = {
    "gaz.json": None,  # written from build_gazetteer
    "rules.json": json.dumps({"version_patterns": ["v[0-9]+"],
                              "fixed_lists": {"ProgrammingLanguage": ["Python"]}}),
    "table.json": json.dumps([{"source": "Tool", "target": "Tool"},
                              {"source": "ProgrammingLanguage", "attribute": None,
                               "target": "ProgrammingLanguage", "qualifier": None}]),
    "cfg.json": json.dumps({"mode": "strict", "macro": True, "diff": False,
                            "qualifier_sensitive": False, "focus": "Tool"}),
    "run.json": None,  # written from a RunResult
    "preds.jsonl": "\n".join(json.dumps(r) for r in [
        {"doc_id": "d1", "label": "Tool", "start": 13, "end": 16, "surface": "BWA"},
        {"doc_id": "d1", "label": "Data", "start": [0, 13], "end": [7, 16],
         "surface": "aligned BWA", "qualifier": None},
        {"doc_id": "d2", "label": "Tool", "start": 0, "end": 4, "surface": "STAR"}]) + "\n",
    "pd/d1.ann": "T1\tTool 13 16\tBWA\nA1\tGeneral T1\n#1\tAnnotatorNotes T1\tcheck\n",
    "pd/d2.ann": "",
    "biotools.json": json.dumps([{"name": "BWA", "binaries": ["bwa"]}, {"name": "STAR"}]),
    "bioconda.txt": "# index\nbwa\nsamtools\n",
    "biocontainers.txt": "quay.io/biocontainers/bwa:0.7.17\nstar@sha256:00\n",
    "bioweb.txt": "BWA\nSTAR aligner\n",
    "custom.txt": "MyTool\n",
    "words.txt": "# common words\nthe\nstar\n",
}

# (damaged file, argv, files whose name in the message counts as naming
# it; by default the damaged file).  Paths are relative to the workspace.
_SCENARIOS = [
    ("c/d1.txt", ["stats", "--corpus", "@c"], ("c/d1.txt", "c/d1.ann")),
    ("c/d1.ann", ["eval", "--gold", "@c", "--pred", "@c"], ()),
    ("gaz.json", ["tag", "--corpus", "@c", "--gazetteer", "@gaz.json", "--out", "@o"], ()),
    ("rules.json", ["tag", "--corpus", "@c", "--gazetteer", "@gaz.json",
                    "--rules", "@rules.json", "--out", "@o"], ()),
    ("table.json", ["convert", "--corpus", "@c", "--table", "@table.json", "--out", "@o"],
     ()),
    ("cfg.json", ["eval", "--gold", "@c", "--pred", "@c", "--config", "@cfg.json"], ()),
    ("run.json", ["report", "--results", "@run.json", "--focus", "Tool"], ()),
    ("run.json", ["report", "--results", "@run.json", "--per-split"], ()),
    ("preds.jsonl", ["silver", "--corpus", "@c", "--predictions", "@preds.jsonl",
                     "--out", "@o"], ()),
    ("pd/d1.ann", ["silver", "--corpus", "@c", "--predictions", "@pd", "--out", "@o"], ()),
    *((dump, ["gazetteer", "build", f"--{kind}", f"@{dump}", "--out", "@o"], ())
      for kind, dump in (("biotools", "biotools.json"), ("bioconda", "bioconda.txt"),
                         ("biocontainers", "biocontainers.txt"),
                         ("bioweb", "bioweb.txt"), ("custom", "custom.txt"))),
    ("words.txt", ["gazetteer", "build", "--bioweb", "@bioweb.txt",
                   "--common-words", "@words.txt", "--out", "@o"], ()),
]

_VALUE_LIST = [None, True, 0, -1, 1.5, "x", "", [], ["x"], {}, {"x": 1}]
_VALUES = st.sampled_from(_VALUE_LIST)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus = Corpus("c", (
        doc_of("d1", _TEXT, ent("T1", "Tool", 13, 16, _TEXT),
               ent("T2", "ProgrammingLanguage", 20, 26, _TEXT)),
        doc_of("d2", "STAR maps reads")))
    write_corpus_dir(corpus, root / "c")
    (root / "pd").mkdir()
    gaz = build_gazetteer(ingest("bioweb", "BWA\nSTAR\n"))
    result = RunResult(0, 1, score(corpus, corpus, MatchMode.STRICT))
    files = dict(_FILES, **{"gaz.json": gaz.to_json_text(),
                            "run.json": json.dumps(result.to_json_dict())})
    for name, content in files.items():
        (root / name).write_text(content, encoding="utf-8")
    return root


def _json_paths(value, prefix=()):
    """The key paths of every object member under ``value``."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        if isinstance(value, dict):
            yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _damage_key(data, key_path, op, value=None):
    """Drop (``op`` "drop") or rename ("rename") the object key at
    ``key_path``, or set its value to ``value`` ("retype")."""
    *parents, key = key_path
    owner = data
    for part in parents:
        owner = owner[part]
    if op == "drop":
        del owner[key]
    elif op == "rename":
        owner[key + "_x"] = owner.pop(key)
    else:
        owner[key] = value
    return data


def _mutate_json(data, draw):
    """Drop or rename one object key, or give its value another type."""
    paths = list(_json_paths(data))
    if not paths:
        return None
    key_path = draw(st.sampled_from(paths))
    op = draw(st.sampled_from(["drop", "rename", "retype"]))
    return _damage_key(data, key_path, op, draw(_VALUES) if op == "retype" else None)


def _damage(raw: bytes, name: str, draw) -> bytes:
    kinds = ["truncate", "insert"]
    if name.endswith((".json", ".jsonl")):
        kinds.append("json")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return raw[:draw(st.integers(0, max(len(raw) - 1, 0)))]
    if kind == "insert":
        at = draw(st.integers(0, len(raw)))
        inserted = draw(st.one_of(
            st.just(b"\xff"), st.binary(min_size=1, max_size=3),
            st.sampled_from([b'"', b"\t", b"\n", b"{", b"]", b",", b" ", b"0", b"-"])))
        return raw[:at] + inserted + raw[at:]
    if name.endswith(".jsonl"):
        lines = raw.decode("utf-8").splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = json.dumps(_mutate_json(json.loads(lines[i]), draw))
        return "\n".join(lines).encode("utf-8")
    mutated = _mutate_json(json.loads(raw), draw)
    return raw if mutated is None else json.dumps(mutated).encode("utf-8")


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


def _check_damaged(workspace, scenario, damaged: bytes) -> None:
    """Run ``scenario`` with ``damaged`` in place of its file: it exits 0,
    1 or 2 without a traceback, a non-zero exit names the file, and a
    ``silver`` run that exits 0 writes a corpus that loads."""
    name, argv, named_by = scenario
    path = workspace / name
    pristine = path.read_bytes()
    path.write_bytes(damaged)
    try:
        code, err = _run([str(workspace / a[1:]) if a[:1] == "@" else a for a in argv])
        if code == 0 and argv[0] == "silver":
            load_corpus_dir(workspace / "o")  # the silver corpus reads back
    finally:
        path.write_bytes(pristine)
        out = workspace / "o"  # a corpus directory or a gazetteer file
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink(missing_ok=True)
    assert code in (0, 1, 2), damaged
    assert "Traceback" not in err
    if code != 0:
        assert any(str(workspace / n) in err for n in named_by or (name,)), err


@settings(max_examples=150)
@given(scenario=st.sampled_from(_SCENARIOS), data=st.data())
def test_a_damaged_input_exits_cleanly_and_names_its_file(workspace, scenario, data):
    name = scenario[0]
    _check_damaged(workspace, scenario, _damage((workspace / name).read_bytes(), name,
                                                data.draw))


def test_every_one_key_damage_of_a_run_result_exits_cleanly(workspace):
    # A run result nests its counts three objects deep, so random damage
    # seldom reaches a top-level key such as split_id: try every key.
    scenario = next(s for s in _SCENARIOS if "--per-split" in s[1])
    pristine = json.loads((workspace / scenario[0]).read_text("utf-8"))
    damages = [("drop", None), ("rename", None)] + [("retype", v) for v in _VALUE_LIST]
    for key_path in _json_paths(pristine):
        for op, value in damages:
            damaged = _damage_key(json.loads(json.dumps(pristine)), key_path, op, value)
            _check_damaged(workspace, scenario, json.dumps(damaged).encode("utf-8"))
