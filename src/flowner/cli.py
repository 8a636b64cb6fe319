"""Command-line entry point.

Subcommands cover the batch pipelines: validate, stats, convert, split,
eval, iaa, gazetteer build/export, tag, silver, fuse, report.  ``tag`` runs
the built-in dictionary/rule tagger; ``silver`` reads model predictions
(a standoff directory or JSONL) into a silver corpus.  Exit codes
are fixed so CI can gate on them: 0 success, 1 validation/data failure,
2 usage error.  All randomness flows through explicit ``--seed`` flags;
artifacts are written atomically; given identical inputs and flags every
subcommand writes byte-identical outputs.

A JSON file passed via ``--config PATH`` or ``--config=PATH`` supplies
defaults for any long flag (keys are flag destinations, e.g.
``{"focus": "Tool,Biblio"}``); flags given on the command line win, and a
key that no subcommand accepts is a usage error
(:func:`corpus_io.check_fields`).  A value gets the check its flag gets on
the command line: one of the flag's choices, ``true`` or ``false`` for a
switch, an integer for a numeric flag, a list of strings for a repeatable
flag (``--source``, and ``--results``, which needs at least one) and a
string for any other (``--focus`` also takes a list of labels).  An error
about a value the config file supplied (a ``--focus`` label, an input file
or corpus directory missing at the path it gave) names the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus_io, evaluation, experiment, gazetteer, schema, tagger
from .model import Corpus, InputError, Provenance, validate_corpus
from .schema import BIOTOFLOW
from .standoff import StandoffParseError
from .stats import corpus_stats


class UsageError(InputError):
    """A command line or ``--config`` file that cannot be used (exit code 2);
    a config fault is located by the file."""


# Every typed data error of the package is a ValueError or KeyError subclass.
_DATA_ERRORS = (OSError, ValueError, KeyError)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _labels_arg(args) -> list[str] | None:
    """The ``--focus`` value: comma-separated labels, or a list of labels from
    ``--config``.  A value that names no label is a usage error that names
    the config file it came from, if it did."""
    value = args.focus
    if value is None:
        return None
    parts = value.split(",") if isinstance(value, str) else value
    if not (isinstance(parts, list) and all(isinstance(part, str) for part in parts)):
        raise UsageError(f"--focus takes comma-separated labels, got {value!r}",
                         _config_of(args, "focus"))
    labels = [label for label in (part.strip() for part in parts) if label]
    if not labels:
        raise UsageError(f"--focus names no label: {value!r}", _config_of(args, "focus"))
    return labels


def _config_of(args, dest: str):
    """The ``--config`` file if it supplied flag ``dest``'s value, else None."""
    return args.config if dest in args.from_config else None


def _read_input(read, args, dest: str, path=None, named=None):
    """``read(path)`` of the input file or directory that flag ``dest``
    names, by default its value.  A missing file is an error that names the
    ``--config`` file if that supplied the value and ``named``, the path the
    flag named (by default ``path``), does not exist: a file missing inside
    an existing directory is not the config's fault."""
    path = getattr(args, dest) if path is None else path
    try:
        return read(path)
    except FileNotFoundError as exc:
        config = _config_of(args, dest)
        if config is None or Path(path if named is None else named).exists():
            raise
        raise InputError(str(exc), config) from None


def _check_focus(focus: list[str], known: set[str], args) -> None:
    """Each ``--focus`` label must be a schema label or one of ``known``,
    the labels of the inputs; any other is a usage error that names it, and
    the config file the labels came from, if they did."""
    unknown = [label for label in dict.fromkeys(focus)
               if label not in BIOTOFLOW.labels and label not in known]
    if unknown:
        raise UsageError(f"--focus names unknown label(s): "
                         f"{', '.join(map(repr, unknown))}", _config_of(args, "focus"))


def _base_labels(*corpora: Corpus) -> set[str]:
    return {e.label.base for corpus in corpora for doc in corpus.documents
            for e in doc.entities}


def _ratios_arg(args) -> tuple[float, float]:
    """The ``--ratios`` value, by default ``experiment.DEFAULT_RATIOS``; a
    value that is not two fractions in range is a usage error that names the
    config file it came from, if it did."""
    value = args.ratios
    if value is None:
        return experiment.DEFAULT_RATIOS
    try:
        train_frac, dev_frac = (float(part) for part in value.split(","))
    except ValueError:
        raise UsageError(f"--ratios takes two comma-separated fractions, got {value!r}",
                         _config_of(args, "ratios")) from None
    if not experiment.ratios_in_range((train_frac, dev_frac)):
        raise UsageError(f"--ratios out of range, got {value!r}", _config_of(args, "ratios"))
    return train_frac, dev_frac


def _cmd_validate(args) -> int:
    _require(args, "corpus")
    paths = _read_input(corpus_io.document_paths, args, "corpus")
    bases = BIOTOFLOW.labels if args.schema == "biotoflow" else None
    # Lenient load: a file the parser rejects is a finding, not a crash.
    documents = []
    problems = 0
    for txt_path, ann_path in paths:
        try:
            documents.append(corpus_io.load_document(txt_path, ann_path))
        except StandoffParseError as exc:
            print(f"{type(exc).__name__} at {exc}")
            problems += 1
    violations = validate_corpus(Corpus(Path(args.corpus).name, tuple(documents)), bases)
    for v in violations:
        print(v)
    problems += len(violations)
    n_docs = sum(txt_path is not None for txt_path, _ann_path in paths)  # not an orphan .ann
    print(f"{problems} violation(s) in {n_docs} document(s)")
    return 1 if problems else 0


def _cmd_stats(args) -> int:
    _require(args, "corpus")
    corpus = _read_input(corpus_io.load_corpus_dir, args, "corpus")
    report = corpus_stats(corpus)
    payload = report.to_json_dict()
    text = corpus_io.dumps_json(payload)
    if args.out:
        corpus_io.atomic_write_text(args.out, text + "\n")
    print(text)
    return 0


def _cmd_convert(args) -> int:
    _require(args, "corpus", "out")
    corpus = _read_input(corpus_io.load_corpus_dir, args, "corpus")
    table = (_read_input(schema.mapping_table_from_file, args, "table") if args.table
             else schema.default_softcite_table())
    converted, report = schema.convert_corpus(corpus, table, strict=args.strict)
    corpus_io.write_corpus_dir(converted, args.out)
    if args.report:
        corpus_io.atomic_write_json(args.report, report.to_json_dict())
    print(corpus_io.dumps_json(report.to_json_dict()))
    return 0


def _cmd_split(args) -> int:
    ratios = _ratios_arg(args)
    _require(args, "corpus", "out")
    if args.n < 1:
        raise UsageError(f"--n takes a number of splits of at least 1, got {args.n!r}")
    corpus = _read_input(corpus_io.load_corpus_dir, args, "corpus")
    manifests = experiment.make_splits(corpus, args.n, args.seed, ratios)
    out = Path(args.out)
    for m in manifests:
        corpus_io.atomic_write_json(out / f"split_{m.split_id}.json", m.to_json_dict())
    print(f"wrote {len(manifests)} manifest(s) to {out}")
    return 0


# The corpus flags of each scoring command, in the gold and pred roles.
_SCORED = {"eval": ("gold", "pred"), "iaa": ("annotator_a", "annotator_b")}


def _cmd_score(args) -> int:
    """``eval`` and ``iaa``: score the second corpus against the first and
    print the table, the macro row and the diff of each mode; ``eval``
    heads each mode's output with its name."""
    sides = _SCORED[args.command]
    focus = _labels_arg(args)
    _require(args, *sides)
    gold, pred = (_read_input(corpus_io.load_corpus_dir, args, dest) for dest in sides)
    if focus:
        _check_focus(focus, _base_labels(gold, pred), args)
    modes = ([evaluation.MatchMode(args.mode)] if args.mode != "both"
             else [evaluation.MatchMode.STRICT, evaluation.MatchMode.RELAXED])
    payload = {}
    for mode in modes:
        report = evaluation.score(gold, pred, mode, focus,
                                  getattr(args, "qualifier_sensitive", False))
        if args.command == "eval":
            print(f"== {mode.value} ==")
        print(evaluation.render_report(report, args.macro), end="")
        if args.diff:
            print(evaluation.render_diff(report), end="")
        payload[mode.value] = report.to_json_dict()
    if args.json:
        corpus_io.atomic_write_json(
            args.json, payload if len(modes) > 1 else payload[modes[0].value])
    return 0


def _cmd_gazetteer_build(args) -> int:
    _require(args, "out")
    if args.keep_common and args.common_words:
        raise UsageError("--keep-common drops no common word, so it takes no --common-words",
                         _config_of(args, "keep_common") or _config_of(args, "common_words"))
    dumps = {kind: getattr(args, kind) for kind in gazetteer.SOURCE_KINDS
             if getattr(args, kind, None)}
    if not dumps:
        raise UsageError("no dump files given (--biotools/--bioconda/...)")
    entries = [entry for kind, path in dumps.items()
               for entry in gazetteer.ingest(kind, _read_input(_read_dump, args, kind), path)]
    if not entries:
        raise gazetteer.MalformedDump("no names found", ", ".join(dumps.values()))
    common = None
    if args.common_words:
        common = gazetteer.common_words(_read_input(_read_dump, args, "common_words"))
    gaz = gazetteer.build_gazetteer(
        entries, min_length=args.min_length, drop_numeric=not args.keep_numeric,
        drop_common_words=not args.keep_common, common_words=common)
    corpus_io.atomic_write_text(args.out, gaz.to_json_text())
    print(f"gazetteer: {len(gaz)} entries "
          f"({json.dumps(gaz.normalization['filtered'])} filtered)")
    return 0


def _read_dump(path) -> str:
    """A dump or word-list file; a byte that is not UTF-8 is a ``MalformedDump``."""
    return corpus_io._read_text(path, gazetteer.MalformedDump)


def _load_gazetteer(path) -> gazetteer.Gazetteer:
    data = corpus_io.read_json(path, gazetteer.MalformedDump)
    return gazetteer.Gazetteer.from_json_dict(data, path)


def _cmd_gazetteer_export(args) -> int:
    _require(args, "gazetteer", "out")
    gaz = _read_input(_load_gazetteer, args, "gazetteer")
    n_lines = gazetteer.export_vocab(gaz, args.out, split_multiword=args.split_multiword)
    print(f"wrote {n_lines} line(s) to {args.out}")
    return 0


def _cmd_tag(args) -> int:
    _require(args, "corpus", "gazetteer", "out")
    corpus = _read_input(corpus_io.load_corpus_dir, args, "corpus")
    rules = _read_input(tagger.ruleset_from_file, args, "rules") if args.rules else None
    predictor = tagger.TaggerPredictor(_read_input(_load_gazetteer, args, "gazetteer"), rules)
    tagged = tagger.silver_annotate(corpus, predictor)
    corpus_io.write_corpus_dir(tagged, args.out)
    print(f"tagged {len(tagged)} document(s) into {args.out}")
    return 0


def _cmd_silver(args) -> int:
    _require(args, "corpus", "predictions", "out")
    corpus = _read_input(corpus_io.load_corpus_dir, args, "corpus")
    silver = _read_input(lambda path: tagger.read_predictions(path, corpus), args, "predictions")
    corpus_io.write_corpus_dir(silver, args.out)
    print(f"silver-annotated {len(silver)} document(s) into {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    _require(args, "out")
    if not args.source:
        raise UsageError("at least one --source DIR[:role] is required")
    sources = []
    for raw in args.source:
        path, _, role_name = raw.partition(":")
        try:
            role = Provenance(role_name) if role_name else None
        except ValueError:
            raise UsageError(f"unknown role {role_name!r} in --source {raw!r}, expected "
                             + "|".join(p.value for p in Provenance)) from None
        sources.append((_read_input(corpus_io.load_corpus_dir, args, "source", path), role))
    fused = tagger.fuse(sources, args.for_training, args.prefix_collisions)
    corpus_io.write_corpus_dir(fused, args.out)
    counts = tagger.provenance_counts(fused)
    print(json.dumps({"documents": len(fused), "provenance": dict(sorted(counts.items()))}))
    return 0


def _cmd_report(args) -> int:
    focus = _labels_arg(args)
    _require(args, "results")
    # Each file with the item of --results that named it, and each file's
    # first name by its resolved path: a file named twice would count twice.
    files: list[tuple[str, Path]] = []
    first_names: dict[Path, Path] = {}
    for raw in args.results:
        p = Path(raw)
        for path in sorted(p.glob("*.json")) if p.is_dir() else [p]:
            key = path.resolve()
            if key in first_names:
                first = first_names[key]
                again = "" if first == path else f", again as {path}"
                raise UsageError(f"--results names {first} more than once{again}",
                                 _config_of(args, "results"))
            first_names[key] = path
            files.append((raw, path))
    results = [_read_input(experiment.run_result_from_file, args, "results", path, raw)
               for raw, path in files]
    if focus:
        _check_focus(focus, {base for r in results for base in r.report.per_label}, args)
    table = experiment.aggregate(results, focus, per_split=args.per_split)
    rendered = experiment.render_table(table, layout=args.layout)
    if args.out:
        corpus_io.atomic_write_text(args.out, rendered)
    print(rendered, end="")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying flag defaults")

    parser = argparse.ArgumentParser(
        prog="flowner",
        description="Corpus engineering and evaluation for workflow-article NER")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    # A subcommand is registered by its words, e.g. "gazetteer build".
    def add(name: str, func, group=sub, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name.split()[-1], parents=[common], **kwargs)
        p.set_defaults(func=func)
        registry[name] = p
        return p

    p = add("validate", _cmd_validate, help="check corpus invariants")
    p.add_argument("--corpus")
    p.add_argument("--schema", choices=["biotoflow", "none"], default="none",
                   help="also check labels against the built-in schema")

    p = add("stats", _cmd_stats, help="per-label counts, tokens, nesting fraction")
    p.add_argument("--corpus")
    p.add_argument("--out")

    p = add("convert", _cmd_convert, help="map a SoftCite-style corpus into the schema")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--table", help="mapping table JSON (default: built-in)")
    p.add_argument("--strict", action="store_true",
                   help="fail on source labels without any rule")
    p.add_argument("--report", help="write the conversion report JSON here")

    p = add("split", _cmd_split, help="write reproducible split manifests")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--ratios", help="train_frac,dev_frac_within_train (default 0.75,0.3333)")

    p = add("eval", _cmd_score, help="score predictions against gold")
    p.add_argument("--gold")
    p.add_argument("--pred")
    p.add_argument("--mode", choices=["strict", "relaxed", "both"], default="both")
    p.add_argument("--focus", help="comma-separated label subset for the overall row")
    p.add_argument("--qualifier-sensitive", action="store_true")
    p.add_argument("--macro", action="store_true", help="also print macro averages")
    p.add_argument("--diff", action="store_true", help="list missed/spurious entities")
    p.add_argument("--json", help="write the report JSON here")

    p = add("iaa", _cmd_score, help="inter-annotator agreement between two annotation sets")
    p.add_argument("--annotator-a", dest="annotator_a")
    p.add_argument("--annotator-b", dest="annotator_b")
    p.add_argument("--mode", choices=["strict", "relaxed"], default="relaxed")
    p.add_argument("--focus")
    p.add_argument("--macro", action="store_true")
    p.add_argument("--diff", action="store_true")
    p.add_argument("--json")

    # The group takes no --config: the subcommand's default would replace it.
    gsub = sub.add_parser("gazetteer", help="build or export a gazetteer").add_subparsers(
        dest="gazetteer_command", required=True)
    gb = add("gazetteer build", _cmd_gazetteer_build, gsub)
    for kind in gazetteer.SOURCE_KINDS:
        gb.add_argument(f"--{kind}", help=f"{kind} dump file")
    gb.add_argument("--out")
    gb.add_argument("--min-length", type=int, default=2)
    gb.add_argument("--keep-numeric", action="store_true")
    gb.add_argument("--keep-common", action="store_true")
    gb.add_argument("--common-words", help="override the shipped common-word list")
    ge = add("gazetteer export", _cmd_gazetteer_export, gsub)
    ge.add_argument("--gazetteer")
    ge.add_argument("--out")
    ge.add_argument("--split-multiword", action="store_true")

    p = add("tag", _cmd_tag, help="run the dictionary/rule tagger")
    p.add_argument("--corpus")
    p.add_argument("--gazetteer")
    p.add_argument("--rules", help="rule set JSON (default: built-in)")
    p.add_argument("--out")

    p = add("silver", _cmd_silver,
            help="silver-annotate a corpus with model predictions (the built-in tagger is 'tag')")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--predictions", help="standoff dir or .jsonl of model predictions")

    p = add("fuse", _cmd_fuse, help="concatenate corpora, tracking provenance")
    p.add_argument("--source", action="append",
                   help="corpus dir, optionally DIR:role (gold|silver|converted)")
    p.add_argument("--out")
    p.add_argument("--for-training", action="store_true")
    p.add_argument("--prefix-collisions", action="store_true")

    p = add("report", _cmd_report, help="aggregate run results into a mean±std table")
    p.add_argument("--results", nargs="+", help="RunResult JSON files or directories")
    p.add_argument("--focus")
    p.add_argument("--layout", choices=["text", "markdown", "csv"], default="text")
    p.add_argument("--per-split", action="store_true",
                   help="std over per-split means instead of pooled runs")
    p.add_argument("--out")

    return parser, registry


def _config_value_error(action: argparse.Action, value) -> str | None:
    """Why a config value fails the check its flag gets on the command line,
    or None.  An integer flag also takes a string that ``int`` reads, as
    argparse converts string defaults with the flag's ``type``; ``--focus``
    values are checked by :func:`_labels_arg`."""
    if isinstance(action, argparse._StoreTrueAction):
        return None if type(value) is bool else "takes true or false"
    if action.choices is not None:
        return None if value in action.choices else (
            f"takes one of {', '.join(action.choices)}")
    if action.type is int:
        try:
            number = int(value) if isinstance(value, str) else value
        except ValueError:
            number = None
        return None if type(number) is int else "takes an integer"
    if isinstance(action, argparse._AppendAction) or action.nargs == "+":
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            return "takes a list of strings"
        return "takes at least one string" if action.nargs == "+" and not value else None
    if action.type is None and action.nargs is None and action.dest != "focus":
        return None if isinstance(value, str) else "takes a string"
    return None


def _apply_config(path, registry: dict[str, argparse.ArgumentParser], command: str) -> None:
    """Set the config file's values as flag defaults, each checked against
    the flag of the subcommand ``command`` (its registry name)."""
    valid = {a.dest for sub in registry.values() for a in sub._actions
             if a.option_strings} - {"help", "config"}
    config = corpus_io.check_fields(corpus_io.read_json(path, UsageError), UsageError, path,
                                    None, optional=sorted(valid))
    for action in registry[command]._actions:
        if action.dest in config:
            value = config[action.dest]
            reason = _config_value_error(action, value)
            if reason is not None:
                raise UsageError(f"config key {action.dest!r} in {path} {reason}, "
                                 f"got {value!r}")
    for sub in registry.values():
        dests = {a.dest for a in sub._actions}
        sub.set_defaults(**{k: v for k, v in config.items() if k in dests})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(argv)
        explicit = vars(args)
        if args.config is not None:
            # Re-parse so the config defaults sit below the explicit flags.
            command = " ".join(filter(None, (args.command,
                                             getattr(args, "gazetteer_command", None))))
            _apply_config(args.config, registry, command)
            args = parser.parse_args(argv)
            # argparse appends a repeated flag to its default; a list given
            # on the command line replaces the config's instead.
            for dest, value in explicit.items():
                if isinstance(value, list):
                    setattr(args, dest, value)
        # The values the config file supplied, for errors that name the file.
        args.from_config = {dest for dest, value in vars(args).items()
                            if explicit.get(dest) != value}
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
