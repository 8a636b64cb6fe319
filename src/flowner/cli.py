"""Command-line entry point.

Subcommands cover the batch pipelines: validate, stats, convert, split,
eval, iaa, gazetteer build/export, tag, silver, fuse, report.  Exit codes
are fixed so CI can gate on them: 0 success, 1 validation/data failure,
2 usage error.  All randomness flows through explicit ``--seed`` flags;
artifacts are written atomically; given identical inputs and flags every
subcommand writes byte-identical outputs.

A JSON file passed via ``--config PATH`` or ``--config=PATH`` supplies
defaults for any long flag (keys are flag destinations, e.g.
``{"focus": "Tool,Biblio"}``); flags given on the command line win, and a
key that no subcommand accepts is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus_io, evaluation, experiment, gazetteer, schema, tagger
from .model import Corpus, Provenance, validate_corpus
from .schema import BIOTOFLOW
from .standoff import StandoffParseError
from .stats import corpus_stats


class UsageError(ValueError):
    pass


# Every typed data error of the package is a ValueError or KeyError subclass.
_DATA_ERRORS = (OSError, ValueError, KeyError)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _labels_arg(value) -> list[str] | None:
    if value is None:
        return None
    if isinstance(value, list):
        return value
    return [v for v in (s.strip() for s in value.split(",")) if v]


def _cmd_validate(args) -> int:
    _require(args, "corpus")
    paths = corpus_io.document_paths(args.corpus)
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
    print(f"{problems} violation(s) in {len(paths)} document(s)")
    return 1 if problems else 0


def _cmd_stats(args) -> int:
    _require(args, "corpus")
    corpus = corpus_io.load_corpus_dir(args.corpus)
    report = corpus_stats(corpus)
    payload = report.to_json_dict()
    text = json.dumps(payload, ensure_ascii=False, indent=2)
    if args.out:
        corpus_io.atomic_write_text(args.out, text + "\n")
    print(text)
    return 0


def _cmd_convert(args) -> int:
    _require(args, "corpus", "out")
    corpus = corpus_io.load_corpus_dir(args.corpus)
    table = (schema.mapping_table_from_file(args.table) if args.table
             else schema.default_softcite_table())
    converted, report = schema.convert_corpus(corpus, table, strict=args.strict)
    corpus_io.write_corpus_dir(converted, args.out)
    if args.report:
        corpus_io.atomic_write_json(args.report, report.to_json_dict())
    print(json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2))
    return 0


def _cmd_split(args) -> int:
    _require(args, "corpus", "out")
    corpus = corpus_io.load_corpus_dir(args.corpus)
    ratios = experiment.DEFAULT_RATIOS
    if args.ratios:
        parts = [float(x) for x in str(args.ratios).split(",")]
        if len(parts) != 2:
            raise UsageError("--ratios takes two comma-separated fractions")
        ratios = (parts[0], parts[1])
    manifests = experiment.make_splits(corpus, args.n, args.seed, ratios)
    out = Path(args.out)
    for m in manifests:
        corpus_io.atomic_write_json(out / f"split_{m.split_id}.json", m.to_json_dict())
    print(f"wrote {len(manifests)} manifest(s) to {out}")
    return 0


def _print_report(report, macro: bool, diff: bool) -> None:
    print(evaluation.render_report(report), end="")
    if macro:
        p, r, f1 = evaluation.macro_average(report)
        print(f"Macro           {100 * p:.1f}  {100 * r:.1f}  {100 * f1:.1f}")
    if diff:
        print(evaluation.render_diff(report), end="")


def _cmd_eval(args) -> int:
    _require(args, "gold", "pred")
    gold = corpus_io.load_corpus_dir(args.gold)
    pred = corpus_io.load_corpus_dir(args.pred)
    focus = _labels_arg(args.focus)
    modes = ([evaluation.MatchMode(args.mode)] if args.mode != "both"
             else [evaluation.MatchMode.STRICT, evaluation.MatchMode.RELAXED])
    payload = {}
    for mode in modes:
        report = evaluation.score(gold, pred, mode, focus, args.qualifier_sensitive)
        print(f"== {mode.value} ==")
        _print_report(report, args.macro, args.diff)
        payload[mode.value] = report.to_json_dict()
    if args.json:
        corpus_io.atomic_write_json(
            args.json, payload if len(modes) > 1 else payload[modes[0].value])
    return 0


def _cmd_iaa(args) -> int:
    _require(args, "annotator_a", "annotator_b")
    a = corpus_io.load_corpus_dir(args.annotator_a)
    b = corpus_io.load_corpus_dir(args.annotator_b)
    mode = evaluation.MatchMode(args.mode)
    report = evaluation.score(a, b, mode, _labels_arg(args.focus))
    _print_report(report, args.macro, args.diff)
    if args.json:
        corpus_io.atomic_write_json(args.json, report.to_json_dict())
    return 0


def _cmd_gazetteer_build(args) -> int:
    _require(args, "out")
    entries = []
    for kind in gazetteer.SOURCE_KINDS:
        path = getattr(args, kind, None)
        if path:
            entries.extend(gazetteer.ingest(kind, _read_dump(path), path))
    if not entries:
        raise UsageError("no dump files given (--biotools/--bioconda/...)")
    common = None
    if args.common_words:
        common = frozenset(
            w.strip().casefold()
            for w in _read_dump(args.common_words).splitlines()
            if w.strip() and not w.startswith("#"))
    options = gazetteer.BuildOptions(
        min_length=args.min_length,
        drop_numeric=not args.keep_numeric,
        drop_common_words=not args.keep_common,
        common_words=common)
    gaz = gazetteer.build_gazetteer(entries, options)
    corpus_io.atomic_write_json(args.out, gaz.to_json_dict())
    print(f"gazetteer: {len(gaz)} entries "
          f"({json.dumps(gaz.normalization['filtered'])} filtered)")
    return 0


def _read_dump(path) -> str:
    """A dump or word-list file; a byte that is not UTF-8 is a ``MalformedDump``."""
    return corpus_io._read_text(path, lambda reason, _path, line: gazetteer.MalformedDump(
        f"{reason} (line {line})", path=path))


def _load_gazetteer(path) -> gazetteer.Gazetteer:
    data = corpus_io.read_json(path, gazetteer.MalformedDump)
    return gazetteer.Gazetteer.from_json_dict(data, path)


def _cmd_gazetteer_export(args) -> int:
    _require(args, "gazetteer", "out")
    gaz = _load_gazetteer(args.gazetteer)
    gazetteer.export_vocab(gaz, args.out, split_multiword=args.split_multiword)
    print(f"wrote {len(gazetteer.vocab_lines(gaz, args.split_multiword))} line(s) "
          f"to {args.out}")
    return 0


def _ruleset(args) -> tagger.RuleSet:
    if args.rules:
        return tagger.ruleset_from_file(args.rules)
    return tagger.default_ruleset()


def _cmd_tag(args) -> int:
    _require(args, "corpus", "gazetteer", "out")
    corpus = corpus_io.load_corpus_dir(args.corpus)
    predictor = tagger.TaggerPredictor(_load_gazetteer(args.gazetteer), _ruleset(args))
    tagged = tagger.silver_annotate(corpus, predictor)
    corpus_io.write_corpus_dir(tagged, args.out)
    print(f"tagged {len(tagged)} document(s) into {args.out}")
    return 0


def _cmd_silver(args) -> int:
    _require(args, "corpus", "out")
    corpus = corpus_io.load_corpus_dir(args.corpus)
    if args.predictions:
        path = Path(args.predictions)
        predictor = (tagger.ExternalPredictions.from_jsonl(path)
                     if path.suffix == ".jsonl"
                     else tagger.ExternalPredictions.from_dir(path))
    elif args.gazetteer:
        predictor = tagger.TaggerPredictor(_load_gazetteer(args.gazetteer), _ruleset(args))
    else:
        raise UsageError("need --predictions or --gazetteer")
    silver = tagger.silver_annotate(corpus, predictor)
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
        corpus = corpus_io.load_corpus_dir(path)
        sources.append(tagger.FusionSource(corpus=corpus, role=role))
    config = tagger.FusionConfig(
        sources=tuple(sources), for_training=args.for_training,
        prefix_on_collision=args.prefix_collisions)
    fused = tagger.fuse(config)
    corpus_io.write_corpus_dir(fused, args.out)
    counts = tagger.provenance_counts(fused)
    print(json.dumps({"documents": len(fused), "provenance": dict(sorted(counts.items()))}))
    return 0


def _cmd_report(args) -> int:
    _require(args, "results")
    paths: list[Path] = []
    for raw in args.results:
        p = Path(raw)
        paths.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    results = [experiment.run_result_from_file(p) for p in paths]
    table = experiment.aggregate(results, _labels_arg(args.focus),
                                 per_split=args.per_split)
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

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], **kwargs)
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

    p = add("eval", _cmd_eval, help="score predictions against gold")
    p.add_argument("--gold")
    p.add_argument("--pred")
    p.add_argument("--mode", choices=["strict", "relaxed", "both"], default="both")
    p.add_argument("--focus", help="comma-separated label subset for the overall row")
    p.add_argument("--qualifier-sensitive", action="store_true")
    p.add_argument("--macro", action="store_true", help="also print macro averages")
    p.add_argument("--diff", action="store_true", help="list missed/spurious entities")
    p.add_argument("--json", help="write the report JSON here")

    p = add("iaa", _cmd_iaa, help="inter-annotator agreement between two annotation sets")
    p.add_argument("--annotator-a", dest="annotator_a")
    p.add_argument("--annotator-b", dest="annotator_b")
    p.add_argument("--mode", choices=["strict", "relaxed"], default="relaxed")
    p.add_argument("--focus")
    p.add_argument("--macro", action="store_true")
    p.add_argument("--diff", action="store_true")
    p.add_argument("--json")

    p = add("gazetteer", lambda args: 0, help="build or export a gazetteer")
    gsub = p.add_subparsers(dest="gazetteer_command", required=True)
    gb = gsub.add_parser("build", parents=[common])
    gb.set_defaults(func=_cmd_gazetteer_build)
    registry["gazetteer build"] = gb
    for kind in gazetteer.SOURCE_KINDS:
        gb.add_argument(f"--{kind}", help=f"{kind} dump file")
    gb.add_argument("--out")
    gb.add_argument("--min-length", type=int, default=2)
    gb.add_argument("--keep-numeric", action="store_true")
    gb.add_argument("--keep-common", action="store_true")
    gb.add_argument("--common-words", help="override the shipped common-word list")
    ge = gsub.add_parser("export", parents=[common])
    ge.set_defaults(func=_cmd_gazetteer_export)
    registry["gazetteer export"] = ge
    ge.add_argument("--gazetteer")
    ge.add_argument("--out")
    ge.add_argument("--split-multiword", action="store_true")

    p = add("tag", _cmd_tag, help="run the dictionary/rule tagger")
    p.add_argument("--corpus")
    p.add_argument("--gazetteer")
    p.add_argument("--rules", help="rule set JSON (default: built-in)")
    p.add_argument("--out")

    p = add("silver", _cmd_silver, help="silver-annotate a corpus with a predictor")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--predictions", help="standoff dir or .jsonl of model predictions")
    p.add_argument("--gazetteer", help="use the built-in tagger with this gazetteer")
    p.add_argument("--rules")

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


def _apply_config(path, registry: dict[str, argparse.ArgumentParser]) -> None:
    config = corpus_io.read_json(path, lambda reason, path: UsageError(f"{path}: {reason}"))
    if not isinstance(config, dict):
        raise UsageError(f"{path}: --config must contain a JSON object")
    valid = {a.dest for sub in registry.values() for a in sub._actions
             if a.option_strings} - {"help", "config"}
    unknown = sorted(config.keys() - valid)
    if unknown:
        raise UsageError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    for sub in registry.values():
        dests = {a.dest for a in sub._actions}
        sub.set_defaults(**{k: v for k, v in config.items() if k in dests})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Re-parse so the config defaults sit below the explicit flags.
            _apply_config(args.config, registry)
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
