"""Seeded end-to-end benchmark of the flowner CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flowner checkout.  The harness generates the
workload's inputs from the seed, then runs the workload's chain of CLI
subcommands as a closed loop (one chain at a time, each subcommand after
the previous one returns), each chain in a fresh child interpreter,
until ``--seconds`` have passed.  Every chain's outputs are checked
against the planted truth and hashed.  With ``--trace 0`` the last line
of output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced chains alternate and it holds the
per-layer metrics.  Details and rationale: ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES_PER_CHAIN = 2
TIME_LIMIT_S = 165          # the whole run, generation and set-up included

STAGES = ["gazetteer_build", "convert", "tag", "fuse", "validate", "stats", "split",
          "eval", "eval_strict", "eval_relaxed", "report"]
MODULES = ["cli", "corpus_io", "standoff", "model", "schema", "gazetteer", "tagger",
           "evaluation", "stats", "experiment"]

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  Self times of layers a workload never calls are 0.
PER_LAYER = {
    **{f"{stage}_s": "s" for stage in STAGES},
    "failed_ratio": "ratio",
    **{f"{module}.self_s": "s" for module in MODULES},
    "corpus_io.load_corpus_dir.self_s": "s",
    "corpus_io.load_corpus_dir.docs": "count",
    "corpus_io.load_corpus_dir.jobs1_s": "s",
    "corpus_io.load_corpus_dir.jobs_nproc_s": "s",
    "corpus_io.load_document.self_s": "s",
    "corpus_io.write_corpus_dir.self_s": "s",
    "corpus_io.write_corpus_dir.bytes": "B",
    "corpus_io.atomic_write_text.self_s": "s",
    "standoff.parse_standoff.self_s": "s",
    "standoff.parse_standoff.calls": "count",
    "standoff.parse_standoff.p50_us": "us",
    "standoff.parse_standoff.p99_us": "us",
    "standoff.serialize_standoff.self_s": "s",
    "model.validate_corpus.self_s": "s",
    "model.validate_document.self_s": "s",
    "schema.convert_corpus.self_s": "s",
    "schema.convert_corpus.entities_mapped": "count",
    "schema.convert_corpus.entities_dropped": "count",
    "gazetteer.ingest.self_s": "s",
    "gazetteer.build_gazetteer.self_s": "s",
    "gazetteer.build_gazetteer.names_kept": "count",
    "gazetteer.Gazetteer.from_json_dict.self_s": "s",
    "tagger.TaggerPredictor.init_s": "s",
    "tagger.tag.self_s": "s",
    "tagger.tag.calls": "count",
    "tagger.tag.kchars": "kchar",
    "tagger.tag.entities": "count",
    "tagger.tag.entities_per_kchar": "1/kchar",
    "tagger.silver_annotate.self_s": "s",
    "tagger.fuse.self_s": "s",
    "evaluation.score.self_s": "s",
    "evaluation.match_document.self_s": "s",
    "evaluation.match_document.calls": "count",
    "evaluation.match_document.gold_x_pred": "count",
    "evaluation.match_document.pairs_matched": "count",
    "evaluation.match_document.matched_per_pair": "ratio",
    "stats.corpus_stats.self_s": "s",
    "stats.count_nested.self_s": "s",
    "stats.count_nested.entities": "count",
    "stats.tokenize.self_s": "s",
    "experiment.make_splits.self_s": "s",
    "experiment.aggregate.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def machine_facts() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine()}


class Harness:
    def __init__(self, root: Path, wl: workloads.Workload, work: Path, deadline: float):
        self.src = str(root / "src")
        self.wl = wl
        self.work = work
        self.deadline = deadline
        self.started = 0
        self.first_digests: dict[str, str] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _child(self, args: list[str], stdout=subprocess.DEVNULL) -> str | None:
        """Run ``child.py`` to completion; its stdout, or None if it failed."""
        env = dict(os.environ, TMPDIR=str(self.work))
        env.pop("PYTHONPATH", None)
        with open(self.work / "child.err", "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                                      cwd=self.work, stdout=stdout, stderr=err, env=env,
                                      timeout=max(5.0, self.deadline - time.monotonic()),
                                      text=True)
            except subprocess.TimeoutExpired:   # run() has killed and reaped it
                self.problems.append(f"child.py {args[0]} timed out")
                return None
        if proc.returncode != 0:
            err = (self.work / "child.err").read_text(encoding="utf-8")[-2000:]
            self.problems.append(f"child.py {args[0]} exited {proc.returncode}: {err}")
            return None
        return proc.stdout or ""

    def iterate(self, traced: bool) -> dict | None:
        """Run one chain, check and hash its outputs; the result, or None."""
        # Earlier outputs are moved aside, not deleted (see main).
        for name in ("out", "glue"):
            if (self.work / name).exists():
                (self.work / name).rename(self.work / "trash" / f"{name}{self.started}")
        self.started += 1
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        # Flush the previous chain's writes so their writeback does not
        # overlap this chain's timing.
        os.sync()
        if self._child(["run", self.src, "plan.json", "result.json"]
                       + (["trace"] if traced else [])) is None:
            self.attempted += len(self.wl.steps)
            self.failed += len(self.wl.steps)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        digests = checks.digests(self.work / "out")
        if self.first_digests is None:
            self.first_digests = digests
        changed = {path for path in set(digests) | set(self.first_digests)
                   if digests.get(path) != self.first_digests.get(path)}
        for step, outcome in zip(self.wl.steps, result["steps"]):
            stdout_file = f"stdout/{step.name}.txt"
            stdout = (self.work / "out" / stdout_file).read_text(encoding="utf-8")
            problems = [] if outcome["code"] == 0 else [f"exit {outcome['code']}"]
            if not problems:
                problems = checks.check_step(self.wl, step.name, self.work, stdout)
            owned = [p[len("out/"):] for p in step.outputs] + [stdout_file]
            drift = sorted(p for p in changed if any(p == o or p.startswith(o + "/")
                                                      for o in owned))
            if drift:
                problems.append(f"outputs differ from the first chain: {drift[:3]}")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{step.name}: {p}" for p in problems)
        result["traced"] = traced
        result["wall_s"] = sum(s["seconds"] for s in result["steps"])
        return result

    def setup_probe(self) -> float | None:
        """Seconds a fresh interpreter takes to set up, or None on failure."""
        gaz = self.wl.setup_gazetteer
        out = self._child(["setup", self.src] + ([gaz] if gaz else []),
                          stdout=subprocess.PIPE)
        return None if out is None else float(out)


def median_steps(chains: list[dict]) -> dict[str, float]:
    """Each step's median time over the chains."""
    times: dict[str, list[float]] = {}
    for chain in chains:
        for step in chain["steps"]:
            times.setdefault(step["name"], []).append(step["seconds"])
    return {name: statistics.median(values) for name, values in times.items()}


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def traced_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced chain (stage times excepted)."""
    summary = spans.summarize(result["spans"])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    out = {f"{module}.self_s": s for module, s in spans.module_self(summary).items()}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls") and span in summary:
            out.setdefault(name, summary[span][field])
    for span, counters in result["counts"].items():
        out.update({f"{span}.{key}": v for key, v in counters.items()})
    parse = sorted(summary.get("standoff.parse_standoff", empty)["durations"])
    out["standoff.parse_standoff.p50_us"] = 1e6 * spans.percentile(parse, 0.50)
    out["standoff.parse_standoff.p99_us"] = 1e6 * spans.percentile(parse, 0.99)
    out["tagger.TaggerPredictor.init_s"] = summary.get(
        "tagger.TaggerPredictor.__init__", empty)["total_s"]
    kchars = out.get("tagger.tag.kchars", 0)
    out["tagger.tag.entities_per_kchar"] = (
        out.get("tagger.tag.entities", 0) / kchars if kchars else 0.0)
    pairs = out.get("evaluation.match_document.gold_x_pred", 0)
    out["evaluation.match_document.matched_per_pair"] = (
        out.get("evaluation.match_document.pairs_matched", 0) / pairs if pairs else 0.0)
    out["corpus_io.load_corpus_dir.jobs1_s"] = result["loads"]["jobs1_s"]
    out["corpus_io.load_corpus_dir.jobs_nproc_s"] = result["loads"]["jobs_nproc_s"]
    out["trace.wall_s"] = result["wall_s"]
    out["trace.spans"] = len(result["spans"])
    return {name: out.get(name, 0) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "flowner" / "cli.py").is_file():
        print(f"error: no flowner sources under {root / 'src'}; "
              "run from the root of a flowner checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Nothing under .bench is deleted by the harness: on file systems that
    # discard freed blocks, a bulk delete slows file creation for many
    # seconds afterwards, which would land in the next run's timings.
    work = root / ".bench" / "work" / tag
    if work.exists():
        stale = root / ".bench" / "stale"
        stale.mkdir(parents=True, exist_ok=True)
        work.rename(stale / f"{tag}-{time.time_ns()}")
    (work / "trash").mkdir(parents=True)
    gen_start = time.perf_counter()
    wl = workloads.BUILDERS[args.workload](args.seed, work / "in")
    gen_s = time.perf_counter() - gen_start
    (work / "plan.json").write_text(json.dumps(wl.plan()), encoding="utf-8")

    harness = Harness(root, wl, work, started + TIME_LIMIT_S)
    chains: list[dict] = []
    setup: list[float] = []
    loop_end = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(chains) % 2 == 1
        t0 = time.monotonic()
        result = harness.iterate(traced)
        if result is not None:
            chains.append(result)
        if result is not None and not args.trace:
            # Probes between chains sample set-up at several moments of the run.
            setup += [p for p in (harness.setup_probe() for _ in range(SETUP_PROBES_PER_CHAIN))
                      if p is not None]
        took = time.monotonic() - t0
        enough = len(chains) >= (2 if args.trace else 1)
        now = time.monotonic()
        if now + 1.5 * took > harness.deadline - 15 or (
                now >= loop_end and (enough or result is None)):
            break

    untraced = [r for r in chains if not r["traced"]]
    traced_runs = [r for r in chains if r["traced"]]
    if args.trace:
        per_chain = [traced_metrics(r) for r in traced_runs]
        values = {name: median_of(m[name] for m in per_chain) for name in PER_LAYER}
        steps = median_steps(untraced)
        for stage in STAGES:
            values[f"{stage}_s"] = steps.get(stage, 0.0)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - median_of(r["wall_s"] for r in untraced))
        values["failed_ratio"] = harness.failed / max(1, harness.attempted)
        units = PER_LAYER
    else:
        values = {"setup_s": median_of(setup),
                  "wall_s": median_of(r["wall_s"] for r in untraced),
                  "peak_rss_mb": median_of(r["peak_rss_kb"] for r in untraced) / 1024}
        units = END_TO_END

    digests = harness.first_digests or {}
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    shares = {m: round(values[f"{m}.self_s"] / values["trace.wall_s"], 4)
              for m in MODULES if args.trace and values["trace.wall_s"]}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_facts(), "sizes": wl.sizes,
        "generate_s": gen_s, "setup_samples_s": setup,
        "chains": [{"traced": r["traced"], "wall_s": r["wall_s"],
                    "peak_rss_kb": r["peak_rss_kb"],
                    "steps": {s["name"]: s["seconds"] for s in r["steps"]}}
                   for r in chains],
        "module_share_of_traced_wall": shares,
        "trace_targets_not_found": traced_runs[0]["missing"] if traced_runs else [],
        "problems": harness.problems[:50],
        "outputs_sha256": digests, "outputs_sha256_combined": combined,
        "metrics": values,
    }
    results = root / ".bench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(chains)} chain(s), generation {gen_s:.2f}s")
    print("machine " + json.dumps(record["machine"]))
    print("sizes " + json.dumps(wl.sizes))
    print(f"outputs sha256 {combined} over {len(digests)} file(s)")
    if shares:
        print("module share of traced wall_s " + json.dumps(shares))
    for problem in harness.problems[:20]:
        print("FAILED " + problem)
    print(json.dumps({
        "correct": harness.failed == 0 and harness.attempted > 0,
        "attempted": max(1, harness.attempted), "failed": harness.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
