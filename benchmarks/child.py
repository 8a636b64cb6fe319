"""Fresh-interpreter side of the benchmark.

    python3 child.py setup SRC [GAZETTEER_JSON]
        Print the seconds it takes to import ``flowner.cli`` (and, given a
        gazetteer, to load it and build a ``TaggerPredictor``).
    python3 child.py run SRC PLAN_JSON RESULT_JSON [trace]
        Run the plan's CLI steps in order through ``flowner.cli.main`` from
        the current directory, timing each, and write the result JSON once.
        With ``trace``, public functions are wrapped by ``spans.Recorder``.

Only ``sys`` and ``time`` are imported before the set-up clock starts, so
the set-up figure holds what a user's first import pays.
"""

import sys
import time


def setup(src: str, gazetteer_path: str | None) -> None:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import flowner.cli  # noqa: F401
    if gazetteer_path:
        import json
        from flowner import gazetteer, tagger
        with open(gazetteer_path, encoding="utf-8") as fh:
            gaz = gazetteer.Gazetteer.from_json_dict(json.load(fh))
        tagger.TaggerPredictor(gaz)
    print(repr(time.perf_counter() - start))


def _run_results() -> None:
    """RunResult files for ``report``: the strict eval report once per split."""
    import json
    from pathlib import Path
    report = json.loads(Path("out/eval.json").read_text(encoding="utf-8"))["strict"]
    runs = Path("glue/runs")
    runs.mkdir(parents=True, exist_ok=True)
    for split_id in range(len(list(Path("out/splits").glob("split_*.json")))):
        (runs / f"run_{split_id}.json").write_text(json.dumps(
            {"split_id": split_id, "seed_model": 0, "report": report, "meta": {}}),
            encoding="utf-8")


GLUE = {"run_results": _run_results}



def _retime_loads(calls, nproc: int) -> dict:
    """Time each recorded corpus load again, untraced, with 1 and nproc jobs."""
    import inspect
    from flowner import corpus_io
    takes_jobs = "jobs" in inspect.signature(corpus_io.load_corpus_dir).parameters
    out = {}
    for label, jobs in (("jobs1_s", 1), ("jobs_nproc_s", nproc)):
        total = 0.0
        for bound in calls:
            kwargs = dict(bound.arguments)
            if takes_jobs:
                kwargs["jobs"] = jobs
            start = time.perf_counter()
            corpus_io.load_corpus_dir(**kwargs)
            total += time.perf_counter() - start
        out[label] = total
    return out


def run(src: str, plan_path: str, result_path: str, traced: bool) -> None:
    import contextlib
    import json
    import os
    import resource
    from pathlib import Path

    sys.path.insert(0, src)
    import flowner.cli

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    recorder = None
    if traced:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans
        recorder = spans.Recorder()
        recorder.install()

    Path("out/stdout").mkdir(parents=True, exist_ok=True)
    steps = []
    for step in plan["steps"]:
        if step["before"]:
            GLUE[step["before"]]()
        start = time.perf_counter()
        try:
            with open(f"out/stdout/{step['name']}.txt", "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh):
                code = flowner.cli.main(step["argv"])
        except SystemExit as exc:          # argparse usage errors
            code = exc.code
        except Exception as exc:           # a crash fails this step, not the run
            code = f"{type(exc).__name__}: {exc}"
        steps.append({"name": step["name"], "code": code,
                      "seconds": time.perf_counter() - start})

    result = {"steps": steps,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        recorder.uninstall()
        result["spans"] = recorder.spans
        result["counts"] = {k: dict(v) for k, v in recorder.counts.items()}
        result["missing"] = recorder.missing
        result["loads"] = _retime_loads(recorder.calls["corpus_io.load_corpus_dir"],
                                        len(os.sched_getaffinity(0)))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None)
    else:
        run(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:] == ["trace"])
