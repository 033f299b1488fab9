"""One cellless command in a fresh interpreter, as the benchmark runs it.

    child.py plain MARKS -- CLI_ARGS...
        Run ``cellless.cli.main(CLI_ARGS)`` once and write the monotonic
        times at which it had loaded the config and at which it returned to
        the JSON file MARKS. Exits with the command's own exit code.

    child.py traced RESULT DEADLINE POOL_WORKERS -- CLI_ARGS...
        Import ``cellless.cli`` (timed), then run the command in pairs of
        one untraced and one traced pass until the monotonic time DEADLINE
        (at least one pair). With POOL_WORKERS > 1 one more traced pass runs
        with that many workers to time the process pool. Writes each pass's
        exit code and CSV digest and the per-layer metrics to the JSON file
        RESULT.

Monotonic time is one clock for every process on the host, so the parent
can subtract its own spawn time from these marks.
"""

import hashlib
import json
import sys
import time

clock = time.monotonic


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _option(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def plain(marks_path: str, argv: list) -> int:
    import cellless.cli as cli

    marks = {}
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        marks["config_loaded"] = clock()
        return cfg

    cli.load_config = timed_load_config
    try:
        code = cli.main(argv)
    finally:
        cli.load_config = load_config
        marks["returned"] = clock()
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)
    return code


def traced(result_path: str, deadline: float, pool_workers: int, argv: list) -> int:
    started = clock()
    import cellless.cli as cli
    import_ms = (clock() - started) * 1e3

    import spans

    output = _option(argv, "--output")
    tracer = spans.Tracer()
    targets = spans.trace_targets()
    passes = []
    summaries = []
    untraced_s = []
    pool = None

    def record(code):
        passes.append({"code": code, "digest": _digest(output) if code == 0 else None})
        return code == 0

    # untraced and traced passes alternate, so host drift hits both alike
    while True:
        began = clock()
        code = cli.main(argv)
        untraced_s.append(clock() - began)
        if not record(code):
            break
        tracer.install(targets)
        try:
            tracer.reset()
            code = tracer.call(spans.ROOT, cli.main, argv)
        finally:
            tracer.uninstall()
        summaries.append(tracer.pass_summary())
        if not record(code) or clock() + (clock() - began) > deadline:
            break
    if pool_workers > 1 and passes[-1]["code"] == 0:
        workers_at = argv.index("--workers") + 1
        pool_argv = argv[:workers_at] + [str(pool_workers)] + argv[workers_at + 1:]
        tracer.install(targets)
        try:
            tracer.reset()
            code = tracer.call(spans.ROOT, cli.main, pool_argv)
        finally:
            tracer.uninstall()
        if record(code):
            pool = tracer.pass_summary()["functions"][spans.SCAN]["durations"][0]

    metrics = spans.layer_metrics(summaries) if summaries else {}
    metrics["cli.import_ms"] = import_ms
    if summaries:
        metrics["trace.overhead_frac"] = (
            spans.percentile([s["root_ns"] for s in summaries], 50) / 1e9
            / spans.percentile(untraced_s, 50) - 1.0)
    metrics["experiments.pool.overhead_ms"] = 0.0
    if pool is not None:
        n_chunks = min(pool_workers, int(_option(argv, "--n_trials")))
        serial_ns = spans.percentile(
            [s["functions"][spans.SCAN]["durations"][0] for s in summaries], 50)
        metrics["experiments.pool.overhead_ms"] = (pool - serial_ns / n_chunks) / 1e6
    calls = [{name: entry["calls"] for name, entry in s["functions"].items()}
             for s in summaries]
    with open(result_path, "w") as fh:
        json.dump({"passes": passes, "traced": len(summaries),
                   "calls_agree": all(c == calls[0] for c in calls),
                   "metrics": metrics}, fh)
    return 0


def main(args: list) -> int:
    split = args.index("--")
    head, argv = args[:split], args[split + 1:]
    if head[0] == "plain":
        return plain(head[1], argv)
    if head[0] == "traced":
        return traced(head[1], float(head[2]), int(head[3]), argv)
    raise SystemExit(f"unknown mode {head[0]!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
