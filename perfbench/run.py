"""Benchmark of the cellless command line, end to end and layer by layer.

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 40 --trace 0

Each workload is one cellless command that a single client runs in a closed
loop: the next command starts when the previous one has exited, and only one
runs at a time. Every command's output is checked. ``--trace 0`` reports the
end-to-end metrics of untraced commands; ``--trace 1`` runs one process that
alternates untraced and traced passes, and reports the per-layer metrics. The last line of standard output is the result as one
JSON object; the lines before it give the host context, the CSV digests and
each metric by name and unit. Metric names and units are those declared in
BENCHMARK.json at the root of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGEST_STORE = ROOT / ".perfbench-digests.json"
RUN_LIMIT_S = 170.0     # a run must end within 180 s, harness start-up included
NOMINAL_LOOP_MS = 6.0   # reference-loop time of the host that timings are scaled to

clock = time.monotonic


@dataclass(frozen=True)
class Workload:
    command: str
    n_trials: int
    parallel: bool      # workers = nproc instead of 1


# Paper-default scenarios; trial counts keep one command near 1 s on one
# core, so a 40 s run takes the median of about thirty commands.
WORKLOADS = {
    "coverage": Workload("coverage", 1500, False),
    "bs-energy": Workload("bs-energy", 200, False),
    "coverage-par": Workload("coverage", 1500, True),
}

BS_GROUP_SIZES = (2, 3, 4)
EXPECTED_TABLE = {      # command -> (CSV columns, CSV rows)
    "coverage": (["threshold_db", "cellular", "cellular_ci95",
                  "cellless", "cellless_ci95"], 21),
    "bs-energy": (["sleeping_count"] + [c for k in BS_GROUP_SIZES
                                        for c in (f"saving_k{k}", f"saving_k{k}_ci95")], 11),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_workers(workers: int) -> int:
    """Reject a worker count the host cannot run at once.

    The trial pool forks all of its workers at its first submit, so an
    unchecked count asks the OS for that many processes.
    """
    limit = os.cpu_count() or 1
    if not 1 <= workers <= limit:
        raise ValueError(f"workers must lie in [1, {limit}], got {workers}")
    return workers


def cli_args(workload: Workload, seed: int, workers: int, output: Path) -> list:
    return [workload.command, "--seed", str(seed),
            "--n_trials", str(workload.n_trials),
            "--workers", str(check_workers(workers)), "--output", str(output)]


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(mode_args: list, argv: list, stderr_path: Path):
    with open(stderr_path, "w") as err:
        return subprocess.Popen(
            [sys.executable, str(CHILD), *mode_args, "--", *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=_child_env(), cwd=ROOT, start_new_session=True)


def _reap(proc, deadline: float):
    """Wait for the child and return (exit code, resource usage).

    The child leads its own process group, so pool workers die with it when
    the deadline passes.
    """
    def expire(signum, frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - clock(), 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        expire(None, None)
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_plain(argv: list, scratch: Path, deadline: float) -> dict:
    """One untraced command, timed from spawn to exit."""
    marks_path = scratch / "marks.json"
    marks_path.unlink(missing_ok=True)
    began = clock()
    proc = _spawn(["plain", str(marks_path)], argv, scratch / "stderr.txt")
    code, usage = _reap(proc, deadline)
    ended = clock()
    result = {"code": code, "wall_s": ended - began,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        marks = json.loads(marks_path.read_text())
        result["setup_s"] = marks["config_loaded"] - began
        result["work_s"] = marks["returned"] - marks["config_loaded"]
    except (OSError, ValueError, KeyError):
        result["code"] = code or -1     # no marks: the command did not finish
    return result


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _bs_ledger_problems(meta: dict, columns: dict) -> list:
    """bs-energy savings against their closed form.

    With n_users * k members transferring and s of the other BSs asleep
    instead of listening, saving(s, k) = s (P_l - P_s) / (n_users k P_t +
    (n_bs - n_users k) P_l) exactly, and every CI is zero up to rounding.
    """
    p_sleep, p_listen, _, p_transfer = (
        float(v) for v in meta["config.state_power_mw"].split(","))
    n_bs = int(meta["config.n_bs"])
    n_users = int(meta["n_users"])
    problems = []
    for k in BS_GROUP_SIZES:
        base = n_users * k * p_transfer + (n_bs - n_users * k) * p_listen
        for s, got, ci in zip(columns["sleeping_count"], columns[f"saving_k{k}"],
                              columns[f"saving_k{k}_ci95"]):
            want = s * (p_listen - p_sleep) / base
            if not math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-12) or abs(ci) > 1e-12:
                problems.append(f"bs-energy k={k} s={s:g}: saving {got!r} "
                                f"ci {ci!r}, ledger gives {want!r}")
    return problems


def output_problems(command: str, seed: int, n_trials: int, code: int,
                    csv_path: Path, stderr_text: str) -> list:
    """Everything wrong with one command's exit code, CSV and verdicts."""
    from cellless.report import parse_csv

    if code != 0:
        return [f"exit code {code}: {stderr_text.strip()[-300:]}"]
    try:
        meta, columns = parse_csv(csv_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    want_columns, want_rows = EXPECTED_TABLE[command]
    problems = []
    if list(columns) != want_columns:
        problems.append(f"columns {list(columns)} != {want_columns}")
    elif any(len(values) != want_rows for values in columns.values()):
        problems.append(f"expected {want_rows} rows")
    for key, want in (("experiment", command), ("seed", str(seed)),
                      ("n_trials", str(n_trials))):
        if meta.get(key) != want:
            problems.append(f"metadata {key} = {meta.get(key)!r}, expected {want!r}")
    verdicts = re.findall(r": (PASS|FAIL)\b", stderr_text)
    if not verdicts or "FAIL" in verdicts:
        problems.append(f"summary verdicts {verdicts}: {stderr_text.strip()}")
    if command == "bs-energy" and not problems:
        problems += _bs_ledger_problems(meta, columns)
    return problems


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """Digest of the program's sources: one commit's CSVs share one key."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cellless").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def remembered_digest(key: str, digest: str) -> str:
    """The digest first recorded for this CSV by any run of these sources.

    Runs of one commit in one checkout share the store, so a CSV that
    changes from run to run, or between ``coverage`` and ``coverage-par``,
    shows as a mismatch even across runs.
    """
    source = source_digest()
    try:
        store = json.loads(DIGEST_STORE.read_text())
    except (OSError, ValueError):
        store = {}
    if store.get("source") != source:
        store = {"source": source, "csv": {}}
    first = store["csv"].setdefault(key, digest)
    tmp = DIGEST_STORE.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(DIGEST_STORE)
    return first


# ---------------------------------------------------------------------------
# host context (printed, never a metric)
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_loop_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: the host's speed now.

    The loop is the benchmark's own code, so no change to the program moves it.
    """
    best = math.inf
    for _ in range(3):
        began = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - began)
    return best * 1e3


def host_context() -> dict:
    import numpy

    return {"nproc": nproc(), "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "loadavg": list(os.getloadavg()),
            "reference_loop_ms": round(reference_loop_ms(), 3)}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

class Run:
    """Counts, digests and problems of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.csv = scratch / "out.csv"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None

    def key(self) -> str:
        return f"{self.workload.command} seed={self.seed} n_trials={self.workload.n_trials}"

    def record(self, code: int, digest=None) -> bool:
        """Count one attempt and check its output; True when it passed."""
        self.attempted += 1
        stderr_text = (self.scratch / "stderr.txt").read_text(errors="replace")
        problems = output_problems(self.workload.command, self.seed,
                                   self.workload.n_trials, code, self.csv, stderr_text)
        if not problems:
            digest = digest or sha256_file(self.csv)
            if self.digest is None:
                self.digest = digest
                first = remembered_digest(self.key(), digest)
                if first != digest:
                    problems.append(f"CSV sha256 {digest} differs from {first} "
                                    f"recorded by an earlier run of these sources")
            elif digest != self.digest:
                problems.append(f"CSV sha256 {digest} differs from {self.digest} "
                                f"earlier in this run")
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def plain(self, workers: int, deadline: float) -> dict:
        self.csv.unlink(missing_ok=True)
        outcome = run_plain(cli_args(self.workload, self.seed, workers, self.csv),
                            self.scratch, deadline)
        outcome["ok"] = self.record(outcome["code"])
        return outcome


E2E_FIGURES = ("setup_s", "wall_s", "trials_per_s", "cpu_s", "peak_rss_mb")
TIME_FIGURES = ("setup_s", "wall_s", "cpu_s")


def end_to_end(run: Run, seconds: float, started: float) -> dict:
    """Median of each end-to-end figure over the timed commands of a run.

    A first command at one worker warms the file caches and fixes the
    reference digest; for ``coverage-par`` that makes the byte-for-byte
    comparison of one worker against nproc workers.

    The host is shared, and its speed drifts by a fifth or more over
    seconds to minutes. The reference loop runs between commands, and each
    command's times are scaled to a host on which the loop takes
    NOMINAL_LOOP_MS, using the mean of the loop times just before and just
    after it. The raw figures are printed as well.
    """
    deadline = started + RUN_LIMIT_S
    workers = nproc() if run.workload.parallel else 1
    run.plain(1, deadline)
    samples = []
    last = 0.0
    loop_ms = reference_loop_ms()
    while not samples or clock() - started + last < seconds:
        outcome = run.plain(workers, deadline)
        last = outcome["wall_s"]
        if not outcome["ok"]:
            break
        after = reference_loop_ms()
        outcome["loop_ms"] = (loop_ms + after) / 2
        loop_ms = after
        outcome["trials_per_s"] = run.workload.n_trials / outcome["work_s"]
        samples.append(outcome)
    figures = {}
    for name in E2E_FIGURES if samples else ():
        if name in TIME_FIGURES:
            scaled = (s[name] * NOMINAL_LOOP_MS / s["loop_ms"] for s in samples)
        elif name == "trials_per_s":
            scaled = (s[name] * s["loop_ms"] / NOMINAL_LOOP_MS for s in samples)
        else:
            scaled = (s[name] for s in samples)
        figures[name] = statistics.median(scaled)
    figures["samples"] = samples
    return figures


def per_layer(run: Run, seconds: float, started: float) -> dict:
    """Per-layer figures from one process of untraced and traced passes."""
    result_path = run.scratch / "traced.json"
    pool_workers = nproc() if run.workload.parallel else 1
    proc = _spawn(["traced", str(result_path), repr(started + seconds), str(pool_workers)],
                  cli_args(run.workload, run.seed, 1, run.csv), run.scratch / "stderr.txt")
    code, _ = _reap(proc, started + RUN_LIMIT_S)
    try:
        traced = json.loads(result_path.read_text())
    except (OSError, ValueError):
        run.record(code or -1)
        return {}
    for outcome in traced["passes"]:
        run.record(outcome["code"], outcome["digest"])
    if not traced["calls_agree"]:
        run.problems.append("call counts differ between traced passes")
    figures = traced["metrics"]
    figures["passes"] = traced["traced"]
    return figures


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = clock()
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        run = Run(workload, seed, Path(scratch))
        figures = (per_layer if trace else end_to_end)(run, seconds, started)

    print("context " + json.dumps(host_context(), sort_keys=True))
    print(f"digest {run.key()} workers={'nproc' if workload.parallel else 1} "
          f"sha256={run.digest}")
    for problem in run.problems:
        print(f"problem {name}: {problem}", file=sys.stderr)
    declared = declared_metrics(trace)
    metrics = {}
    for spec in declared:
        if spec["name"] in figures:
            metrics[spec["name"]] = {"value": figures[spec["name"]], "unit": spec["unit"]}
            print(f"{name}  {spec['name']:<48} {figures[spec['name']]:.6g} {spec['unit']}")
    if trace:
        print(f"{name}  traced passes: {figures.get('passes', 0)}")
    else:
        for i, sample in enumerate(figures["samples"]):
            print(f"{name}  command {i} raw: " + " ".join(
                f"{key}={sample[key]:.6g}" for key in E2E_FIGURES + ("loop_ms",)))
        print(f"{name}  commands timed: {len(figures['samples'])}")
    print(f"{name}  error_rate {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} commands failed)")
    complete = len(metrics) == len(declared)
    return {"correct": run.failed == 0 and not run.problems and complete,
            "attempted": max(run.attempted, 1), "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cellless" / "cli.py").is_file():
        print(f"no cellless sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed % 2 ** 64, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
