"""Outside-in span tracing of the cellless pipeline.

The tracer replaces module-level bindings with thin wrappers that record a
span (name, start, end, parent, trial) per call. Nothing in the program is
edited: the wrappers sit on the names that callers look up at call time,
and ``uninstall`` puts every original object back.

Self time of a span is its duration minus the durations of its direct
children. The pipeline is single-threaded inside one process, so children
never overlap and that difference is exactly the uncovered part of the
interval.
"""

import functools
import math
import time
import types

#: Functions whose call opens a new Monte Carlo trial.
TRIAL_ENTRIES = frozenset({
    "experiments.coverage_instance",
    "experiments.mt_energy_trial",
    "experiments.bs_energy_trial",
})

#: Functions reported one by one, grouped by the module that defines them.
NAMED_FUNCTIONS = (
    "scenario.generate_deployment",
    "scenario.RandomStream.rng",
    "scenario.nearest_candidates",
    "scenario.total_power_mw",
    "channel.sample_channel",
    "channel.downlink_sinr",
    "controller.form_group",
    "controller.group_rate",
    "controller.start_service",
    "controller.transition_many",
)

#: Modules whose summed self share is reported as one layer figure.
LAYER_MODULES = ("scenario", "channel", "controller", "experiments")

ROOT = "cli.main"
SCAN = "experiments._scan_trials"
LOAD_CONFIG = "scenario.load_config"
RENDER_CSV = "report.render_csv"
FORM_GROUP = "controller.form_group"
GROUP_RATE = "controller.group_rate"


def span_name(fn) -> str:
    """'<defining module>.<qualified name>', e.g. 'scenario.RandomStream.rng'."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


def trace_targets() -> list:
    """(owner, attribute) for every binding a traced pass wraps.

    Every cellless function bound in ``experiments`` and ``controller`` is
    wrapped, so self times are not inflated by unwrapped callees. The
    experiment entry points and config loading as the CLI binds them,
    ``report.render_csv`` and ``RandomStream.rng`` are wrapped by name.
    """
    from cellless import cli, controller, experiments, report, scenario

    targets = []
    for module in (experiments, controller):
        for attr, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("cellless.")):
                targets.append((module, attr))
    targets += [(cli, attr) for attr in
                ("load_config", "run_coverage", "run_bs_energy", "run_mt_energy")]
    targets += [(report, "render_csv"), (scenario.RandomStream, "rng")]
    return targets


class Tracer:
    """In-memory span recorder; one pass at a time, cleared by ``reset``."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.trials = []
        self.trial = -1
        self.groups = []          # (size, best_effort) per form_group result
        self._stack = []
        self._installed = []

    def reset(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.trials, self.groups, self._stack):
            del column[:]
        self.trial = -1

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records one span per call."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, trials, stack = self.parents, self.trials, self._stack
        clock = self._clock
        opens_trial = name in TRIAL_ENTRIES
        groups = self.groups if name == FORM_GROUP else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opens_trial:
                self.trial += 1
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            trials.append(self.trial)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if groups is not None:
                groups.append((len(result.member_bs), result.best_effort))
            return result

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own, e.g. the root of a pass."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, targets) -> None:
        for owner, attr in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(span_name(original), original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def pass_summary(self) -> dict:
        """Per-name calls, inclusive durations and self time of this pass (ns)."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        children = [[] for _ in range(n)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
                children[parent].append(i)

        functions = {}
        for i, name in enumerate(self.names):
            entry = functions.setdefault(name, {"calls": 0, "durations": [], "self": 0})
            entry["calls"] += 1
            entry["durations"].append(durations[i])
            entry["self"] += durations[i] - covered[i]

        # a trial runs from its entry span to the next entry under the same
        # chunk, or to the end of that chunk
        first = {}
        for i, trial in enumerate(self.trials):
            if trial >= 0 and trial not in first:
                first[trial] = i
        entries = [first[t] for t in sorted(first)]
        trial_ns = []
        for here, nxt in zip(entries, entries[1:] + [None]):
            parent = self.parents[here]
            if nxt is not None and self.parents[nxt] == parent:
                trial_ns.append(self.starts[nxt] - self.starts[here])
            elif parent >= 0:
                trial_ns.append(self.ends[parent] - self.starts[here])

        aggregate_ns = [
            durations[i] - sum(durations[c] for c in children[i]
                               if self.names[c] == SCAN)
            for i, name in enumerate(self.names)
            if name.startswith("experiments.run_")]

        roots = [i for i in range(n) if self.parents[i] < 0]
        return {
            "root_ns": sum(durations[i] for i in roots),
            "functions": functions,
            "trial_ns": trial_ns,
            "aggregate_ns": aggregate_ns,
            "groups": list(self.groups),
        }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def layer_metrics(passes) -> dict:
    """Per-layer figures pooled over the traced passes of one run.

    Counts are per pass (every pass does identical work); timings pool the
    spans of all passes; shares divide self time by the root spans' time.
    """
    root_ns = sum(p["root_ns"] for p in passes) or 1
    merged = {}
    for p in passes:
        for name, entry in p["functions"].items():
            m = merged.setdefault(name, {"calls": 0, "durations": [], "self": 0})
            m["calls"] += entry["calls"]
            m["durations"].extend(entry["durations"])
            m["self"] += entry["self"]

    empty = {"calls": 0, "durations": [], "self": 0}
    metrics = {}
    for name in NAMED_FUNCTIONS:
        m = merged.get(name, empty)
        metrics[f"{name}.calls"] = passes[0]["functions"].get(name, empty)["calls"]
        metrics[f"{name}.us_p50"] = percentile(m["durations"], 50) / 1e3
        metrics[f"{name}.us_p99"] = percentile(m["durations"], 99) / 1e3
        metrics[f"{name}.self_share"] = m["self"] / root_ns
    for module in LAYER_MODULES:
        metrics[f"{module}.self_share"] = sum(
            m["self"] for name, m in merged.items()
            if name.startswith(module + ".")) / root_ns

    groups = [g for p in passes for g in p["groups"]]
    n_groups = len(groups) or 1
    metrics["controller.group_rate.per_group"] = merged.get(GROUP_RATE, empty)["calls"] / n_groups
    metrics["controller.form_group.size_mean"] = sum(size for size, _ in groups) / n_groups
    metrics["controller.form_group.best_effort_frac"] = (
        sum(1 for _, best_effort in groups if best_effort) / n_groups)

    trial_ns = [t for p in passes for t in p["trial_ns"]]
    metrics["experiments.trial.us_p50"] = percentile(trial_ns, 50) / 1e3
    metrics["experiments.trial.us_p99"] = percentile(trial_ns, 99) / 1e3
    metrics["experiments.scan.self_share"] = merged.get(SCAN, empty)["self"] / root_ns
    metrics["experiments.aggregate.ms"] = percentile(
        [a for p in passes for a in p["aggregate_ns"]], 50) / 1e6
    metrics["report.render_csv.ms"] = percentile(
        merged.get(RENDER_CSV, empty)["durations"], 50) / 1e6
    metrics["cli.load_config_ms"] = percentile(
        merged.get(LOAD_CONFIG, empty)["durations"], 50) / 1e6
    return metrics
