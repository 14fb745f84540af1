"""Benchmark runner: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload cnf-removal --seed 0 --seconds 24 --trace 0

The runner imports `dyncount` from `src/` of the checkout it sits in. It
generates the workload's inputs from the seed, runs units of the workload
until `--seconds` of set-up and op time have passed, checks every op
outside the timed region, and prints one `metric <name> <value> <unit>`
line per metric, then a JSON object as the last line of stdout.

The run makes `PASSES` passes over the same units, in the same order, and
takes each op's fastest time. A run of one unit repeats exactly the same
work, so its times differ by how fast the shared host ran at that moment
and by where the garbage collector ran; the passes put the runs of a unit
seconds apart.

Load is a closed loop with one client: one process, one thread, and the
next op starts when the previous one has returned.

With `--trace 0` the JSON holds the end-to-end metrics. With `--trace 1`
the runner runs each unit of the first pass once more with the program's
functions wrapped (see `tracing.py`). It reports the per-layer metrics of
the traced runs; the spans go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# each unit runs once in each pass; an op's time is its fastest run
PASSES = 3

# each unit is set up this many times per run, the last set-up is used;
# a unit's set-up time is the fastest of all its set-ups
SETUP_REPEATS = 5

# spans whose self time is reported, and those whose call count is
SELF_TIME_SPANS = (
    "engine.unit_propagate", "formula.decompose_components", "formula.vars_of",
    "cache.make_key", "cache.lookup", "cache.store",
    "heuristics.select_branch_variable", "engine.count",
    "session.checkpoint_count", "session.apply_op", "session.apply_batch",
    "argumentation.perturb", "argumentation.encode_complete",
    "argumentation.dynamic_sequence", "heuristics.compute_tree_decomposition",
    "formula.primal_graph", "dimacs.parse_dimacs",
)
CALL_COUNT_SPANS = ("engine.unit_propagate", "cache.make_key", "session.apply_op")

# counters read from the program's own objects after each unit; sizes are
# averaged over the units that report them, the rest are summed
AVERAGED_COUNTERS = ("cache.entries", "cache.model_bytes", "cache.traced_bytes",
                     "heuristics.td_width")
COUNTER_UNITS = {
    "engine.decisions": "count", "engine.propagations": "count",
    "engine.conflicts": "count", "cache.entries": "count",
    "cache.model_bytes": "bytes", "cache.traced_bytes": "bytes",
    "heuristics.td_width": "vertices",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cnf-removal", "af-dynamic", "td-width"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0,
                   help="set-up plus op time to measure, over all passes")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run whole units until this many ops per pass instead "
                        "of for --seconds (makes the op count reproducible)")
    p.add_argument("--size", choices=["default", "tiny"], default="default",
                   help="input shapes; tiny is for the smoke test")
    p.add_argument("--cache-mode", choices=["no_shared", "shared", "shared_sym"])
    p.add_argument("--heuristic", choices=["dlcs", "vsads"])
    p.add_argument("--td-mode", choices=["off", "shared"])
    return p.parse_args(argv)


class PassResult:
    """Timings, op counts, failures, result digests and counters of a pass."""

    def __init__(self, timer):
        self.timer = timer
        self.attempted = 0
        self.planned = []           # ops planned, per unit run
        self.unit_failed = []       # ops without a correct result, per unit
        self.digests = []
        self.counters = {}
        self.counted_units = {}

    @property
    def failed(self):
        return sum(self.unit_failed)

    def add_counters(self, counters):
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
            self.counted_units[name] = self.counted_units.get(name, 0) + 1


def run_unit(workload, inp, result):
    """Set up and run one unit; returns its outputs and its session."""
    timer = result.timer
    outputs = []
    sess = None
    try:
        for _ in range(SETUP_REPEATS):
            timer.setup_begin()
            state = workload.setup(inp)
            timer.setup_end()
        sess = workload.run(inp, state, timer, outputs)
    except Exception:
        traceback.print_exc()
    finally:
        timer.unit_end()
    planned = workload.planned_ops(inp)
    result.attempted += planned
    result.planned.append(planned)
    result.digests.append(digest(workload.digest(outputs)))
    return outputs, sess


def check_unit(workload, inp, outputs, result):
    """Count the unit's ops without a correct result as failed."""
    try:
        good = sum(workload.check(inp, outputs))
    except Exception:
        traceback.print_exc()
        good = 0
    result.unit_failed.append(result.planned[-1] - good)


def fastest(timers):
    """Each unit's fastest set-up, and each op's fastest run, over the passes.

    A unit whose run stopped early in some pass takes its op times from the
    passes that ran all of its ops.
    """
    setups, ops = [], []
    for runs in zip(*(timer.per_unit() for timer in timers)):
        unit_setups = [t for setup_times, _ in runs for t in setup_times]
        if unit_setups:
            setups.append(min(unit_setups))
        most = max(len(op_times) for _, op_times in runs)
        ops.extend(map(min, zip(*(op_times for _, op_times in runs
                                  if len(op_times) == most))))
    return setups, ops


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(setups, ops):
    ops = sorted(ops)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / math.fsum(ops),
        "op_p50_ms": 1000.0 * percentile(ops, 0.5),
        "op_p90_ms": 1000.0 * percentile(ops, 0.9),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def per_layer(plain, traced, tracer):
    totals = tracer.layer_totals()
    metrics = {}
    for span in SELF_TIME_SPANS:
        if span in totals:
            metrics[span + ".self_s"] = (totals[span][0], "s")
    for span in CALL_COUNT_SPANS:
        if span in totals:
            metrics[span + ".calls"] = (totals[span][1], "count")
    c = traced.counters
    for name, unit in COUNTER_UNITS.items():
        value = c.get(name, 0)
        if name in AVERAGED_COUNTERS and name in c:
            value /= traced.counted_units[name]
        metrics[name] = (value, unit)
    lookups = c.get("cache.lookups", 0)
    metrics["cache.hit_ratio"] = (c.get("cache.hits", 0) / lookups if lookups else 0.0,
                                  "ratio")
    metrics["trace.op_s"] = (math.fsum(traced.timer.durations), "s")
    metrics["trace.overhead_s"] = (traced.timer.busy_s - plain.timer.busy_s, "s")
    return metrics


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC_DIR / "dyncount" / "__init__.py").is_file():
        sys.stderr.write("error: no dyncount sources at %s\n" % SRC_DIR)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import dyncount
    if Path(dyncount.__file__).resolve().parent != SRC_DIR / "dyncount":
        sys.stderr.write("error: imported dyncount from %s, not from %s\n"
                         % (dyncount.__file__, SRC_DIR))
        return 2
    from dyncount.engine import EngineConfig
    from tracing import Tracer
    from workloads import OpTimer, make_workload, unit_inputs

    overrides = {key: value for key, value in (("cache_mode", args.cache_mode),
                                               ("heuristic", args.heuristic),
                                               ("td_mode", args.td_mode))
                 if value is not None}
    config = EngineConfig(**overrides)
    workload = make_workload(args.workload, args.size, config)

    def more(result):
        if args.ops is not None:
            return result.attempted < args.ops
        return result.timer.busy_s < args.seconds / PASSES

    # The first pass draws the units, checks them and, with --trace 1, runs
    # each one traced right after its untraced run, so that a change in
    # machine speed during the run hits both alike.
    plain = PassResult(OpTimer())
    tracer = Tracer() if args.trace else None
    traced = PassResult(OpTimer(tracer)) if args.trace else None
    inputs = []
    for inp in unit_inputs(workload, args.seed):
        if not more(plain):
            break
        inputs.append(inp)
        outputs, _ = run_unit(workload, inp, plain)
        if tracer is not None:
            tracer.install()
            try:
                traced_outputs, sess = run_unit(workload, inp, traced)
            finally:
                tracer.uninstall()
            traced.add_counters(workload.counters(sess, traced_outputs))
            if traced.digests[-1] != plain.digests[-1]:
                sys.stderr.write("error: traced unit %d differs from the untraced one\n"
                                 % len(plain.planned))
                plain.unit_failed.append(plain.planned[-1])
                continue
        check_unit(workload, inp, outputs, plain)
    # Later passes repeat the first one's units; each must give the same results.
    replays = [PassResult(OpTimer()) for _ in range(PASSES - 1)]
    for number, replay in enumerate(replays, 2):
        for unit, inp in enumerate(inputs):
            run_unit(workload, inp, replay)
            if replay.digests[-1] != plain.digests[unit]:
                sys.stderr.write("error: unit %d differs on pass %d\n" % (unit, number))
                plain.unit_failed[unit] = plain.planned[unit]
    setups, op_times = fastest([plain.timer] + [r.timer for r in replays])
    if not op_times:
        sys.stderr.write("error: no op completed\n")
        return 1

    ops = len(op_times)
    beyond_p90 = ops - math.ceil(0.9 * ops)
    lines = [
        "workload %s: %s" % (workload.name, workload.describe()),
        "config cache_mode=%s heuristic=%s td_mode=%s cache_byte_budget=%d "
        "overrides=%s" % (config.cache_mode, config.heuristic, config.td_mode,
                          config.cache_byte_budget,
                          ",".join(sorted(overrides)) or "none"),
        "load closed loop, 1 client, 1 thread; seed %d" % args.seed,
        "samples %d ops in %d units, %d beyond p90; each the fastest of %d passes"
        % (ops, len(plain.planned), beyond_p90, PASSES),
        "results %s" % digest(plain.digests),
    ]
    e2e = end_to_end(setups, op_times)
    e2e["error_rate"] = (plain.failed / plain.attempted, "ratio")
    metrics = e2e

    if tracer is not None:
        metrics = per_layer(plain, traced, tracer)
        out = OUT_DIR / ("%s-seed%d.spans.json.gz" % (workload.name, args.seed))
        tracer.write(out, {"workload": workload.name, "seed": args.seed,
                           "inputs": workload.describe(),
                           "config": {"cache_mode": config.cache_mode,
                                      "heuristic": config.heuristic,
                                      "td_mode": config.td_mode},
                           "units": len(traced.planned),
                           "ops": len(traced.timer.durations)})
        lines.append("spans %d written to %s" % (len(tracer.start),
                                                 out.relative_to(BENCH_DIR.parent)))
        if tracer.missing:
            lines.append("call sites not found: %s" % ", ".join(tracer.missing))
        op_s = metrics["trace.op_s"][0]
        shares = sorted(((name, s / op_s if op_s else 0.0)
                         for name, (s, _) in tracer.layer_totals(ops_only=True).items()),
                        key=lambda kv: -kv[1])
        lines.append("self-time share of traced op time: " + ", ".join(
            "%s %.1f%%" % (name, 100 * share) for name, share in shares if share >= 0.001))
        for name, (value, unit) in e2e.items():
            lines.append("untraced %s %r %s" % (name, value, unit))

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print("metric %s %r %s" % (name, value, unit))
    correct = plain.failed == 0
    published = {name: {"value": value, "unit": unit}
                 for name, (value, unit) in metrics.items() if name != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": plain.attempted,
                      "failed": plain.failed, "metrics": published}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
