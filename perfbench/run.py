"""The mlpoly benchmark: one run of one workload.

    python3 perfbench/run.py --workload series-eval --seed 1 --seconds 20 --trace 0

A run measures set-up time in fresh interpreters, then calls the workload's
operations one at a time (a closed loop with one caller) in whole rounds
until ``--seconds`` have passed, then checks every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
replays the first operations under the span tracer and reports the
per-layer metrics and the tracing overhead instead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Result and trace files go to ``perfbench/out/``.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import benchenv

SETUP_PROBES = 5
#: blocks of whole rounds whose operations give series-eval's metrics
FAST_BLOCKS = 8
#: the percentile op_tail_s reports on series-eval (8 blocks hold 2400 ops)
SERIES_TAIL = 0.99
IMPORTTIME_PROBES = 3
#: operations replayed under the tracer, as whole rounds of each workload
REPLAY_ROUNDS = {"series-eval": 500, "solve-grid": 1, "cli-cold": 1, "verify-suites": 1}


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sequence."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Loop:
    """Timed operations of one workload, with what inspecting them found.

    Every operation's time is kept, except on block workloads (series-eval),
    whose run keeps the first ``keep_ops`` times and, as it goes, only the
    FAST_BLOCKS fastest blocks: the memory it holds must not grow with the
    number of operations, or a faster program would read as a fatter one.
    """

    def __init__(self, workload, keep_ops=None):
        self.workload = workload
        self.keep_ops = keep_ops
        self.times = []          # seconds per operation, in order
        self.slots = []          # what repeats from round to round (the kind, or the verify pair)
        self.attempted = 0
        self.points = 0
        self.out_bytes = 0
        self.checks = 0
        self.failed_checks = 0
        self.failed = 0
        self.rounds = 0
        self.problems = []       # failures the benchmark does not expect
        self.blocks = []         # fastest blocks so far: (seconds, [(kind, seconds), ...])
        self._block = []

    def run_op(self, op, execute=None):
        execute = execute or self.workload.execute
        start = time.perf_counter_ns()
        try:
            out = execute(op)
        except Exception as exc:  # a fault in the program: count it and go on
            self._record(op, (time.perf_counter_ns() - start) * 1e-9)
            self.failed += 1
            self.problems.append(f"{op[0]} {op[1]!r:.200} raised {exc!r}")
            return
        self._record(op, (time.perf_counter_ns() - start) * 1e-9)
        outcome = self.workload.inspect(op, out)
        self.points += outcome.points
        self.out_bytes += outcome.out_bytes
        self.checks += outcome.checks
        self.failed_checks += outcome.failed_checks
        if outcome.problem is not None:
            self.failed += 1
            if not outcome.expected:
                self.problems.append(outcome.problem)

    def _record(self, op, seconds):
        self.attempted += 1
        if self.keep_ops is None or len(self.times) < self.keep_ops:
            self.times.append(seconds)
            slot = getattr(self.workload, "slot", None)
            self.slots.append(slot(op) if slot else op[0])
        if self.workload.block_rounds:
            self._block.append((op[0], seconds))

    def run_for(self, seconds):
        """Whole rounds (and, on block workloads, whole blocks) until ``seconds`` passed."""
        per_block = self.workload.block_rounds or 1
        deadline = time.perf_counter() + seconds
        while True:
            for op in self.workload.next_round():
                self.run_op(op)
            self.rounds += 1
            if self.rounds % per_block == 0 and self._block:
                self.blocks.append((sum(t for _, t in self._block), self._block))
                self.blocks.sort(key=lambda b: b[0])
                del self.blocks[FAST_BLOCKS:]
                self._block = []
            if self.rounds % per_block == 0 and time.perf_counter() >= deadline:
                return

    def end_to_end(self):
        """End-to-end metrics of the untraced loop.

        The speed of a shared machine drifts: identical work can take twice as
        long while a neighbour is busy.  series-eval's calls are short enough
        to be timed inside the machine's quiet spells, so its metrics come from
        the FAST_BLOCKS fastest blocks of ``block_rounds`` rounds.  The other
        workloads repeat the same operation (slot) every round, and each slot
        is represented by its median time over the run's rounds.
        """
        per_round = self.attempted / self.rounds
        if self.workload.block_rounds:
            picked = [op for _, ops in self.blocks for op in ops]
            round_time = sum(t for _, t in picked) * per_round / len(picked)
            by_kind = {}
            for kind, seconds in picked:
                by_kind.setdefault(kind, []).append(seconds)
            typical = [statistics.median(v) for v in by_kind.values()]
            tail = quantile([t for _, t in picked], SERIES_TAIL)
        else:
            by_slot = {}
            for slot, seconds in zip(self.slots, self.times):
                by_slot.setdefault(slot, []).append(seconds)
            median = {slot: statistics.median(v) for slot, v in by_slot.items()}
            typical = list(median.values())
            round_time = sum(median[slot] for slot in self.slots) / self.rounds
            tail = max(typical)
        return {
            "ops_per_s": (per_round / round_time, "1/s"),
            "op_p50_s": (math.exp(statistics.fmean(math.log(t) for t in typical)), "s"),
            "op_tail_s": (tail, "s"),
            "points_per_s": (self.points / self.rounds / round_time, "1/s"),
        }


def setup_times(name, seed):
    """Seconds from spawning an interpreter until mlpoly is imported and the
    workload's first operation is done, once per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(benchenv.BENCH_DIR / "probe.py"), name, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
            env=benchenv.child_env(), cwd=benchenv.ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.decode(errors='replace')[-500:]}")
        times.append(elapsed)
    return times


def import_times():
    """process.* metrics: median over probes of `python -X importtime -c "import mlpoly"`."""
    runs = []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mlpoly"],
                              capture_output=True, env=benchenv.child_env(), cwd=benchenv.ROOT,
                              check=True)
        runs.append(parse_importtime(proc.stderr.decode()))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def parse_importtime(text):
    """Seconds importing mlpoly (cumulative), and the self time summed over all
    scipy and over all numpy modules, from ``-X importtime`` output."""
    totals = {"scipy": 0, "numpy": 0}
    mlpoly_us = 0
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line, or not an importtime line
        name = fields[2].strip()
        root = name.split(".")[0]
        if root in totals:
            totals[root] += int(fields[0])
        if name == "mlpoly":
            mlpoly_us = int(fields[1])
    return {"process.import_s": mlpoly_us * 1e-6,
            "process.import_scipy_s": totals["scipy"] * 1e-6,
            "process.import_numpy_s": totals["numpy"] * 1e-6}


def traced_replay(name, seed, loop):
    """Replay the first operations under the tracer; returns per-layer metrics."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    ops = []
    for _ in range(REPLAY_ROUNDS[name]):
        ops.extend(workload.next_round())
    ops = ops[:loop.attempted]
    replay = Loop(workload)
    out = benchenv.OUT
    out.mkdir(parents=True, exist_ok=True)
    if name == "cli-cold":
        parts = []
        for i, op in enumerate(ops):
            stem = out / f"trace-{name}-{seed}-{i}"
            prefix = [str(benchenv.BENCH_DIR / "tracechild.py"), str(stem)]
            replay.run_op(op, lambda op: workload.execute(op, prefix=prefix))
            with open(f"{stem}.json", encoding="utf-8") as fh:
                parts.append(json.load(fh)["totals"])
        totals = spans.merge_totals(parts)
    else:
        tracer = spans.Tracer().install()
        try:
            for i, op in enumerate(ops):
                tracer.op = i
                replay.run_op(op)
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        tracer.write(out / f"trace-{name}-{seed}", workload=name, seed=seed)
    metrics = spans.layer_metrics(totals, len(ops))
    untraced = sum(loop.times[:len(ops)])
    per_op = 1.0 / len(ops)
    metrics["verify.checks"] = {"value": replay.checks * per_op, "unit": "1/op"}
    metrics["verify.failed_checks"] = {"value": replay.failed_checks * per_op, "unit": "1/op"}
    metrics["cli.out_bytes"] = {"value": loop.out_bytes / loop.attempted, "unit": "B/op"}
    metrics["trace.overhead_ratio"] = {"value": sum(replay.times) / untraced - 1.0, "unit": "ratio"}
    for key, value in import_times().items():
        metrics[key] = {"value": value, "unit": "s"}
    return metrics, replay.problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchenv.use_checkout()
    except benchenv.MissingProgram as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    metrics = {}
    if not args.trace:
        setup = setup_times(args.workload, args.seed)
        metrics["setup_s"] = (statistics.median(setup), "s")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    replayed = REPLAY_ROUNDS[args.workload] * len(workload.kinds)
    loop = Loop(workload, keep_ops=replayed if workload.block_rounds else None)
    loop.run_for(args.seconds)
    if args.workload == "cli-cold":
        peak_kb = workload.max_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = list(loop.problems)
    if args.trace:
        metrics, replay_problems = traced_replay(args.workload, args.seed, loop)
        problems += replay_problems
    else:
        metrics.update(loop.end_to_end())
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    problems += workload.oracle_problems()

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for key, metric in metrics.items():
        print(f"{key:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {loop.attempted} failed {loop.failed} "
          f"({args.workload}, seed {args.seed}, {loop.rounds} rounds)")
    result = {"correct": not problems, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (benchenv.OUT / stem).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
