"""knotalg benchmark: one workload, one seed, one closed-loop client.

    python3 knotbench/run.py --workload state-sum --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports knotalg from ./src and exits
with code 2, printing no result, when there is none.  The workloads are in
workloads.py; BENCHMARK.json lists them with their reasons and lists every
metric with its unit.  A run

1. runs one untimed warm-up operation per kind;
2. draws one input per slot of the workload's fixed round from the seed;
3. runs the round, one operation at a time, round after round, and stops
   at the end of the round that ends nearest to --seconds of operation time
   (after one round at least).  The checks against independent routes, the
   reference() runs and the set-up samples happen between operations, off
   the clock;
4. prints a readable report, then, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}; `attempted` and `failed`
   count timed operations.

Each input is therefore timed once per round.  On a shared host the CPU
runs the same code up to twice as slowly for seconds to minutes at a time
(on a 2-vCPU host the raw throughput of a run moved by up to 40% between
consecutive runs), and a slow phase can last a whole run.  So every timed
operation is bracketed by two runs of `reference()`, a fixed pure-Python
routine that does not touch knotalg, and its latency is scaled to the host
speed at which the reference takes REFERENCE_MS:
latency * REFERENCE_MS / (mean of the two reference times).  An input's
latency is the median of its scaled timings over the run's rounds; an input
with a failed timing has latency +inf.  The readable report also gives the
unscaled figures and the host's speed.

End-to-end metrics (--trace 0), every latency scaled as above:

- ops_per_s: the round's successful operations per second of their
  latencies;
- op_p50_ms, op_p95_ms: nearest-rank 50th and 95th percentile of the round's
  latencies; the report states how many inputs, and timings, lie beyond the
  95th.  A percentile that falls on a failed input is printed as 1e9 ms;
- items_per_s: output items per second of latency over the inputs that
  produce them: cube vertices (state-sum), table entries (rational-table),
  input leaves (big-diagram), entries and vertices printed by `enumerate` and
  `cube` (cli);
- setup_s: median wall time of a fresh interpreter running `import knotalg`
  (`import knotalg.cli` on cli), sampled every few seconds across the run;
- peak_rss_mb: the memory the operations need.  On the in-process
  workloads, how far the benchmark process's peak resident memory rose
  during the warm-up and the timed loop above its resident memory just
  before them, so the interpreter, knotalg and the harness are not counted
  and the figure is what the operations hold at their peak; on cli, the peak
  resident memory of the largest `python -m knotalg` child process.

An operation fails when it raises (RecursionError included), when a CLI
invocation exits outside {0, 2, 3} or prints a traceback, or when its output
disagrees with the independent route.  Any failure makes the run incorrect:
every timed input is meant to have a defined outcome.

With --trace 1 every call into a knotalg layer is wrapped in a span; the run
writes its spans to .knotbench/ under the checkout, then runs the depth
probes, and the metrics are the per-layer ones: self time and share per
layer, work counters, and failures by layer and kind.  Span times are not
scaled; cli.interp_s, cli.import_s and cli.process_s are, as setup_s is.
The tracing overhead is the difference between the two runs: ops_per_s
against trace.ops_per_s, both scaled.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Direct, Tracer
from workloads import WORKLOADS, CommandFailed, Lib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIRST_SAMPLES = 2
SAMPLE_EVERY_S = 2.0
SPAWN_TIMEOUT_S = 120
# Printed for a latency percentile that falls on a failed operation.
FAILED_MS = 1e9
# Latencies are given at the host speed at which reference() takes this long.
REFERENCE_MS = 2.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# The launcher: reads one JSON argv per line, runs it, answers with one JSON
# line [exit code, stdout, stderr]; a null line asks for its children's peak
# resident memory in KiB.
LAUNCHER = f"""
import json, resource, subprocess, sys
for line in sys.stdin:
    args = json.loads(line)
    if args is None:
        reply = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        try:
            p = subprocess.run(args, capture_output=True, text=True, timeout={SPAWN_TIMEOUT_S})
            reply = [p.returncode, p.stdout, p.stderr]
        except subprocess.TimeoutExpired:
            reply = [-9, "", "timed out"]
    print(json.dumps(reply), flush=True)
"""


class Spawner:
    """Runs `python <args>` against the checkout's src/, child by child."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, args):
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=SPAWN_TIMEOUT_S)

    def wall(self, args) -> float:
        t0 = perf_counter()
        proc = self(args)
        wall = perf_counter() - t0
        if proc.returncode:
            raise RuntimeError(f"{args} failed: {proc.stderr.strip()[-300:]}")
        return wall


class Launcher:
    """Runs the cli workload's `python <args>` children from a small process of its own.

    On Linux a child keeps its parent's peak resident memory across exec, so
    a child started from this process reports at least this process's peak.
    The launcher is smaller than any knotalg child, so the peak it reports
    for its children is theirs.
    """

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher stopped with exit code {self.proc.wait()}")
        return json.loads(line)

    def __call__(self, args):
        code, out, err = self._ask([sys.executable, *args])
        return subprocess.CompletedProcess(args, code, out, err)

    def peak_rss_mb(self) -> float:
        return self._ask(None) / 1024.0

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SPAWN_TIMEOUT_S)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


# reference()'s larger working set, built once so that its calls allocate
# little: allocating it anew in every call moved the peak resident memory
# measured around the operations by up to 0.8 MB from run to run.
ROWS = [(i % 97, i // 97, i) for i in range(3000)]
ROW_INDEX = {row: k for k, row in enumerate(ROWS)}


def reference() -> float:
    """Seconds a fixed pure-Python routine takes now: the host's current speed.

    A loop of tuple keys and dict updates, a sort, and lookups of a few
    thousand tuples in a dict: the interpreter work knotalg is made of, with
    a small working set and a larger one, so that it slows with the host
    about as much as the operations do.  (A routine of the loop alone slowed
    less than bracket sums and diagram walks on a slow host, one of the
    tuple collections alone more.)  The collector is paused so that the
    program's heap does not change its cost.
    """
    paused = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    counts: dict = {}
    keys = []
    for i in range(3000):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
        keys.append(key)
    keys.sort()
    total = 0
    for row in ROWS:
        total += ROW_INDEX[row] - row[2]
    dt = perf_counter() - t0
    if paused:
        gc.enable()
    return dt


def scaled(dt: float, before: float, after: float) -> float:
    """A time taken between two reference() times, at the REFERENCE_MS speed."""
    return dt * (REFERENCE_MS / 1e3) / ((before + after) / 2)


class SetupSampler:
    """Fresh-interpreter start-up times, sampled across the whole run.

    The host's speed drifts over seconds, so one sample is taken every
    SAMPLE_EVERY_S of operation time rather than all of them up front, and
    each is scaled by reference() times taken around it, as the operations
    are; the median then does not hang on one slow stretch.
    """

    def __init__(self, spawn, commands: dict[str, list[str]]):
        self.spawn, self.commands = spawn, commands
        self.walls: dict[str, list[float]] = {name: [] for name in commands}  # scaled
        self.next_at = 0.0
        for args in commands.values():
            spawn.wall(args)  # untimed: fills the bytecode cache
        for _ in range(FIRST_SAMPLES):
            self.sample()

    def sample(self):
        for name, args in self.commands.items():
            before = reference()
            wall = self.spawn.wall(args)
            self.walls[name].append(scaled(wall, before, reference()))

    def tick(self, busy: float):
        if busy >= self.next_at:
            self.sample()
            self.next_at = busy + SAMPLE_EVERY_S

    def median(self, name: str) -> float:
        return statistics.median(self.walls[name])


def attribute(exc: BaseException) -> tuple[str, str]:
    """(layer, exception kind): the deepest knotalg frame that raised."""
    if isinstance(exc, CommandFailed):
        return exc.layer, exc.kind
    layer = "bench"
    for frame, _line in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "knotalg":
            layer = path.stem
    return layer, type(exc).__name__


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def rss_mb() -> float:
    """This process's resident memory now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Loop:
    """The closed loop: the round's inputs, one at a time, round after round."""

    def __init__(self, wl, tracer, sampler=None):
        self.wl, self.tracer, self.sampler = wl, tracer, sampler
        self.times: list[list[float]] = []  # per input of the round: its scaled timings, +inf when failed
        self.raw: list[list[float]] = []  # the same, unscaled
        self.refs: list[float] = []  # every reference() time taken around an operation
        self.items: list[int] = []  # per input: its output items
        self.busy = 0.0
        self.rounds = self.ok = self.failed = self.cli_failed = 0
        self.failures: Counter = Counter()  # (layer, kind) -> count
        self.log: list[str] = []
        self.counters: Counter = Counter()

    def one(self, op, timed=True):
        """Run one op and, when timed, check and count it.

        Returns (latency, scaled latency, output); (+inf, +inf, None) when it failed.
        """
        t = self.tracer
        before = reference() if timed else 0.0
        t0 = perf_counter()
        try:
            with t.span("op." + op["kind"]):
                out = self.wl.run(t, op)
        except Exception as exc:  # the benchmark must outlive any failing op
            dt = perf_counter() - t0
            failure, detail = attribute(exc), str(exc)[-200:]
            self.cli_failed += isinstance(exc, CommandFailed)
        else:
            dt = perf_counter() - t0
            failure = None
        if not timed:
            return dt, dt, (out if failure is None else None)
        after = reference()
        self.refs += (before, after)
        if failure is None:
            try:
                detail = self.wl.check(op, out)
            except Exception as exc:
                detail = f"check raised {type(exc).__name__}: {exc}"
            if detail:
                failure = ("check", "mismatch")
        self.busy += dt
        if failure:
            self.failures[failure] += 1
            self.log.append(f"{op.get('label', op['kind'])}: {failure[1]} in {failure[0]}: {detail}")
            self.failed += 1
            return math.inf, math.inf, None
        self.ok += 1
        if t.on:
            self.wl.count(self.counters, op, out)
        return dt, scaled(dt, before, after), out

    def run(self, seconds):
        wl = self.wl
        self.tracer.op = "warm"
        for slot in wl.WARM:
            self.one(wl.make(slot), timed=False)
        ops = [wl.make(slot) for slot in wl.ROUND]
        self.times = [[] for _ in ops]
        self.raw = [[] for _ in ops]
        self.items = [0] * len(ops)
        i = 0
        while self.rounds == 0 or self.busy + 0.5 * self.busy / self.rounds < seconds:
            self.rounds += 1
            for k, op in enumerate(ops):
                i += 1
                self.tracer.op = i
                dt, dt_scaled, out = self.one(op)
                self.raw[k].append(dt)
                self.times[k].append(dt_scaled)
                if out is not None:
                    self.items[k] = wl.items(op, out)
                if self.tracer.on and hasattr(wl, "run_in_process"):
                    self.tracer.op = f"{i}-in-process"
                    wl.run_in_process(self.tracer, op)
                if self.sampler:
                    self.sampler.tick(self.busy)

    def latencies(self, scaled=True) -> list[float]:
        """Each input's median latency over the rounds; +inf when any of its timings failed."""
        return [statistics.median(t) if max(t) < math.inf else math.inf
                for t in (self.times if scaled else self.raw)]

    def end_to_end(self, scaled=True):
        lat = self.latencies(scaled)
        ok = [b for b in lat if b < math.inf]
        made = [(n, b) for n, b in zip(self.items, lat) if n and b < math.inf]
        lat.sort()
        return {
            "ops_per_s": len(ok) / sum(ok) if ok else 0.0,
            "op_p50_ms": percentile(lat, 0.50) * 1e3,
            "op_p95_ms": percentile(lat, 0.95) * 1e3,
            "items_per_s": sum(n for n, _ in made) / sum(b for _, b in made) if made else 0.0,
        }


# Per-layer time metrics: name -> the spans whose self time it sums.
SPAN_TIMES = {
    "expr.parse_s": ["expr.parse"],
    "expr.to_text_s": ["expr.to_text"],
    "algebra.eval_s": ["algebra.closure_components", "algebra.trace", "algebra.annotated_text"],
    "algebra.opacity_s": ["algebra.opacity"],
    "rational.cf_value_s": ["rational.cf_value", "rational.cf_of_fraction"],
    "rational.classify_s": ["rational.classify_fraction"],
    "enumeration.table_s": ["enumeration.compositions_with_big_ends", "enumeration.canonical"],
    "bracket.raw_s": ["bracket.raw_bracket"],
    "bracket.specialize_s": ["bracket.specialize"],
    "tensor.cube_s": ["tensor.build_cube"],
    "tensor.cube_json_s": ["tensor.to_json_dict"],
    "graph.network_s": ["graph.sp_network", "graph.to_multigraph"],
    "graph.rank_s": ["graph.mod2_laplacian", "graph.nullity_gf2"],
    "oracle.trace_s": ["oracle.trace_components"],
}
COUNTERS = (
    "expr.parse_chars", "algebra.eval_leaves", "algebra.opacity_leaves", "enumeration.compositions",
    "enumeration.entries", "bracket.states", "bracket.monomials", "bracket.poly_terms", "tensor.vertices",
    "tensor.edges", "graph.nodes", "graph.edges", "oracle.ports",
)
FAIL_LAYERS = ("expr", "algebra", "graph", "oracle")


def per_layer(loop, tracer, probe, cli_times):
    timed = tracer.self_times(timed=True)
    total = sum(timed.values())
    m: dict[str, float] = {}
    for layer in LAYERS:
        s = sum(v for name, v in timed.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = s
        m[f"{layer}.share"] = 100.0 * s / total if total else 0.0
    bench = sum(v for name, v in timed.items() if name.startswith("op."))
    m["bench.share"] = 100.0 * bench / total if total else 0.0
    for metric, names in SPAN_TIMES.items():
        m[metric] = sum(timed.get(n, 0.0) for n in names)
    for name in COUNTERS:
        m[name] = float(loop.counters[name])
    m["bracket.monomials_per_state"] = m["bracket.monomials"] / m["bracket.states"] if m["bracket.states"] else 0.0
    m["enumeration.entries_per_composition"] = (
        m["enumeration.entries"] / m["enumeration.compositions"] if m["enumeration.compositions"] else 0.0)
    calls = tracer.calls()
    m["rational.calls"] = float(sum(c for n, c in calls.items() if n.startswith("rational.")))
    m.update(cli_times)
    failures = loop.failures + probe.failures
    for layer in FAIL_LAYERS:
        m[f"{layer}.fail"] = float(sum(c for (lay, _k), c in failures.items() if lay == layer))
    m["cli.fail"] = float(loop.cli_failed + probe.cli_failed)
    m["fail.recursion"] = float(sum(c for (_l, kind), c in failures.items() if kind == "RecursionError"))
    probes_run = probe.ok + probe.failed
    m["probe.attempted"] = float(probes_run)
    m["probe.fail_ratio"] = probe.failed / probes_run if probes_run else 0.0
    e2e = loop.end_to_end()
    m["trace.ops_per_s"] = e2e["ops_per_s"]
    m["trace.op_p50_ms"] = e2e["op_p50_ms"]
    m["trace.spans"] = float(len(tracer.spans))
    return m, failures


def finite(value) -> float:
    """The value, with a latency that fell on a failed operation (+inf) as FAILED_MS."""
    return float(value) if math.isfinite(value) else FAILED_MS


def run_probes(wl, tracer):
    """Inputs past the recursion limits, each run guarded after the timed loop."""
    probe = Loop(wl, tracer)
    tracer.op = "probe"
    for op in wl.probes():
        probe.one(op)
    return probe


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "knotalg" / "__init__.py").is_file():
        print(f"knotbench: no knotalg package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"knotbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    spawn = Spawner()
    launcher = Launcher(spawn.env) if cls.name == "cli" else None
    try:
        return measure(args, cls, spawn, launcher)
    finally:
        if launcher:
            launcher.close()


def measure(args, cls, spawn, launcher) -> int:
    commands = {"setup": ["-c", f"import {cls.setup_import}"]}
    if args.trace:
        commands["bare"] = ["-c", "pass"]
    sampler = SetupSampler(spawn, commands)

    wl = cls(Lib(), args.seed, launcher or spawn)
    tracer = Tracer() if args.trace else Direct()
    loop = Loop(wl, tracer, sampler)
    rss_before = rss_mb()
    loop.run(args.seconds)
    setup_s = sampler.median("setup")
    if launcher:
        rss = launcher.peak_rss_mb()
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - rss_before

    attempted = loop.ok + loop.failed
    beyond = len(loop.times) - math.ceil(0.95 * len(loop.times))
    speed = REFERENCE_MS / 1e3 / statistics.median(loop.refs)
    print(f"workload {cls.name}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    print(f"  {loop.rounds} rounds of {len(loop.times)} inputs: {attempted} timed ops in {loop.busy:.2f} s of op "
          f"time; {beyond} inputs ({beyond * loop.rounds} timings) beyond p95")
    print(f"  host speed {speed:.3f}: reference() took {statistics.median(loop.refs) * 1e3:.3f} ms (median), "
          f"latencies are scaled to {REFERENCE_MS} ms")
    for scaled in (True, False):
        lat = sorted(loop.latencies(scaled))
        e2e = loop.end_to_end(scaled)
        print(f"  {'scaled' if scaled else 'unscaled'} latency per input, ms: min {lat[0] * 1e3:.2f}  "
              f"p50 {percentile(lat, 0.5) * 1e3:.2f}  p95 {percentile(lat, 0.95) * 1e3:.2f}  "
              f"max {lat[-1] * 1e3:.2f};  {e2e['ops_per_s']:.3f} ops/s  {e2e['items_per_s']:.1f} items/s")
    for text in loop.log[:10]:
        print(f"  failed: {text}")

    if args.trace:
        probe = run_probes(wl, tracer)
        for text in probe.log:
            print(f"  probe failed: {text[:160]}")
        cli_times = dict.fromkeys(("cli.interp_s", "cli.import_s", "cli.process_s", "cli.run_s",
                                   "cli.startup_share"), 0.0)
        if cls.name == "cli":
            interp = sampler.median("bare")
            process = statistics.median(dt for timings in loop.times for dt in timings)
            cli_times = {
                "cli.interp_s": interp,
                "cli.import_s": setup_s - interp,
                "cli.process_s": process,
                "cli.run_s": statistics.median(e - s for name, s, e, *_ in tracer.spans if name == "cli.run"),
                "cli.startup_share": 100.0 * setup_s / process,
            }
        metrics, failures = per_layer(loop, tracer, probe, cli_times)
        out_dir = ROOT / ".knotbench"
        tracer.write(out_dir / f"spans-{cls.name}-{args.seed}.jsonl")
        print("  self-time share by layer: " + "  ".join(
            f"{k.split('.')[0]} {v:.1f}%" for k, v in metrics.items() if k.endswith(".share") and v >= 0.05))
        for (layer, kind), n in sorted(failures.items()):
            print(f"  failures by layer: {layer} {kind} {n}")
    else:
        metrics = loop.end_to_end()
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = rss
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}

    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": finite(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
