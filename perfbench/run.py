"""invlag benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
One caller in one thread calls ``invlag.cli.main(argv)`` in process with
standard output and error captured, waits for it, checks the answer and
makes the next call. Every call gets a problem file written beforehand
(or a bundled fixture named in the README's command table).

``--seconds`` sets the amount of work: the workload's call list is sized
so that it takes about that long at commit b9fa981 (see
``workloads.calls``). A fixed list, not a deadline, keeps the mix of
calls the same whatever the speed of the run, so percentiles compare
across runs and commits; a run still stops starting calls once their
time passes ``CAP`` times ``--seconds``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``,
with times in reference seconds (``ReferenceClock``): each call's wall
time scaled by the host's speed at that moment, read from a fixed probe
run right before and right after it.
``--trace 1`` makes each call twice, once with the span wrappers of
``tracing.py`` installed and once without, alternating which goes
first; it prints the per-layer metrics and the tracing overhead, and
fails the run unless both printed byte-identical output. Spans are
written to ``perfbench/out/trace-<workload>-<seed>.json``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 5
TAIL_BEYOND = 10
# A run stops starting calls once their time passes CAP * --seconds.
CAP = 1.4
# The probe time that defines a reference second (about the probe's
# median on a 2-CPU x86-64 host); see ReferenceClock.
PROBE_REF_S = 0.006
# Times ``import invlag.cli``, then runs the reference clock's probe
# twice in the same process, after the timed import.
IMPORT_CHILD = ("import time; t = time.perf_counter(); import invlag.cli; "
                "seconds = time.perf_counter() - t; import run; "
                "print(seconds, run.probe_seconds(), run.probe_seconds())")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _fresh_import(*flags: str) -> subprocess.CompletedProcess:
    """Run ``import invlag.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    done = subprocess.run([sys.executable, *flags, "-c", IMPORT_CHILD],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise BenchError(f"import invlag.cli failed: {done.stderr}")
    return done


def setup_seconds():
    """Time ``import invlag.cli`` takes in a fresh interpreter, as (wall,
    reference) seconds. The reference time is scaled by the probes the
    child runs right after its import: a fresh process may run on
    another core than the benchmark's, and the two cores of a shared
    host need not run at the same speed."""
    seconds, *probes = map(float, _fresh_import().stdout.split())
    return seconds, seconds * PROBE_REF_S * len(probes) / sum(probes)


def sympy_import_seconds() -> float:
    """sympy's cumulative share of ``import invlag.cli`` in a fresh
    interpreter, read from ``-X importtime``."""
    micros = 0
    for line in _fresh_import("-X", "importtime").stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "sympy":
            micros = int(fields[1])
    return micros / 1e6


class Result(NamedTuple):
    """One call's outcome; ``problem`` is None when the answer was right."""

    op: object
    seconds: float
    code: object
    out: str
    err: str
    problem: Optional[str]


def call(main, op) -> Result:
    """Make one call, timed. Garbage is collected and what survives is
    frozen first, so every call starts from the same collector state
    and its collections scan its own objects only, as in a fresh
    ``invlag`` process, whatever earlier calls left behind."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.freeze()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
        problem = f"exited through SystemExit({exc.code!r})"
    except Exception as exc:  # a raising call is a failed op, not a crash
        code = None
        problem = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if problem is None:
        problem = op.check(code, out.getvalue())
    return Result(op, seconds, code, out.getvalue(), err.getvalue(), problem)


def tail(latencies: list):
    """The latency at the highest percentile with ``TAIL_BEYOND`` samples
    beyond it (nearest rank), with that percentile."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_failures(results) -> int:
    failed = [r for r in results if r.problem is not None]
    for r in failed:
        print(f"FAILED {r.op.label}: {r.problem}")
        if r.err:
            print("  stderr: " + r.err.strip().replace("\n", "\n  stderr: "))
    return len(failed)


def warm_up(main, workloads, workload: str, workdir: str) -> int:
    """Untimed calls on inputs of their own: lazy imports and first-call
    set-up happen here, not in a measured call."""
    warm_dir = os.path.join(workdir, "warmup")
    os.makedirs(warm_dir)
    return report_failures([call(main, op) for op in
                            workloads.warmup(workload, warm_dir)])


def _probe_work():
    """A fixed piece of the kind of work invlag spends its time on: the
    product of two sparse polynomials stored as dicts from exponent
    tuples to small Fractions."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    b = {(i, j): Fraction(j - 3, i + 1) for i in range(6) for j in range(6)}
    product = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            product[key] = product.get(key, 0) + x * y


def probe_seconds() -> float:
    gc.collect()
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class ReferenceClock:
    """Turns wall times into reference seconds: the time a piece of work
    would take on a host where the probe takes ``PROBE_REF_S``.

    The host shares its cores with other tenants, and its speed drifts
    by tens of percent within seconds and between minutes, with CPU time
    equal to wall time throughout. The probe runs right before and right
    after every timed call (the probe after one is the probe before the
    next), and the call's wall time is scaled by the reference over the
    mean of its two probes: the host's speed at that moment, measured on
    the same kind of arithmetic. The probe is the same on every commit,
    so a change to the program moves reference seconds exactly as it
    moves wall seconds."""

    def __init__(self):
        self.probes = [probe_seconds()]

    def scale(self, seconds: float) -> float:
        self.probes.append(probe_seconds())
        return seconds * PROBE_REF_S * 2 / (self.probes[-2] + self.probes[-1])

    def mark(self):
        """Probe again after untimed work, so the next call has a fresh
        probe before it."""
        self.probes.append(probe_seconds())


def run_plain(cli, ops, budget: float):
    """Make the calls in order until they are done or their call time
    passes ``budget``, each timed on the reference clock. ``SETUP_RUNS``
    set-up samples are taken between calls spread evenly over the run,
    so their median does not hang on the host's load at one moment.
    Returns the results, their reference seconds and the set-up
    samples as (wall, reference) seconds."""
    clock = ReferenceClock()
    results, scaled, setup = [], [], []
    busy = 0.0
    samples_at = {k * len(ops) // SETUP_RUNS for k in range(SETUP_RUNS)}
    for index, op in enumerate(ops):
        if busy >= budget:
            print(f"stopped after {index} of {len(ops)} calls: call time "
                  f"passed {budget:.0f} s")
            break
        if index in samples_at:
            setup.append(setup_seconds())
            clock.mark()
        results.append(call(cli.main, op))
        scaled.append(clock.scale(results[-1].seconds))
        busy += results[-1].seconds
    while len(setup) < SETUP_RUNS:
        setup.append(setup_seconds())
    print("probe seconds: median {:.5f}, quartiles {:.5f} {:.5f} over {}"
          .format(statistics.median(clock.probes),
                  *statistics.quantiles(clock.probes, n=4)[::2],
                  len(clock.probes)))
    return results, scaled, setup


def run_pairs(cli, ops, budget: float, tracer):
    """Make each call twice, traced and untraced, alternating which goes
    first, until the calls are done or their traced time passes
    ``budget``; returns (untraced, traced). ``cli.main`` is looked up at
    each call, so a traced call goes through the installed wrapper and
    ``cli.main`` is the root span of its op."""
    plain, traced = [], []
    busy = 0.0
    for index, op in enumerate(ops):
        if busy >= budget:
            print(f"stopped after {index} of {len(ops)} calls: call time "
                  f"passed {budget:.0f} s")
            break
        tracer.op = index
        for is_traced in (index % 2 == 0, index % 2 == 1):
            if is_traced:
                tracer.install()
                try:
                    traced.append(call(cli.main, op))
                finally:
                    tracer.uninstall()
                busy += traced[-1].seconds
            else:
                plain.append(call(cli.main, op))
    return plain, traced


def measure(cli, workloads, args, workdir: str):
    ops = workloads.calls(args.workload, args.seed, workdir, args.seconds)
    warm_failed = warm_up(cli.main, workloads, args.workload, workdir)
    results, latencies, setup = run_plain(cli, ops, CAP * args.seconds)
    failed = report_failures(results)
    busy = sum(r.seconds for r in results)
    tail_value, tail_pct = tail(latencies)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": len(results) / sum(latencies),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(ref for _, ref in setup),
    }
    wall = [r.seconds for r in results]
    print(f"workload {args.workload} seed {args.seed}: {len(results)} calls "
          f"in {busy:.2f} s of call time ({sum(latencies):.2f} reference s)")
    print(f"wall time: latency p50 {statistics.median(wall):.4f} s, "
          f"tail {tail(wall)[0]:.4f} s, {len(results) / busy:.4f} ops/s")
    print(f"latency_tail_s is p{tail_pct:.1f} over {len(results)} samples "
          f"({TAIL_BEYOND} beyond it)")
    print(f"error_rate {failed}/{len(results)}; warm-up failures "
          f"{warm_failed}")
    print("setup_s samples, reference / wall s: " + ", ".join(
        f"{ref:.4f} / {wall:.4f}" for wall, ref in setup))
    return warm_failed == 0 and failed == 0, len(results), failed, values


def trace(cli, workloads, args, workdir: str):
    from tracing import Tracer

    ops = workloads.calls(args.workload, args.seed, workdir, args.seconds)
    sympy_share = [sympy_import_seconds() for _ in range(SETUP_RUNS)]
    warm_failed = warm_up(cli.main, workloads, args.workload, workdir)
    tracer = Tracer()
    plain, traced = run_pairs(cli, ops, CAP * args.seconds, tracer)
    failed = report_failures(traced)
    mismatched = 0
    for a, b in zip(traced, plain):
        if (a.code, a.out, a.err) != (b.code, b.out, b.err):
            mismatched += 1
            print(f"FAILED {a.op.label}: traced output differs from untraced")
    traced_s = sum(r.seconds for r in traced)
    plain_s = sum(r.seconds for r in plain)
    values = tracer.metrics()
    candidates = values["solver.candidates"]
    values["solver.hit_ratio"] = (values["solver.representatives"]
                                  / candidates if candidates else 0.0)
    values["solver.assemble_incl_s"] = tracer.inclusive("solver.assemble")
    values["conditions.nonsingularity_incl_s"] = tracer.inclusive(
        "conditions.nonsingularity_record")
    values["setup.sympy_import_s"] = statistics.median(sympy_share)
    values["trace.overhead_ratio"] = traced_s / plain_s
    tracer.dump(str(OUT / f"trace-{args.workload}-{args.seed}.json"),
                [op.label for op in ops[:len(traced)]])
    slowest = max(range(len(traced)), key=lambda k: traced[k].seconds)
    print(f"workload {args.workload} seed {args.seed}: traced {len(traced)} "
          f"calls in {traced_s:.2f} s, untraced {plain_s:.2f} s")
    print(f"solver.hit_ratio base: {values['solver.representatives']}"
          f" representatives / {candidates} candidates")
    print(f"slowest call {traced[slowest].op.label}: "
          f"{traced[slowest].seconds:.3f} s traced; solver.assemble "
          f"{tracer.inclusive('solver.assemble', slowest):.3f} s, "
          f"conditions.nonsingularity_record "
          f"{tracer.inclusive('conditions.nonsingularity_record', slowest):.3f}"
          f" s inclusive")
    ok = warm_failed == 0 and failed == 0 and mismatched == 0
    return ok, len(traced), failed + mismatched, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec_path = ROOT / "BENCHMARK.json"
        if not (SRC / "invlag" / "cli.py").is_file():
            raise BenchError(f"no program to measure under {SRC}")
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(BENCH))
        import invlag.cli as cli
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        OUT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                   dir=OUT)
        try:
            run = trace if args.trace else measure
            correct, attempted, failed, values = run(cli, workloads, args,
                                                     workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value measured for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
