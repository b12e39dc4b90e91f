"""Run one workload of the tabkit benchmark and print its metrics.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 36 --trace 0

The benchmark is a closed loop in one thread: it makes one checked call at a
time and sends the next when the last returns.  A run repeats the workload's
pass, a fixed list of ops built from the seed, and stops at the first op
boundary after ``--seconds``, once every op has run at least once.

Times are in reference units (``reference.py``): the benchmark times a
fixed pure-Python kernel between ops and divides each op's time by it.  On a
shared host the same op runs up to twice as slow for minutes at a time, and
the kernel slows down with it, so the quotient stays put.  An op's time is
the median over the calmer half of its repeats, those with the fastest
kernel runs around them.  The notes after each metric give real times too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs whole passes
traced for half of ``--seconds``, then the same passes untraced, and prints
the per-layer metrics, per pass, in real time; the spans go to
``perfbench/out/``.  Metric names and units are those
of ``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
REF_EVERY_S = 0.02  # op time between two runs of the reference kernel
CALM_DIVISOR = 2  # an op's time comes from its calmest half of repeats
TRACE_SPAN_BUDGET = 2_000_000  # about 50 MiB of spans
TAIL_LADDER = (999, 990, 950, 900, 750, 500)  # per mille
MAX_WITNESSES = 5


def import_tabkit():
    """Import tabkit afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "tabkit" or m.startswith("tabkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tabkit
    import tabkit.cli  # noqa: F401  (not imported by the package itself)

    if Path(tabkit.__file__).resolve().parent != SRC / "tabkit":
        raise ImportError(f"tabkit was found at {tabkit.__file__}, not under {SRC}")
    return tabkit


def set_up(make_pass, seed: int):
    """Import tabkit afresh and build the seeded pass; also the time taken."""
    started = time.perf_counter()
    lib = import_tabkit()
    ops = make_pass(seed)
    return lib, ops, time.perf_counter() - started


@dataclass
class RunResult:
    passes: int = 0  # whole passes done
    position: int = 0  # ops done in the pass under way
    attempted: int = 0
    wall: float = 0.0
    objects: list[int] = field(default_factory=list)  # by op, last repeat
    times: list[list[float]] = field(default_factory=list)  # by op, every repeat, s
    # by op, every repeat: (real ms per reference ms around it, reference ms)
    ref_ms: list[list[tuple[float, float]]] = field(default_factory=list)
    failures: list[tuple[Op, str]] = field(default_factory=list)

    def best(self) -> list[float]:
        """Each op's fastest repeat, s; infinite if any repeat failed."""
        return [min(t) if math.inf not in t else math.inf for t in self.times]

    def typical_ref_ms(self) -> list[float]:
        """Each op's time in reference ms: the median over the half of its
        repeats that ran while the host was least busy.  Infinite if any
        repeat failed."""
        out = []
        for samples in self.ref_ms:
            calm = sorted(samples)[:-(-len(samples) // CALM_DIVISOR)]
            values = [v for _, v in samples]
            out.append(math.inf if math.inf in values
                       else statistics.median(v for _, v in calm))
        return out


class ReferenceClock:
    """Converts op times to reference milliseconds.

    The kernel runs once at the start and again after every ``REF_EVERY_S``
    of op time.  An op timed between two kernel runs is divided by the mean
    of their two times.
    """

    def __init__(self) -> None:
        self.kernel_s = [self.time_kernel()]
        self.pending: list[tuple[int, float]] = []  # op index, seconds
        self.since = 0.0

    @staticmethod
    def time_kernel() -> float:
        started = time.perf_counter()
        reference.kernel()
        return time.perf_counter() - started

    def record(self, r: RunResult, i: int) -> None:
        """Take op ``i``'s latest time; convert it at the next kernel run."""
        seconds = r.times[i][-1]
        self.pending.append((i, seconds))
        self.since += seconds if math.isfinite(seconds) else 0.0
        if self.since >= REF_EVERY_S:
            self.flush(r)

    def tick(self) -> float:
        """Run the kernel; the real seconds per reference ms since the last run."""
        self.kernel_s.append(self.time_kernel())
        return (self.kernel_s[-2] + self.kernel_s[-1]) / 2 / reference.REF_MS

    def flush(self, r: RunResult) -> None:
        if not self.pending:
            return
        per_ms = self.tick()
        for i, seconds in self.pending:
            r.ref_ms[i].append((per_ms, seconds / per_ms))
        self.pending.clear()
        self.since = 0.0


def run_passes(lib, ops: list[Op], done, tracer=None, between=None) -> RunResult:
    """Run the pass of ops again and again until ``done(result)`` holds,
    asking after each op and calling ``between(result, i)`` after op ``i``.
    A failed op checks no objects, and its time counts as infinite, so it
    misses any latency limit."""
    r = RunResult(objects=[0] * len(ops), times=[[] for _ in ops],
                  ref_ms=[[] for _ in ops])
    started = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            r.attempted += 1
            root = tracer.open_op() if tracer is not None else None
            t0 = time.perf_counter()
            try:
                r.objects[i] = op.run(lib)
                r.times[i].append(time.perf_counter() - t0)
            except (Exception, SystemExit) as exc:
                r.failures.append((op, f"{type(exc).__name__}: {exc}"))
                r.objects[i] = 0
                r.times[i].append(math.inf)
            finally:
                if tracer is not None:
                    tracer.leave(root)
            if between is not None:
                between(r, i)
            r.position = (i + 1) % len(ops)
            r.passes += r.position == 0
            r.wall = time.perf_counter() - started
            if done(r):
                return r


def tail_per_mille(samples: int) -> int | None:
    """The highest ladder percentile with at least ten of ``samples``
    beyond it, or None when there is none and the tail is the maximum."""
    for pm in TAIL_LADDER:
        if samples - -(-pm * samples // 1000) >= 10:
            return pm
    return None


def percentile(samples: list[float], pm: int | None) -> float:
    """Nearest-rank percentile, in per mille; None gives the maximum."""
    ordered = sorted(samples)
    if pm is None:
        return ordered[-1]
    return ordered[max(0, -(-pm * len(ordered) // 1000) - 1)]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(ops: list[Op]) -> str:
    data = json.dumps([[op.label, op.input] for op in ops])
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<40} {value:>14.6g} {unit:<7} {note}".rstrip())


def report_failures(failures, seed: int) -> None:
    for op, error in failures[:MAX_WITNESSES]:
        print(f"FAILED {op.label} seed={seed} input={json.dumps(op.input)} {error}")
    if len(failures) > MAX_WITNESSES:
        print(f"FAILED ... {len(failures) - MAX_WITNESSES} more")


def measure(lib, ops, make_pass, seed: int, setup_s: float, seconds: int):
    """Untraced run: the end-to-end metrics.

    Times are in reference units: op times in reference ms, set-up in
    reference seconds, the median of its repeats.  The notes give the same
    figures in real time, from the fastest repeats.

    ``setup_s`` is the time of the set-up that built ``ops``.  The other
    set-ups are spread over the run, between ops, and their results are
    dropped.  Each set-up is converted by the kernel run that follows it.
    """
    clock = ReferenceClock()
    setups = [setup_s]
    setups_ref = [setup_s / clock.tick() / 1000]
    started = time.perf_counter()

    def set_up_again() -> None:
        taken = set_up(make_pass, seed)[2]
        setups.append(taken)
        setups_ref.append(taken / clock.tick() / 1000)

    def between(r: RunResult, i: int) -> None:
        clock.record(r, i)
        due = started + len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            set_up_again()

    r = run_passes(lib, ops, lambda r: r.wall >= seconds and r.passes >= 1,
                   between=between)
    clock.flush(r)
    while len(setups) < SETUP_REPEATS:
        set_up_again()
    typical, best = r.typical_ref_ms(), r.best()
    timed = [t for t, op in zip(typical, ops) if op.timed]
    timed_best = [t * 1000 for t, op in zip(best, ops) if op.timed]
    pm = tail_per_mille(len(timed))
    tail_name = "max" if pm is None else f"p{pm / 10:g}"
    counts = sorted(len(t) for t in r.ref_ms)
    repeats = f"{counts[0]}" if counts[0] == counts[-1] else f"{counts[0]}-{counts[-1]}"
    pace = statistics.median(clock.kernel_s) * 1000 / reference.REF_MS
    values = {
        "setup_s": statistics.median(setups_ref),
        "objects_per_s": sum(r.objects) / sum(typical) * 1000,
        "op_p50_ms": percentile(timed, 500),
        "op_tail_ms": percentile(timed, pm),
        "fail_ratio": len(r.failures) / r.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} imports and input builds over the run; "
                   f"real time {min(setups):.6g} s, fastest",
        "objects_per_s": f"{sum(r.objects)} objects per pass, {r.passes} whole passes "
                         f"in {r.wall:.3f} s, {repeats} repeats per op; real time "
                         f"{sum(r.objects) / sum(best):.6g}/s, fastest repeats; "
                         f"{len(clock.kernel_s)} kernel runs, median "
                         f"{pace:.3f} real ms per reference ms",
        "op_p50_ms": f"n={len(timed)} ops; real time {percentile(timed_best, 500):.6g} ms",
        "op_tail_ms": f"{tail_name}, n={len(timed)} ops; real time "
                      f"{percentile(timed_best, pm):.6g} ms",
        "fail_ratio": f"{len(r.failures)} of {r.attempted} ops failed",
    }
    return r, values, notes, {"fail_ratio": "ratio"}


def measure_traced(workload: str, lib, ops, seconds: int):
    """Whole passes traced for half of ``seconds``, then the same passes
    untraced: the per-layer metrics."""
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        traced = run_passes(lib, ops, lambda r: r.position == 0 and (
            r.wall >= seconds / 2 or tracer.spans >= TRACE_SPAN_BUDGET), tracer)
    finally:
        tracer.uninstall()
    plain = run_passes(lib, ops, lambda r: r.passes == traced.passes)
    values = tracing.layer_metrics(tracer, traced.passes)
    values["trace.overhead_s"] = (traced.wall - plain.wall) / traced.passes
    tracer.write(HERE / "out" / f"spans-{workload}")
    r = RunResult(passes=traced.passes, attempted=traced.attempted + plain.attempted,
                  failures=traced.failures + plain.failures)
    note = (f"per pass; {traced.passes} passes, {tracer.spans} spans, traced "
            f"{traced.wall:.3f} s, untraced {plain.wall:.3f} s")
    return r, values, {"trace.overhead_s": note}, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_file.read_text())
        lib, ops, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    except (OSError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    uname = os.uname()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"machine {uname.machine} {uname.sysname} {uname.release}, "
          f"{os.cpu_count()} cpus  python {platform.python_version()}  "
          f"git {git_sha()}")
    print(f"inputs {len(ops)} ops per pass  sha256 {digest(ops)}")

    if args.trace:
        r, values, notes, units = measure_traced(args.workload, lib, ops, args.seconds)
        listed = spec["per_layer"]
    else:
        r, values, notes, units = measure(lib, ops, WORKLOADS[args.workload],
                                          args.seed, setup_s, args.seconds)
        listed = spec["end_to_end"]
    units.update({m["name"]: m["unit"] for m in listed})
    for name, value in values.items():
        show(name, value, units[name], notes.get(name, ""))
    report_failures(r.failures, args.seed)
    print(json.dumps({
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
