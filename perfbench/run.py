"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from
``src/`` there and fails (exit 2, no result) when that is missing.  It
writes only below ``.perfbench/`` in the working directory.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
Set-up (input generation, scratch directories, one warm-up round) runs
the workload's ``setup_repeats`` times and ``setup_s`` is the median.
The timed phase then makes a fixed number of passes over the seed's
fixed items: ``--seconds`` over the workload's ``pass_seconds``, at
least ``MIN_PASSES``, so the work done does not depend on how fast the
code is.  Each item's latency is its median over those passes, which
are spread over the whole phase.  The round percentiles are taken over
the items' medians, ``bids_per_s`` is the items' bids over the sum of
their medians, and the slot percentiles are taken over each slot's
median ``close_slot`` time (``live_platform``) or over each item's
median divided by its slot count (the batch workloads, which decide a
whole round at once).  A full garbage collection runs before every
round, untimed, so that no round pays for the garbage of the one before
it.

Every end-to-end time is stated at a reference host speed.  The host
the benchmark was built on is shared, and its speed switches between
two levels, about 1.6 times apart, within seconds.  So a fixed
pure-Python kernel (``reference_kernel``) is timed, untimed itself,
just before and just after every round and around every set-up, and the
round's times are multiplied by ``REFERENCE_SECONDS`` over the mean of
the two kernel times (``speed_scale``).  The kernel is the benchmark's
own code: a change to the library moves a scaled time as much as the
wall-clock one.  The run's median scale and its throughput at the
host's own speed go to standard error.

``--trace 1`` reports the per-layer metrics: one untraced pass over the
items, then the traced set-up and one traced pass (``tracing.py``), with
``city_campaign`` run in-process (``workers=1``) for both passes.  The
spans are written to ``.perfbench/traces/``.  If a traced function no
longer exists the run exits 3 without a result: its figures would read
0 and look like a gain.
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries, set before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
#: ``reference_kernel`` time at the host speed that scaled figures are
#: stated in: its median inside benchmark runs on the 2-vCPU 2.0 GHz
#: Xeon VM the benchmark was built on.
REFERENCE_SECONDS = 0.0045
REFERENCE_SAMPLES = 3


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python kernel: dict inserts, tuples,
    strings, a sort and a heap, the operations the library is built of."""
    start = perf_counter()
    table = {}
    for i in range(2500):
        table[(i * 7919) % 10007] = (i, i * 0.5, str(i))
    heap: List[tuple] = []
    for key, value in sorted(table.items()):
        heapq.heappush(heap, (value[1], key))
    while heap:
        heapq.heappop(heap)
    return perf_counter() - start


def kernel_seconds() -> float:
    """Median of ``REFERENCE_SAMPLES`` reference kernel times."""
    return statistics.median(
        reference_kernel() for _ in range(REFERENCE_SAMPLES)
    )


def speed_scale(before: float, after: float) -> float:
    """Factor from this moment's host speed to the reference speed,
    given the kernel times just before and just after the timed work."""
    return REFERENCE_SECONDS * 2.0 / (before + after)


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def stop_helper_processes() -> None:
    """Stop the processes started on the run's behalf and wait for each.

    Pool workers are joined by the library; any still alive are ended
    here.  The shared-memory resource tracker, started with the first
    segment, would otherwise outlive the run by the time it takes to
    notice that the run has ended: closing its pipe stops it, and the
    wait reaps it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def attempt(workload, item, gate, counts=None, around=None):
    """Run one round, then check it untimed; ``None`` if it failed."""
    gc.collect()
    before = kernel_seconds()
    try:
        with around(item.key) if around else contextlib.nullcontext():
            done = workload.run(item)
        done.scale = speed_scale(before, kernel_seconds())
        problems = workload.check(item, done.result, gate, counts)
    except Exception as exc:  # a raising round counts as failed
        gate.record(item.key, [f"{type(exc).__name__}: {exc}"])
        return None
    gate.record(item.key, problems)
    return None if problems else done


def set_up(workload, seed: int, scratch_root: pathlib.Path, gate):
    """Generate the items and run one warm-up round; returns the items
    and the set-up time at the reference speed, which excludes the
    warm-up's gate check."""
    gc.collect()
    before = kernel_seconds()
    start = perf_counter()
    scratch = pathlib.Path(tempfile.mkdtemp(dir=scratch_root))
    items = workload.setup(seed, scratch)
    elapsed = perf_counter() - start
    elapsed *= speed_scale(before, kernel_seconds())
    warm = attempt(workload, items[0], gate)
    return items, elapsed + (warm.seconds * warm.scale if warm else 0.0)


def passes_for(workload, seconds: float) -> int:
    """Timed passes: a function of ``--seconds`` and the workload only."""
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


def timed_phase(workload, items, gate, passes: int):
    """``passes`` passes over ``items``; the median time per item and per
    slot at the reference speed, and the median scale (for the log)."""
    times: List[List[float]] = [[] for _ in items]
    slot_times: Dict[tuple, List[float]] = {}
    scales: List[float] = []
    for _ in range(passes):
        for index, item in enumerate(items):
            done = attempt(workload, item, gate)
            if done is None:
                continue
            scales.append(done.scale)
            times[index].append(done.seconds * done.scale)
            for slot, value in enumerate(done.slot_seconds or ()):
                slot_times.setdefault((index, slot), []).append(
                    value * done.scale
                )
    medians = [statistics.median(t) if t else math.inf for t in times]
    slot_medians = [statistics.median(t) for t in slot_times.values()]
    return medians, slot_medians, statistics.median(scales or [1.0])


def end_to_end(name, seed, seconds, scratch_root, gate) -> Dict[str, float]:
    from workloads import WORKLOADS

    setups = []
    for _ in range(WORKLOADS[name].setup_repeats):
        items = None  # release the previous set-up's inputs first
        workload = WORKLOADS[name]()
        items, elapsed = set_up(workload, seed, scratch_root, gate)
        setups.append(elapsed)
    passes = passes_for(workload, seconds)
    medians, slot_medians, scale = timed_phase(workload, items, gate, passes)
    ok = [i for i, value in enumerate(medians) if value < math.inf]
    if not ok:
        return {}
    round_ms = [medians[i] * 1e3 for i in ok]
    if slot_medians:
        slot_ms = [value * 1e3 for value in slot_medians]
    else:
        slot_ms = [medians[i] * 1e3 / items[i].slots for i in ok]
    bids_per_s = sum(items[i].bids for i in ok) / sum(medians[i] for i in ok)
    print(
        f"perfbench: median speed scale {scale:.4f}; at host speed about "
        f"{bids_per_s * scale:.6g} bids/s",
        file=sys.stderr,
    )
    return {
        "setup_s": statistics.median(setups),
        "bids_per_s": bids_per_s,
        "round_p50_ms": percentile(round_ms, 50),
        "round_p90_ms": percentile(round_ms, 90),
        "slot_p50_ms": percentile(slot_ms, 50),
        "slot_p90_ms": percentile(slot_ms, 90),
        "passes": passes,
        "round_samples": len(round_ms),
        "slot_samples": len(slot_ms),
    }


def per_layer(name, seed, scratch_root, gate) -> Dict[str, float]:
    from tracing import Tracer, summarize
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    if hasattr(workload, "workers"):
        workload.workers = 1  # worker-side spans cannot be collected
    items, _ = set_up(workload, seed, scratch_root, gate)
    untraced = 0.0
    for item in items:
        done = attempt(workload, item, gate)
        untraced += done.seconds if done else 0.0

    tracer = Tracer()
    counts = tracer.counts
    tracer.install()
    try:
        scratch = pathlib.Path(tempfile.mkdtemp(dir=scratch_root))
        with tracer.root("setup"):
            items = workload.setup(seed, scratch)
        for item in items:
            attempt(workload, item, gate, counts, around=tracer.root)
    finally:
        tracer.uninstall()
    tracer.write(
        pathlib.Path(".perfbench", "traces", f"{name}-seed{seed}.jsonl")
    )

    metrics = summarize(tracer.spans)
    metrics.update(counts)
    metrics["bench.rounds"] = len(items)
    metrics["bench.bids"] = sum(item.bids for item in items)
    metrics["durability.journal.records"] = metrics.get(
        "durability.journal.append.calls", 0
    )
    metrics["durability.journal.syncs"] = metrics.get(
        "durability.journal.sync.calls", 0
    )
    if untraced > 0:
        metrics["obs.trace_overhead"] = metrics["trace.round.s"] / untraced
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the library's cleanup (pool shutdown,
    # shared-memory unlink) and the scratch removal below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no library under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gate import Gate
    from tracing import missing_targets
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
    missing = missing_targets() if args.trace else []
    for target in missing:
        print(f"perfbench: trace target missing: {target}", file=sys.stderr)
    if missing:
        return 3
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work_dir = pathlib.Path(".perfbench")
    work_dir.mkdir(exist_ok=True)
    scratch_root = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_dir)
    )
    # Library temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch_root)
    gate = Gate.for_run(args.workload, args.seed)
    try:
        if args.trace:
            values = per_layer(args.workload, args.seed, scratch_root, gate)
        else:
            values = end_to_end(
                args.workload, args.seed, args.seconds, scratch_root, gate
            )
    finally:
        stop_helper_processes()
        shutil.rmtree(scratch_root, ignore_errors=True)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    values["correct_ratio"] = (
        (gate.attempted - gate.failed) / gate.attempted if gate.attempted else 0.0
    )
    for problem in gate.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if "round_samples" in values:
        print(
            f"perfbench: {args.workload}: {values['passes']} passes, "
            f"{values['round_samples']} round and {values['slot_samples']} "
            "slot samples",
            file=sys.stderr,
        )
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
