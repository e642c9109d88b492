"""Benchmark of twistkit: timed and traced runs of its three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times units for ``--seconds`` and reports the
end-to-end metrics:

* ``setup_s``: median wall time of fresh processes that import the package,
  build the workload's inputs and exit (one at a time, while the timed
  process waits), scaled like ``unit_cost`` to the machine speed at which
  the reference loop takes ``REF_NOMINAL_S`` (the unscaled median is
  printed as a note);
* ``unit_cost``: median time of a unit in multiples of a fixed reference
  loop timed during the unit, which cancels the drift of a shared
  machine's speed (the plain ``unit_ms`` is printed as a note);
* ``pass_ratio``: one minus the share of operations that failed;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it runs unit 0 once to warm up, then untraced and
traced in turn for ``--seconds``; it reports per-layer metrics per traced
run of unit 0 (a round), the tracing overhead from the median ratio of each
traced round to the untraced round before it, and saves the spans under
``.bench_out/``.  Every line but the last is a readable ``name value unit``
table or a ``#`` note; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program runs in this
process, single-threaded, with BLAS held to one thread.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # BLAS reads these once, when numpy is first imported below.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
#: Seconds between samples of the reference loop during timed units.
REF_EVERY_S = 0.2
#: The reference loop's time on the machine the first baseline ran on.
REF_NOMINAL_S = 3.0e-3
_REF_MATRIX = np.array([[0.5, 0.1j, 0, 0], [0.1, 0.5, 0.2, 0],
                        [0, 0.2j, 0.5, 0.1], [0.1, 0, 0, 0.5]])
WORKLOAD_NAMES = ("verify", "action", "planewave")


def source_available() -> bool:
    return (SOURCE / "twistkit" / "__init__.py").is_file()


def use_source() -> None:
    """Import twistkit from this checkout's ``src``, nothing installed."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def percentile_tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p90, p99 and p99.9 with at least ten samples beyond it."""
    fits = [p for p in (90.0, 99.0, 99.9) if len(samples) * (1 - p / 100) >= 10]
    if not fits:
        return None
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return fits[-1], cuts[round(fits[-1] * 10) - 1]


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process that only sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    t0 = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed; every rerun of unit 0 must match its
    first output, or it counts as one more failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._first = None

    def add(self, i: int, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if i != 0:
            return
        if self._first is None:
            self._first = outcome.fingerprint
        else:
            self.attempted += 1
            self.failed += self._first != outcome.fingerprint


def reference_s() -> float:
    """Wall time of a fixed loop of dict, complex and 4x4 matrix work.

    It calls no twistkit code, and the garbage collector is off while it
    runs, so that no collection of the program's heap lands in it; its time
    tracks only how fast the machine runs right now.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc: dict = {}
        m = _REF_MATRIX
        for k in range(2000):
            key = (k % 7, (k * 3) % 11, (k, 1))
            acc[key] = acc.get(key, 0j) + complex(k, 1) * 0.5
            if k % 8 == 0:
                m = _REF_MATRIX @ m
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Times the reference loop every ``REF_EVERY_S`` from a timer signal.

    The loop runs in this thread, between the program's bytecodes, so the
    machine's speed is sampled inside long units too.  ``samples`` holds
    ``(start, duration)`` pairs.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append((t0, reference_s()))

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.sample()
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, t0: float, t1: float) -> float:
        """Time from ``t0`` to ``t1`` less the probe's own, in reference loops.

        The speed is the mean of the samples taken in the interval, or of
        the nearest ones on either side when none was.
        """
        starts = [s for s, _ in self.samples]
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        inside = [d for _, d in self.samples[lo:hi]]
        around = inside or [d for _, d in self.samples[max(lo - 1, 0):hi + 1]]
        return (t1 - t0 - sum(inside)) / statistics.fmean(around)


def scaled_setup(setup) -> tuple[float, float]:
    """One set-up time, raw and at the speed where the reference loop takes
    ``REF_NOMINAL_S``, using the mean reference time just before and after."""
    before = [reference_s() for _ in range(3)]
    raw = setup()
    after = [reference_s() for _ in range(3)]
    return raw, raw * REF_NOMINAL_S / statistics.fmean(before + after)


def timed_run(wl, seconds: float, setup=None) -> tuple[Tally, dict, list[str]]:
    """Units of ``wl`` for ``seconds``, then unit 0 again to check it reproduces.

    The shared machine's speed drifts by tens of percent within a minute, so
    ``unit_cost`` is the median unit time measured in runs of a reference
    loop timed during the unit (see :class:`SpeedProbe`); ``unit_ms`` in the
    notes is the plain median.  ``setup()``, when given, returns one set-up
    time; its ``SETUP_REPEATS`` samples are spread over the run, kept off the
    run's clock and scaled by ``REF_NOMINAL_S`` over the reference time
    measured around each (see :func:`scaled_setup`).
    """
    tally = Tally()
    units: list[tuple[float, float]] = []
    parts: dict[str, list[float]] = {}
    setup_times: list[tuple[float, float]] = []
    paused = 0.0

    def run_unit(i: int) -> None:
        t0 = perf_counter()
        outcome = wl.unit(i)
        units.append((t0, perf_counter()))
        tally.add(i, outcome)
        for key, dt in outcome.parts.items():
            parts.setdefault(key, []).append(dt)

    def sample_setup() -> None:
        nonlocal paused
        probe.stop()
        t0 = perf_counter()
        setup_times.append(scaled_setup(setup))
        paused += perf_counter() - t0
        probe.start()

    def setup_due() -> bool:
        done = len(setup_times)
        return (setup is not None and done < SETUP_REPEATS
                and done * seconds / SETUP_REPEATS <= perf_counter() - start - paused)

    with SpeedProbe() as probe:
        start = perf_counter()
        i = 0
        while True:
            if setup_due():
                sample_setup()
            run_unit(i)
            i += 1
            if perf_counter() - start - paused >= seconds:
                break
        window = perf_counter() - start - paused
        run_unit(0)
        probe.sample()
    while setup is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(scaled_setup(setup))

    metrics = {}
    if setup is not None:
        metrics["setup_s"] = (statistics.median(s for _, s in setup_times), "s")
    metrics["unit_cost"] = (statistics.median(probe.cost(t0, t1) for t0, t1 in units), "ref")
    metrics["pass_ratio"] = (1.0 - tally.failed / tally.attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    walls = [t1 - t0 for t0, t1 in units]
    notes = [
        f"unit_ms {1e3 * statistics.median(walls):.6g} ms",
        *([f"setup_s unscaled {statistics.median(r for r, _ in setup_times):.6g} s"]
          if setup is not None else []),
        f"reference_ms {1e3 * statistics.median(d for _, d in probe.samples):.6g} ms "
        f"({len(probe.samples)} samples)",
        f"units {len(units)} (the last reruns unit 0), {i / window:.6g} per second",
    ]
    tail = percentile_tail(walls)
    if tail is not None:
        notes.append(f"unit_ms.p{tail[0]:g} {1e3 * tail[1]:.6g} ms")
    notes.append(f"fail_ratio {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted})")
    for rate, (prefix, per_part) in wl.rates.items():
        chosen = [dt for key, dts in parts.items() if key.startswith(prefix) for dt in dts]
        notes.append(f"{rate} {per_part * len(chosen) / sum(chosen):.6g}")
    return tally, metrics, notes


def traced_run(wl, seconds: float) -> tuple[Tally, dict, list[str]]:
    """Unit 0 untraced and traced in turn; metrics are per traced round.

    Each traced round follows an untraced one, so the machine's drift over
    the run weighs on both sides of the overhead alike.
    """
    from workloads import VERIFY_GROUPS

    tally = Tally()

    def run_round(observe=None) -> float:
        t0 = perf_counter()
        outcome = wl.unit(0)
        tally.add(0, outcome)
        if observe is not None:
            observe(outcome)
        return perf_counter() - t0

    run_round()  # warm-up: first-call costs belong to neither side
    group_s = dict.fromkeys(VERIFY_GROUPS, 0.0)
    margin = 0.0

    def observe(outcome) -> None:
        nonlocal margin
        for rec in outcome.records:
            group_s[rec.check_id.split(".", 1)[0]] += rec.elapsed_ms / 1e3
            if rec.status != "skip":
                margin = max(margin, rec.max_abs_error / rec.tolerance)

    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(run_round())
        with tracer:
            traced.append(run_round(observe))
    rounds = len(traced)

    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        calls, busy = summary[span]
        metrics[f"{span}.calls"] = (calls / rounds, "count")
        if span not in ("grassmann.mul", "grassmann.add"):
            metrics[f"{span}.self_s"] = (busy / rounds, "s")
    metrics["operator_algebra.compose.terms_out"] = (
        tracer.counters["operator_algebra.compose.terms_out"] / rounds, "count")
    metrics["grassmann.self_s"] = (
        sum(busy for span, (_, busy) in summary.items() if span.startswith("grassmann."))
        / rounds, "s")
    metrics["actions.generators"] = (tracer.counters["actions.generators"] / rounds, "count")
    solves = summary["dynamics.solve"][0]
    metrics["dynamics.kernel_share"] = (
        tracer.counters["dynamics.singular"] / solves if solves else 0.0, "ratio")
    for group, total in group_s.items():
        metrics[f"checks.group.{group}.s"] = (total / rounds, "s")
    metrics["checks.margin.max"] = (margin, "ratio")
    plain_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_round_s"] = (plain_s, "s")
    metrics["trace.round_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (
        statistics.median(t / u for u, t in zip(untraced, traced)) - 1.0, "ratio")

    path = OUT_DIR / f"spans-{wl.name}.npz"
    tracer.write(path)
    notes = [f"rounds of unit 0: 1 warm-up, {len(untraced)} untraced, {rounds} traced",
             f"spans in {path}"]
    return tally, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not source_available():
        print(f"perfbench: no twistkit sources under {SOURCE}", file=sys.stderr)
        return 2
    use_source()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        workload_cls(args.seed)
        return 0
    wl = workload_cls(args.seed)
    if args.trace:
        tally, metrics, notes = traced_run(wl, args.seconds)
    else:
        tally, metrics, notes = timed_run(
            wl, args.seconds, setup=lambda: setup_seconds(args.workload, args.seed))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes:
        print(f"# {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
