"""The measuring process: ``run.py`` starts it in a clean environment.

It times fresh-interpreter imports (``setup_s``, scaled to the
reference speed), builds the workload's inputs from the seed, then runs
whole rounds of the workload's fixed job list in this process until the
next round would pass ``--seconds``.
A ``SpeedProbe`` times a fixed stdlib-only reference loop every 50 ms
while the jobs run.  The jobs' wall and CPU times expressed in that
loop's runs are ``wall_ref`` and ``cpu_ref``, which cancel the host's
speed drift.  Round 1's outputs are checked against ``oracles``; every
later round must reproduce them exactly.

With ``--trace 1`` it alternates untraced and traced rounds instead and
reports the per-layer metrics of ``tracer``.
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from itertools import permutations
from pathlib import Path

import tracer
import workloads

SETUP_BATCH = 3  # fresh imports before round 1, after it, and at the end
PROBE_INTERVAL_S = 0.05
REFERENCE_LOOP_S = 0.0015  # the loop's time on the reference host; scales setup_s
IMPORTTIME_SAMPLES = 3
IMPORT = [sys.executable, "-c", "import permavoid.cli"]


def reference_loop() -> None:
    """Fixed stdlib-only work shaped like the package's hot loops: nested
    index loops with comparisons over every permutation of 6, tallied in
    a dict.  About 1.5 ms on a 2-core x86 host."""
    hist: dict[int, int] = {}
    for p in permutations(range(6)):
        inv = 0
        for i in range(5):
            a = p[i]
            for j in range(i + 1, 6):
                if a > p[j]:
                    inv += 1
        hist[inv] = hist.get(inv, 0) + 1
    if sum(hist.values()) != 720:
        raise RuntimeError("reference loop miscounted")


class SpeedProbe:
    """Times ``reference_loop`` every ``PROBE_INTERVAL_S`` of wall time.

    The host's speed swings by up to 1.7x within seconds (one pass over
    S_7 of the same loop took 9 to 16 ms, in spells of a second or more),
    so a reference taken between jobs cannot follow it through a job of
    several seconds.  A SIGALRM handler samples it during the jobs
    instead, on the same thread.  The samples' own time is taken out of
    every job's time.

    The timer fires on wall time, but a handler runs only once the
    process is back on a CPU, so samples miss the time the host takes
    the CPU away; in slow spells that was up to 12% of a run.  Rates per
    second of CPU time are therefore the steadier reference.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, end, cpu

    def _sample(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        reference_loop()
        t1, c1 = time.perf_counter(), time.process_time()
        self.samples.append((t0, t1, c1 - c0))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> tuple[float, float, "tuple[float, float] | None"]:
        """(wall, cpu) the probe took from the span [t0, t1), and the
        loop's mean rates over it (None if no sample fell inside)."""
        inside = [(e - s, c) for s, e, c in self.samples if t0 <= s < t1]
        return (sum(w for w, _ in inside), sum(c for _, c in inside),
                self._rates(inside) if inside else None)

    def rates(self) -> tuple[float, float]:
        """Mean rates over every sample of the round."""
        if not self.samples:  # a round shorter than one interval
            self._sample(signal.SIGALRM, None)
        return self._rates([(e - s, c) for s, e, c in self.samples])

    @staticmethod
    def _rates(samples) -> tuple[float, float]:
        """Reference loops per second of wall time and per second of CPU
        time, each averaged over the samples."""
        return (statistics.fmean(1 / w for w, _ in samples),
                statistics.fmean(1 / c for _, c in samples))


def loop_rate(count: int = 5) -> float:
    """Runs of ``reference_loop`` per second of wall time, over ``count``."""
    rates = []
    for _ in range(count):
        start = time.perf_counter()
        reference_loop()
        rates.append(1 / (time.perf_counter() - start))
    return statistics.fmean(rates)


def fresh_import_seconds() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing ``permavoid.cli``, as
    measured and scaled to the reference speed.

    The host's slow and fast spells last minutes and moved this time by
    up to 1.7x between runs, so the reference loop is timed just before
    and after the child, and the time is rescaled to a host that runs
    the loop in ``REFERENCE_LOOP_S``."""
    before = loop_rate()
    start = time.perf_counter()
    subprocess.run(IMPORT, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    rate = (before + loop_rate()) / 2
    return wall, wall * rate * REFERENCE_LOOP_S


def import_breakdown() -> tuple[float, float]:
    """(numpy, permavoid's own modules) cumulative import seconds, read
    from ``-X importtime``; numpy is first imported under permavoid."""
    proc = subprocess.run([IMPORT[0], "-X", "importtime"] + IMPORT[1:], check=True,
                          timeout=60, capture_output=True, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    numpy = cumulative["numpy"]
    own = cumulative["permavoid"] + cumulative.get("permavoid.cli", 0.0) - numpy
    return numpy, own


def run_round(jobs, probe: "SpeedProbe | None" = None, first: "dict | None" = None) -> dict:
    """Run each job once.

    With a probe, each job's wall and CPU times are also given in
    reference loops: each time the loop's matching rate over the job, or
    over the round for a job shorter than a probe interval.  Only the
    first round keeps its outputs; a later round records whether each
    output differs from the first's, so memory does not grow with the
    number of rounds.
    """
    rnd = {"wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0, "job_s": {},
           "job_ref": {}, "codes": {}, "raw": {}, "differs": {}}
    spans = {}
    for job in jobs:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code, raw = job.run()
        except Exception as exc:  # a traceback is a failed job, not a stop
            code, raw = 1, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        probe_wall, probe_cpu, rates = probe.spent(t0, t1) if probe else (0.0, 0.0, None)
        wall, cpu = t1 - t0 - probe_wall, c1 - c0 - probe_cpu
        spans[job.name] = (wall, cpu, rates)
        rnd["wall"] += wall
        rnd["cpu"] += cpu
        rnd["job_s"][job.name] = wall
        rnd["codes"][job.name] = code
        if first is None:
            rnd["raw"][job.name] = raw
        else:
            rnd["differs"][job.name] = raw != first["raw"][job.name]
    if probe:
        whole = probe.rates()
        for name, (wall, cpu, rates) in spans.items():
            wall_rate, cpu_rate = rates or whole
            rnd["job_ref"][name] = cpu * cpu_rate
            rnd["wall_ref"] += wall * wall_rate
            rnd["cpu_ref"] += cpu * cpu_rate
    return rnd


def run_check(check, out) -> "str | None":
    try:
        return check.verify(out)
    except Exception as exc:  # malformed output fails the check
        return f"check raised {type(exc).__name__}: {exc}"


def verify(jobs, checks, rounds) -> tuple[int, bool, list[str]]:
    """(failed job runs, correct, messages)."""
    first = rounds[0]
    ok_jobs = [j.name for j in jobs if first["codes"][j.name] == 0]
    out = {name: workloads.parse(first["raw"][name]) for name in ok_jobs}
    messages, bad, check_failed = [], set(), False
    for j in jobs:
        if first["codes"][j.name] != 0:
            bad.add(j.name)
            messages.append(f"{j.name}: exit {first['codes'][j.name]}: {first['raw'][j.name]!s:.200}")
    checked = []
    for check in checks:
        if not set(check.jobs) <= set(out):
            continue
        fault = run_check(check, out)
        if fault:
            bad.update(check.jobs)
            check_failed = True
            messages.append(f"check {check.name}: {fault}")
        else:
            checked.append(check)
    selftest_ok = True
    for check in checked:
        broken = copy.deepcopy({name: out[name] for name in check.jobs})
        check.corrupt(broken)
        if run_check(check, out | broken) is None:
            selftest_ok = False
            messages.append(f"self-test: check {check.name} accepted a corrupted value")
    mismatch = False
    failed = 0
    for rnd in rounds:
        for j in jobs:
            differs = rnd["differs"].get(j.name, False)
            if differs:
                mismatch = True
                messages.append(f"{j.name}: output differs from round 1")
            failed += j.name in bad or rnd["codes"][j.name] != 0 or differs
    correct = selftest_ok and not mismatch and not check_failed
    return failed, correct, messages


def median_of(rounds, key) -> float:
    return statistics.median(r[key] for r in rounds)


def job_kind_seconds(jobs, rounds) -> dict[str, float]:
    per_round = []
    for rnd in rounds:
        by_kind: dict[str, float] = defaultdict(float)
        for j in jobs:
            by_kind[j.kind] += rnd["job_s"][j.name]
        per_round.append(by_kind)
    return {kind: statistics.median(r[kind] for r in per_round)
            for kind in workloads.JOB_KINDS}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args()

    setup: list[tuple[float, float]] = []

    def take_setup() -> None:
        # Spread over the run, so the median spans the host's slow and
        # fast spells rather than one of them.
        if not args.trace:
            setup.extend(fresh_import_seconds() for _ in range(SETUP_BATCH))

    if args.trace:
        breakdown = [import_breakdown() for _ in range(IMPORTTIME_SAMPLES)]
    take_setup()

    from permavoid import kernels

    jobs, checks = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    print(f"backend: {kernels.BACKEND}")

    plain, traced = [], []
    trc = tracer.Tracer()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with SpeedProbe() as probe:
            plain.append(run_round(jobs, probe, plain[0] if plain else None))
        if args.trace:
            trc.reset()
            trc.install()
            try:
                rnd = run_round(jobs, first=plain[0])
            finally:
                trc.uninstall()
            rnd["layers"] = trc.snapshot()
            traced.append(rnd)
        if len(plain) == 1:
            take_setup()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > args.seconds:
            break
    take_setup()
    # Read before the checks, whose brute force is not the program's memory.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, correct, messages = verify(jobs, checks, plain + traced)
    for msg in messages:
        print(f"FAIL {msg}")
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced")
    for j in jobs:
        secs = statistics.median(r["job_s"][j.name] for r in plain)
        refs = statistics.median(r["job_ref"][j.name] for r in plain)
        print(f"job {j.name}: {secs:.4f} s, {refs:.1f} cpu ref")
    print(f"wall_s: {median_of(plain, 'wall'):.4f} s, cpu_s: {median_of(plain, 'cpu'):.4f} s")
    if setup:
        print(f"setup as measured: {statistics.median(wall for wall, _ in setup):.4f} s")

    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            unit = "count" if name.endswith(".calls") else "s"
            metrics[name] = (statistics.median(r["layers"][name] for r in traced), unit)
        metrics["startup.numpy_s"] = (statistics.median(b[0] for b in breakdown), "s")
        metrics["startup.permavoid_s"] = (statistics.median(b[1] for b in breakdown), "s")
        for kind, secs in job_kind_seconds(jobs, plain).items():
            metrics[f"job.{kind}.s"] = (secs, "s")
        metrics["trace.overhead_s"] = (median_of(traced, "wall") - median_of(plain, "wall"), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
            "wall_ref": (median_of(plain, "wall_ref"), "ref"),
            "cpu_ref": (median_of(plain, "cpu_ref"), "ref"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    attempted = len(jobs) * (len(plain) + len(traced))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
