#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coexist-pedestrian --seed 7 \\
        --seconds 35 --trace 0

The load is a closed loop: one scenario runs at a time, from this single
process plus the scenario's own shard workers.  A workload is a batch of
scenarios (see ``workloads.py``).  With ``--trace 0`` the batch's scenarios
run round-robin for ``--seconds`` and the end-to-end metrics come from each
scenario's median time, scaled to a reference host speed by a probe timed
before each scenario run (see ``calibrate.py``).  With ``--trace 1`` the
batch runs once for the simulated outcomes, then its first scenario runs in
pairs of an untraced and a traced run (see ``layertrace.py``) and the
per-layer metrics are medians over those pairs.  Every run's result
document is checked; a run that raises or fails a check counts in
``failed``.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro.api as api  # noqa: E402
from repro.experiments.scenario import build_scenario  # noqa: E402

import calibrate  # noqa: E402
from layertrace import LAYERS, LayerTrace  # noqa: E402
from workloads import (DEFAULT_SEED, HELD_BACK, HELD_OUT_SEED,  # noqa: E402
                       MIN_TAIL_PKTS, WORKLOADS, Workload)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "sim_s_per_cpu_s": "s/s",
    "sim_s_per_wall_s": "s/s",
    "pkts_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  The first three are the
#: simulated outcomes of the foreground flows, medians over the batch's
#: scenarios.  They are fixed for a given seed but swing with the seed far
#: more than any bound allows, so they are reported here, unbounded; the
#: printed digest shows any change in them exactly.
PER_LAYER = {
    "owd_p50_ms": "ms",
    "owd_p99_ms": "ms",
    "goodput_mbps": "Mbit/s",
    "sim.events": "count",
    "sim.events_per_pkt": "1/pkt",
    "sim.self_s": "s",
    "net.pkts": "count",
    "net.self_s": "s",
    "ran.core.pkts": "count",
    "ran.core.self_s": "s",
    "core.pkts": "count",
    "core.marked": "count",
    "core.feedback": "count",
    "core.self_s": "s",
    "core.ns_per_pkt": "ns",
    "ran.cu.pkts": "count",
    "ran.cu.self_s": "s",
    "ran.rlc.sdus": "count",
    "ran.rlc.rejected": "count",
    "ran.rlc.self_s": "s",
    "ran.mac.slots": "count",
    "ran.mac.busy_frac": "1",
    "ran.mac.self_s": "s",
    "ran.background.self_s": "s",
    "ran.phy.tx": "count",
    "ran.phy.self_s": "s",
    "ran.ue.pkts": "count",
    "ran.ue.self_s": "s",
    "channel.samples": "count",
    "channel.self_s": "s",
    "cc.acks": "count",
    "cc.self_s": "s",
    "ran.mobility.handovers": "count",
    "ran.mobility.self_s": "s",
    "metrics.records": "count",
    "metrics.self_s": "s",
    "sharded.windows": "count",
    "sharded.routed_pkts": "count",
    "sharded.plan_s": "s",
    "sharded.merge_s": "s",
    "sharded.worker_cpu_s": "s",
    "sharded.wait_s": "s",
    "other.self_s": "s",
    "trace.overhead": "x",
}

#: Largest gap between the traced run's wall time and its span self times
#: plus ``other.self_s``, as a share of that wall time.
TRACE_SUM_TOLERANCE = 0.005
#: Set-up timings taken before each scenario run of a batch.
SETUPS_PER_RUN = 3
#: Relative tolerance on the delay-breakdown averages between equivalent runs.
BREAKDOWN_REL_TOL = 1e-9


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #
def _cpu_s() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def document_digest(document: dict) -> str:
    """Digest of a result document minus what may differ between equivalent
    runs, so sharded and single-loop runs of one spec compare equal.

    Dropped: the event count (top level and in the summary), the sharding
    block (top level and in the spec) and the delay breakdown, which
    :func:`breakdown_matches` compares instead.  Every other field must
    match bit for bit.
    """
    stripped = {key: value for key, value in document.items()
                if key not in ("events_processed", "sharding",
                               "delay_breakdown")}
    stripped["spec"] = {key: value for key, value in document["spec"].items()
                        if key != "sharding"}
    stripped["summary"] = {key: value
                           for key, value in document["summary"].items()
                           if key != "events"}
    return hashlib.sha256(
        api.dump_document(stripped).encode("utf-8")).hexdigest()


def breakdown_matches(document: dict, reference: dict) -> bool:
    """Delay-breakdown averages agree to :data:`BREAKDOWN_REL_TOL`.

    The shard merge sums per-shard totals in another order than the single
    loop, which moves these averages in the last few bits.
    """
    ours, theirs = document["delay_breakdown"], reference["delay_breakdown"]
    return ours.keys() == theirs.keys() and all(
        ours[key] == theirs[key] or (
            ours[key] is not None and theirs[key] is not None
            and math.isclose(ours[key], theirs[key],
                             rel_tol=BREAKDOWN_REL_TOL))
        for key in ours)


@dataclass
class Run:
    """One scenario run's document and costs."""

    document: dict
    digest: str
    owd_samples: list
    wall_s: float
    cpu_s: float
    worker_cpu_s: float
    trace: LayerTrace = None

    @property
    def pkts(self) -> int:
        return len(self.owd_samples)

    @property
    def goodput_mbps(self) -> float:
        return sum(flow["goodput_mbps"] for flow in self.document["flows"])


def run_once(spec_dict: dict, shards: int, trace: LayerTrace = None) -> Run:
    """Load, run and document one scenario; time the run."""
    spec = api.load_spec(spec_dict)
    options = api.RuntimeOptions(shards=shards)
    own0, children0 = _cpu_s()
    start = time.perf_counter()
    if trace is None:
        result = api.run(spec, options=options)
        document = api.result_document(result)
    else:
        with trace:
            result = api.run(spec, options=options)
            document = api.result_document(result)
    wall = time.perf_counter() - start
    own1, children1 = _cpu_s()
    samples = sorted(sample for flow in result.flows
                     for sample in flow.owd_samples)
    return Run(document=document, digest=document_digest(document),
               owd_samples=samples, wall_s=wall,
               cpu_s=(own1 - own0) + (children1 - children0),
               worker_cpu_s=children1 - children0, trace=trace)


def check_run(run: Run, reference, min_pkts: int) -> list[str]:
    """Problems with one run's output; empty when it passes."""
    problems = []
    try:
        api.check_document(run.document)
    except ValueError as exc:
        problems.append(f"check_document rejected the document: {exc}")
    if run.pkts <= 0:
        problems.append("no packets delivered after warm-up")
    elif run.pkts < min_pkts:
        problems.append(f"only {run.pkts} packets after warm-up; owd_p99_ms "
                        f"needs {min_pkts}")
    if not run.goodput_mbps > 0:
        problems.append("goodput is not above zero")
    if reference is not None:
        if run.digest != reference.digest:
            problems.append(f"digest {run.digest[:16]} differs from the "
                            f"reference {reference.digest[:16]}")
        if not breakdown_matches(run.document, reference.document):
            problems.append("delay breakdown differs from the reference")
    return problems


def check_trace(run: Run) -> list[str]:
    """Problems with a traced run's span accounting."""
    trace = run.trace
    other = run.wall_s - trace.covered_s
    total = sum(trace.self_s.values()) + other
    problems = []
    if abs(total - run.wall_s) > TRACE_SUM_TOLERANCE * run.wall_s:
        problems.append(f"self times plus other sum to {total:.6f} s, "
                        f"traced wall time is {run.wall_s:.6f} s")
    if other < -TRACE_SUM_TOLERANCE * run.wall_s:
        problems.append(f"spans cover more than the wall time "
                        f"(other.self_s = {other:.6f} s)")
    negative = [layer for layer, value in trace.self_s.items()
                if value < -1e-9]
    if negative:
        problems.append(f"negative self time in {negative}")
    return problems


def percentile(sorted_samples: list, q: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


# ---------------------------------------------------------------------- #
# One invocation
# ---------------------------------------------------------------------- #
class Bench:
    """Runs, checks and tallies one workload's invocation."""

    def __init__(self, workload: Workload, seed: int, duration_s=None,
                 batch=None, min_pkts: int = MIN_TAIL_PKTS) -> None:
        self.workload = workload
        self.specs = workload.spec_dicts(seed, duration_s, batch)
        self.duration_s = self.specs[0]["duration_s"]
        self.min_pkts = min_pkts
        self.attempted = 0
        self.failed = 0
        #: The first run of each scenario in the batch, by index.
        self.references: dict[int, Run] = {}
        #: Set-up times, taken before each scenario run of a batch.
        self.setup_samples: list[float] = []
        #: Host-speed probe timings; ``rounds`` takes them when set.
        self.calibration = None
        self.notes: list[str] = []

    def run(self, index: int = 0, shards=None, trace=None):
        """One checked scenario run; None when it raised.

        A run that fails a check is counted in ``failed`` and still
        returned, so its costs are measured and the result says it was
        wrong.
        """
        self.attempted += 1
        shards = self.workload.shards if shards is None else shards
        spec = self.specs[index]
        label = (f"run {self.attempted} (seed {spec['seed']}, shards={shards}"
                 + (", traced)" if trace is not None else ")"))
        try:
            run = run_once(spec, shards, trace)
        except Exception:  # a failing run is counted, not fatal
            self.failed += 1
            print(f"{label} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        problems = check_run(run, self.references.get(index), self.min_pkts)
        if trace is not None and trace.full:
            problems += check_trace(run)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{label} failed: {problem}", file=sys.stderr)
        self.references.setdefault(index, run)
        return run

    def batch_digest(self) -> str:
        """One digest over the batch's reference documents."""
        joined = " ".join(self.references[index].digest
                          for index in sorted(self.references))
        return hashlib.sha256(joined.encode("ascii")).hexdigest()

    def time_setup(self, index: int) -> None:
        """Time ``load_spec`` plus ``build_scenario`` of one scenario."""
        start = time.perf_counter()
        build_scenario(api.load_spec(self.specs[index]))
        self.setup_samples.append(time.perf_counter() - start)

    def rounds(self, seconds: float):
        """Run the batch's scenarios round-robin, checked, until ``seconds``
        would be exceeded.

        Every scenario runs at least once; another run starts only if a turn
        as long as the last one still ends inside ``seconds``.  Returns each
        scenario's runs, or None when a scenario never ran without raising.
        """
        runs = [[] for _ in self.specs]
        start = time.perf_counter()
        turn_s = run_s = 0.0
        turns = 0
        while (turns < len(self.specs)
               or time.perf_counter() - start + turn_s <= seconds):
            index = turns % len(self.specs)
            turns += 1
            begun = time.perf_counter()
            for _ in range(SETUPS_PER_RUN):
                self.time_setup(index)
            if self.calibration is not None:
                self.calibration.sample(calibrate.SHARE * run_s)
            begun_run = time.perf_counter()
            run = self.run(index)
            run_s = time.perf_counter() - begun_run
            turn_s = time.perf_counter() - begun
            if run is not None:
                runs[index].append(run)
        return runs if all(runs) else None

    def end_to_end(self, seconds: float) -> dict:
        self.time_setup(0)  # warm-up: imports and first-use caches
        self.setup_samples.clear()
        with calibrate.Calibration() as self.calibration:
            runs = self.rounds(seconds)
            # Read before the probe's child is reaped and counted.
            rss = peak_rss_mb()
        if runs is None:
            return None
        if self.workload.sharded:
            # Static-channel sharded runs must equal the single loop.
            self.run(0, shards=1)
        # Per scenario, the median over its repeats, so one slow stretch of
        # the host does not move the batch total.
        wall = sum(statistics.median(run.wall_s for run in repeats)
                   for repeats in runs)
        cpu = sum(statistics.median(run.cpu_s for run in repeats)
                  for repeats in runs)
        setup = statistics.median(self.setup_samples)
        simulated = self.duration_s * len(self.specs)
        cpu_scale = self.calibration.cpu_scale
        wall_scale = self.calibration.wall_scale
        self.notes.append(
            f"{sum(map(len, runs))} runs of {len(self.specs)} scenarios "
            f"round-robin; each scenario's time is the median of its "
            f"{min(map(len, runs))} to {max(map(len, runs))} runs; setup_s "
            f"is the median of {len(self.setup_samples)} builds")
        self.notes.append(
            f"times scaled to the reference host speed by the median of "
            f"{len(self.calibration.cpu_samples)} probe calls: CPU x "
            f"{cpu_scale:.4f}, wall x {wall_scale:.4f}; unscaled "
            f"sim_s_per_cpu_s {simulated / cpu:.6f}, sim_s_per_wall_s "
            f"{simulated / wall:.6f}, setup_s {setup:.6f}")
        return {
            "sim_s_per_cpu_s": simulated / (cpu * cpu_scale),
            "sim_s_per_wall_s": simulated / (wall * wall_scale),
            "pkts_per_cpu_s": (sum(repeats[0].pkts for repeats in runs)
                               / (cpu * cpu_scale)),
            "setup_s": setup * wall_scale,
            "peak_rss_mb": rss,
        }

    def per_layer(self, seconds: float) -> dict:
        """Outcomes of one batch, then the layer split of its first scenario,
        traced repeatedly for the rest of ``seconds``."""
        start = time.perf_counter()
        runs = self.rounds(0)
        if runs is None:
            return None
        scenarios = [repeats[0] for repeats in runs]
        outcomes = {
            "owd_p50_ms": statistics.median(
                percentile(run.owd_samples, 50) for run in scenarios) * 1e3,
            "owd_p99_ms": statistics.median(
                percentile(run.owd_samples, 99) for run in scenarios) * 1e3,
            "goodput_mbps": statistics.median(
                run.goodput_mbps for run in scenarios),
        }
        sharded = self.workload.sharded
        iterations = []
        last = 0.0
        while not iterations or time.perf_counter() - start + last <= seconds:
            begun = time.perf_counter()
            if sharded:
                parent = self.run(trace=LayerTrace(full=False))
                untraced = self.run(shards=1)
                traced = self.run(shards=1, trace=LayerTrace())
            else:
                untraced = parent = self.run()
                traced = self.run(trace=LayerTrace())
            last = time.perf_counter() - begun
            if None in (parent, untraced, traced):
                if not iterations and self.failed > 3:
                    return None
                continue
            iterations.append(self._layer_metrics(parent, untraced, traced))
        source = ("shards=1 traced run of the same spec; sharded.* from the "
                  "parent process of the sharded run" if sharded else
                  "traced single-loop run")
        self.notes.append(
            f"outcomes are medians over {len(scenarios)} scenarios; layer "
            f"values are medians of {len(iterations)} iterations on seed "
            f"{self.specs[0]['seed']}, split from the {source}; "
            f"sharded.wait_s is derived as wall - parent CPU - worker CPU / "
            f"shards")
        layers = {name: statistics.median(it[name] for it in iterations)
                  for name in PER_LAYER if name not in outcomes}
        return {**outcomes, **layers}

    def _layer_metrics(self, parent: Run, untraced: Run, traced: Run) -> dict:
        trace = traced.trace
        document = traced.document
        values = {f"{layer}.self_s": trace.self_s.get(layer, 0.0)
                  for layer in LAYERS}
        counts = trace.counts
        for name in ("net.pkts", "ran.core.pkts", "core.pkts",
                     "core.feedback", "ran.cu.pkts", "ran.rlc.sdus",
                     "ran.rlc.rejected", "ran.phy.tx", "ran.ue.pkts",
                     "channel.samples", "cc.acks", "metrics.records"):
            values[name] = counts.get(name, 0)
        pkts = traced.pkts
        events = document["events_processed"]
        values["sim.events"] = events
        values["sim.events_per_pkt"] = events / pkts
        values["core.marked"] = document["marker_summary"].get(
            "marked_packets", 0)
        values["core.ns_per_pkt"] = (values["core.self_s"] * 1e9
                                     / max(values["core.pkts"], 1))
        slots = sum(mac.slots for mac in trace.mac_schedulers)
        busy = sum(mac.busy_slots for mac in trace.mac_schedulers)
        values["ran.mac.slots"] = slots
        values["ran.mac.busy_frac"] = busy / slots if slots else 0.0
        values["ran.mobility.handovers"] = len(document["handovers"])
        sharding = parent.document["sharding"]
        shards = sharding.get("shards", 1)
        parent_self = parent.trace.self_s if parent.trace else {}
        values["sharded.windows"] = sharding.get("windows", 0)
        values["sharded.routed_pkts"] = sharding.get("routed_packets", 0)
        values["sharded.plan_s"] = parent_self.get("sharded.plan", 0.0)
        values["sharded.merge_s"] = parent_self.get("sharded.merge", 0.0)
        values["sharded.worker_cpu_s"] = parent.worker_cpu_s
        values["sharded.wait_s"] = (parent.wall_s
                                    - (parent.cpu_s - parent.worker_cpu_s)
                                    - parent.worker_cpu_s / shards)
        values["other.self_s"] = traced.wall_s - trace.covered_s
        values["trace.overhead"] = traced.wall_s / untraced.wall_s
        return values


def measure(name: str, seed: int, seconds: float, trace: bool,
            duration_s=None, batch=None,
            min_pkts: int = MIN_TAIL_PKTS) -> dict:
    """Run one workload invocation; the result object, or None when no run
    could be measured."""
    workload = WORKLOADS.get(name) or HELD_BACK[name]
    bench = Bench(workload, seed, duration_s, batch, min_pkts)
    values = bench.per_layer(seconds) if trace else bench.end_to_end(seconds)
    if values is None:
        return None
    units = PER_LAYER if trace else END_TO_END
    print(f"workload {name}  seed {seed}  scenario seeds "
          f"{[spec['seed'] for spec in bench.specs[:len(bench.references)]]}"
          f"  duration {bench.duration_s} s  shards {bench.workload.shards}")
    print(f"digest {bench.batch_digest()}")
    for note in bench.notes:
        print(f"note: {note}")
    for metric, unit in units.items():
        print(f"  {metric:<24} {values[metric]:>16.6f} {unit}")
    print(f"  {'failed_frac':<24} {bench.failed / bench.attempted:>16.6f} "
          f"({bench.failed} of {bench.attempted} runs)")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {metric: {"value": values[metric], "unit": unit}
                        for metric, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, *HELD_BACK])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"scenario seed base (default {DEFAULT_SEED}; re-check claims "
             f"on the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("no run of the workload could be measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
