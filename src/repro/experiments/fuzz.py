"""Differential fuzzing across every runtime axis of the simulator.

The shard synchronizer's correctness argument ("any window end is safe,
any commit point is honoured, ties sort like the single loop") — and its
twins for the engine-backend registry and the result-document path — are
only as good as the scenarios that exercise them.  This module draws
small random but always *legal* :class:`~repro.experiments.spec.
ScenarioSpec` instances spanning the coupled features (shared wired
middlebox with zero-rate schedule steps, SNR-triggered mobility,
scheduled handovers with short interruptions, wrapped >250-UE address
spaces, fading channels, background populations, both engine backends)
and checks them against pluggable invariant suites:

* **conservation** — per-flow and per-UE byte accounting agree, every
  delivered packet has a finite non-negative one-way delay, and marked
  fractions stay inside ``[0, 1]``.
* **determinism** — running the same spec twice reproduces the result
  exactly, on every execution path.  The second single-loop run is the
  per-tick reference (:func:`run_per_tick`), so the same comparison also
  checks that slot clocks collapsing quiet ticks change nothing.  In a
  multi-cell single loop every cell ticks on the same slot grid, so
  another cell's tick is always the heap head and no run collapses; a
  shard holding one cell does collapse, so the sharding suite below is
  where a collapse fault in a drawn multi-cell spec shows.
* **sharding** — on static channels the sharded run's per-flow metrics
  and handover records are bit-identical to the single loop; on fading
  channels (where per-shard channel streams legitimately differ) the
  sharded run must still be deterministic and conserve bytes.  A silent
  fallback or any exception (``ConservativeSyncError`` included) is a
  violation.
* **backend** — the ``numpy`` backend is bit-identical to ``python`` on
  static channels and individually deterministic (and collapse-exact) on
  fading ones (the contract of :mod:`repro.sim.backends`).
* **document** — every run's :func:`~repro.experiments.results.
  result_document` serializes byte-identically across dumps, passes
  :func:`~repro.experiments.results.check_document`, and determinism
  pairs produce byte-equal documents.

``random_spec`` is a pure function of the :class:`random.Random`
instance it is handed — every axis draw is consumed regardless of
environment gating (a missing numpy downgrades the choice, never the
stream) — so a seed fully reproduces a failing spec.  The property tests
in ``tests/test_fuzz_spec.py`` drive it through hypothesis, the CI smoke
job replays fixed seeds via ``scripts/fuzz_specs.py``, and
:func:`run_campaign` fans seed ranges across worker processes under the
``REPRO_CORE_BUDGET`` arbiter for the nightly campaign.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
import warnings
from typing import Callable, Optional, Sequence

from repro._numpy import numpy_available
from repro.api import ScenarioResult, run
from repro.experiments.results import (check_document, dump_document,
                                       result_document)
from repro.experiments.scenario import build_scenario
from repro.experiments.sharded import run_scenario_sharded, sharding_blockers
from repro.experiments.spec import (CellSpec, EngineSpec, HandoverSpec,
                                    MobilitySpec, PopulationSpec,
                                    ScenarioSpec, ShardingSpec, UeSpec)
from repro.sim.backends import available_backends, default_engine_name
from repro.units import ms
from repro.workloads.flows import FlowSpec

__all__ = ["INVARIANT_SUITES", "SpecRuns", "check_spec", "flows_identical",
           "random_spec", "run_campaign", "run_per_tick", "static_channel"]

#: Congestion controllers the fuzzer mixes (all deterministic).
_CC_NAMES = ("prague", "cubic", "bbr2")

#: Coupling modes a drawn spec lands in, with rough weights: plain multi-cell
#: splits, a shared wired middlebox, SNR mobility, both at once, and a
#: scheduled ping-pong handover whose interruption is shorter than the
#: barrier lookahead (the commit-point path).
_COUPLINGS = ("plain", "mbx", "snr", "mbx+snr", "short-ho")

#: Fading channel profiles drawn for the determinism-only tier.
_FADING_PROFILES = ("pedestrian", "vehicular")


def random_spec(rng: random.Random, duration_s: float = 0.4) -> ScenarioSpec:
    """Draw one legal scenario from ``rng``, spanning every runtime axis.

    Pure in ``rng``: the same :class:`random.Random` state yields the same
    spec, so one integer seed reproduces any failure.  Axis draws are
    consumed unconditionally; environment gates (numpy missing) downgrade
    the drawn value without touching the stream, so a seed names the same
    scenario *shape* everywhere.

    The spec's name records the drawn axes (``fuzz-mbx+stall+wrap``
    style), so campaign reports and corpus entries are self-describing.
    """
    coupling = rng.choice(_COUPLINGS)
    # Axis draws — always consumed, in a fixed order.
    engine_draw = rng.choice(("python", "python", "numpy"))
    fading = rng.random() < 0.25
    fading_profile = rng.choice(_FADING_PROFILES)
    population = rng.random() < 0.2
    n_background = rng.choice((40, 80, 120))
    wrapped = rng.random() < 0.25
    n_wrapped = rng.randint(1, 2)
    stall = rng.random() < 0.35
    stall_resumes = rng.random() < 0.7
    # Environment gating (never consumes draws): numpy-only axes fall back
    # to the portable choice when numpy is absent.
    if not numpy_available():
        engine_draw = "python"
        population = False
    # Wrapped addresses require every colliding UE to stay non-mobile
    # (sharding_blockers): restrict them to the immobile couplings.
    wrapped = wrapped and coupling in ("plain", "mbx")
    stall = stall and "mbx" in coupling

    n_cells = rng.randint(2, 3)
    cells = [CellSpec(cell_id=cell) for cell in range(n_cells)]
    n_ues = n_cells + rng.randint(0, 1)
    ues = [UeSpec(ue_id=ue, cell_id=ue % n_cells,
                  mean_snr_db=5.0 if ue == 0 and "snr" in coupling else None)
           for ue in range(n_ues)]
    # Staggered starts and distinct WAN RTTs: the single loop resolves
    # same-instant ties by flow declaration order and the boundary sort
    # mirrors that, but keeping the draws distinct exercises the barrier on
    # timelines that never collapse onto one instant.
    flows = [FlowSpec(flow_id=i, ue_id=i,
                      cc_name=rng.choice(_CC_NAMES),
                      label=f"fuzz-{i}",
                      start_time=round(0.015 * i + rng.random() * 0.01, 6),
                      wan_rtt=ms(rng.choice((18, 28, 38, 58)) + 2 * i))
             for i in range(n_ues)]
    if wrapped:
        # UE 250+i shares UE i's client address (10.45.0.{i+2}); the
        # higher id wins the shared core's routing table and the lower
        # id's flow degrades to a receiver-less trickle — on the single
        # loop and sharded alike.
        for i in range(n_wrapped):
            winner = 250 + i
            ues.append(UeSpec(ue_id=winner, cell_id=(i + 1) % n_cells))
            flows.append(FlowSpec(
                flow_id=n_ues + i, ue_id=winner,
                cc_name=rng.choice(_CC_NAMES),
                label=f"fuzz-wrap-{winner}",
                start_time=round(0.015 * (n_ues + i) + rng.random() * 0.01, 6),
                wan_rtt=ms(rng.choice((18, 28, 38, 58)) + 2 * (n_ues + i))))
    mobility = MobilitySpec()
    if "snr" in coupling:
        mobility = MobilitySpec(mode="snr", snr_threshold_db=10.0,
                                min_stay_s=rng.choice((0.1, 0.2)),
                                check_interval_s=0.05)
    elif coupling == "short-ho":
        mobility = MobilitySpec(
            mode="schedule", ho_mode=rng.choice(("forward", "flush")),
            interruption_s=0.005,
            handovers=[HandoverSpec(time=duration_s / 2, ue_id=0,
                                    target_cell=1)])
    wired: Optional[float] = None
    schedule: list = []
    if "mbx" in coupling:
        wired = float(rng.choice((30, 50, 80)))
        halve = rng.random() < 0.5
        if stall:
            # A zero-rate step stalls the queue mid-run; sometimes the
            # schedule resumes it, sometimes the stall holds to the
            # horizon (the unbounded-serialization case the shard floor
            # must survive).
            schedule = [(round(duration_s * 0.4, 6), 0.0)]
            if stall_resumes:
                schedule.append((round(duration_s * 0.7, 6), wired * 0.5))
        elif halve:
            schedule = [(duration_s / 2, wired * 0.5)]
    name = "fuzz-" + coupling
    for tag, active in (("fading", fading), ("pop", population),
                        ("wrap", wrapped), ("stall", stall),
                        ("np", engine_draw == "numpy")):
        if active:
            name += f"+{tag}"
    return ScenarioSpec(
        name=name, num_ues=0, duration_s=duration_s,
        channel_profile=fading_profile if fading else "static",
        marker="l4span",
        seed=rng.randrange(2 ** 31),
        wired_bottleneck_mbps=wired, wired_bottleneck_schedule=schedule,
        engine=EngineSpec(backend=engine_draw),
        population=(PopulationSpec(n_background=n_background,
                                   snr_stddev_db=3.0, activity=0.8)
                    if population else PopulationSpec()),
        cells=cells, ues=ues, flows=flows, mobility=mobility)


# --------------------------------------------------------------------------- #
# Result predicates
# --------------------------------------------------------------------------- #
def static_channel(spec: ScenarioSpec) -> bool:
    """True when every UE rides a static channel (bit-identity tier)."""
    return all((ue.channel_profile or spec.channel_profile) == "static"
               for ue in spec.resolved_ues())


def flows_identical(a: ScenarioResult, b: ScenarioResult) -> bool:
    """Bit-exact equality of the two results' per-flow metrics."""
    if len(a.flows) != len(b.flows):
        return False
    return all(
        x.flow_id == y.flow_id
        and x.owd_samples == y.owd_samples
        and x.rtt_samples == y.rtt_samples
        and x.goodput_bytes_per_s == y.goodput_bytes_per_s
        and x.congestion_events == y.congestion_events
        and x.marked_fraction == y.marked_fraction
        for x, y in zip(a.flows, b.flows))


def _conservation_violations(result: ScenarioResult) -> list[str]:
    """Byte/packet accounting checks inside one result."""
    violations: list[str] = []
    spec = result.config
    flow_bytes = 0.0
    for flow, flow_spec in zip(result.flows, spec.resolved_flows()):
        active = spec.duration_s - flow_spec.start_time
        if flow_spec.stop_time is not None:
            active = min(active, flow_spec.stop_time - flow_spec.start_time)
        flow_bytes += flow.goodput_bytes_per_s * max(active, 1e-9)
        if not 0.0 <= flow.marked_fraction <= 1.0:
            violations.append(
                f"flow {flow.flow_id} marked_fraction {flow.marked_fraction}")
        if any(owd < 0 or owd != owd or owd == float("inf")
               for owd in flow.owd_samples):
            violations.append(
                f"flow {flow.flow_id} has a negative/non-finite OWD sample")
    ue_bytes = sum(result.per_ue_throughput.values()) * spec.duration_s
    if abs(flow_bytes - ue_bytes) > 1e-6 * max(flow_bytes, ue_bytes, 1.0):
        violations.append(
            "byte accounting disagrees: per-flow "
            f"{flow_bytes:.1f}B vs per-UE {ue_bytes:.1f}B")
    return violations


def run_per_tick(spec: ScenarioSpec) -> ScenarioResult:
    """Run ``spec`` on the single loop with every tick its own event.

    The reference for the slot clocks' quiet-tick collapse: a
    ``max_events`` budget (never reached here) forbids every callback and
    wheel timer from batching ticks (see
    :meth:`repro.sim.engine.Simulator.run`), so the loop walks each MAC
    slot one firing at a time.  The result, ``events_processed``
    included, must equal a default run's bit for bit.
    """
    built = build_scenario(spec)
    events = built.sim.run(until=spec.duration_s, max_events=10 ** 12)
    built.stop_collectors()
    return built.collect(events)


# --------------------------------------------------------------------------- #
# Memoized runs of one spec across execution paths
# --------------------------------------------------------------------------- #
class SpecRuns:
    """Lazily runs one spec on each execution path, memoizing results.

    Suites share runs through this cache, so checking five invariant
    tiers costs each (path, repeat) combination exactly once.  Sharded
    runs that raise have the exception memoized and re-raised, keeping a
    failing path from re-running per suite.
    """

    def __init__(self, spec: ScenarioSpec,
                 shard_counts: Sequence[int] = (2,)) -> None:
        self.spec = spec.validate()
        self.shard_counts = tuple(shard_counts)
        self.static = static_channel(self.spec)
        self._single: dict[tuple[str, int], ScenarioResult] = {}
        self._sharded: dict[tuple[int, int], object] = {}

    def backend_of(self) -> str:
        """The spec's resolved engine backend name."""
        return self.spec.engine.backend or default_engine_name()

    def single(self, backend: Optional[str] = None,
               repeat: int = 0) -> ScenarioResult:
        """The single-loop result under ``backend`` (None = the spec's).

        ``repeat=1`` is the per-tick reference (:func:`run_per_tick`):
        comparing it with ``repeat=0`` checks determinism and the slot
        clocks' quiet-tick collapse at once, with no extra run.
        """
        backend = backend or self.backend_of()
        key = (backend, repeat)
        if key not in self._single:
            spec = dataclasses.replace(
                self.spec, sharding=ShardingSpec(mode="off"),
                engine=EngineSpec(backend=backend,
                                  channel_block=self.spec.engine.channel_block))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self._single[key] = (run_per_tick(spec) if repeat == 1
                                     else run(spec))
        return self._single[key]

    def sharded(self, shards: int, repeat: int = 0) -> ScenarioResult:
        """The sharded result; re-raises a memoized failure."""
        key = (shards, repeat)
        if key not in self._sharded:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    self._sharded[key] = run_scenario_sharded(
                        self.spec, shards=shards, inprocess=True)
            except Exception as exc:  # noqa: BLE001 - memoized, re-raised
                self._sharded[key] = exc
        value = self._sharded[key]
        if isinstance(value, Exception):
            raise value
        return value

    def completed(self) -> list[tuple[str, ScenarioResult]]:
        """Every (label, result) pair materialized so far."""
        runs = [(f"single[{backend},run{repeat}]", result)
                for (backend, repeat), result in self._single.items()]
        runs.extend((f"sharded[{shards},run{repeat}]", value)
                    for (shards, repeat), value in self._sharded.items()
                    if not isinstance(value, Exception))
        return runs


# --------------------------------------------------------------------------- #
# Invariant suites
# --------------------------------------------------------------------------- #
def _suite_conservation(runs: SpecRuns) -> list[str]:
    return _conservation_violations(runs.single())


def _suite_determinism(runs: SpecRuns) -> list[str]:
    if not flows_identical(runs.single(), runs.single(repeat=1)):
        return ["single loop differs from its per-tick reference run: "
                "the run is not deterministic, or the slot clock's "
                "quiet-tick collapse is not exact"]
    return []


def _suite_sharding(runs: SpecRuns) -> list[str]:
    violations: list[str] = []
    single = runs.single()
    for shards in runs.shard_counts:
        try:
            sharded = runs.sharded(shards)
        except Exception as exc:  # noqa: BLE001 - any barrier fault counts
            violations.append(f"shards={shards} raised "
                              f"{type(exc).__name__}: {exc}")
            continue
        if sharded.sharding_stats.get("fallback"):
            violations.append(f"shards={shards} silently fell back: "
                              f"{sharded.sharding_stats}")
            continue
        if runs.static:
            if not flows_identical(single, sharded):
                violations.append(f"shards={shards} per-flow metrics differ "
                                  "from single loop")
            if single.handovers != sharded.handovers:
                violations.append(f"shards={shards} handover records differ "
                                  "from single loop")
        else:
            # Fading: per-shard channel streams legitimately diverge from
            # the single loop; the sharded path must still be
            # deterministic in itself.
            try:
                repeat = runs.sharded(shards, repeat=1)
            except Exception as exc:  # noqa: BLE001
                violations.append(f"shards={shards} repeat raised "
                                  f"{type(exc).__name__}: {exc}")
                continue
            if not flows_identical(sharded, repeat):
                violations.append(f"shards={shards} is not deterministic "
                                  "across repeats (fading)")
        violations.extend(f"shards={shards}: {reason}"
                          for reason in _conservation_violations(sharded))
    return violations


def _suite_backend(runs: SpecRuns) -> list[str]:
    backends = available_backends()
    if len(backends) < 2:
        return []  # one backend: nothing to differ from
    violations: list[str] = []
    for backend in backends:
        if not flows_identical(runs.single(backend=backend),
                               runs.single(backend=backend, repeat=1)):
            violations.append(f"{backend} backend differs from its "
                              "per-tick reference run: not deterministic, "
                              "or the quiet-tick collapse is not exact")
    if runs.static:
        reference = backends[0]
        for backend in backends[1:]:
            if not flows_identical(runs.single(backend=reference),
                                   runs.single(backend=backend)):
                violations.append(f"{backend} backend per-flow metrics "
                                  f"differ from {reference} (static channel)")
    return violations


def _suite_document(runs: SpecRuns) -> list[str]:
    violations: list[str] = []
    texts: dict[str, str] = {}
    for label, result in runs.completed():
        document = result_document(result)
        text = dump_document(document)
        if dump_document(result_document(result)) != text:
            violations.append(f"{label}: result_document serialization is "
                              "not byte-stable across dumps")
        try:
            check_document(json.loads(text))
        except ValueError as exc:
            violations.append(f"{label}: check_document rejected the "
                              f"document: {exc}")
        texts[label] = text
    # Determinism pairs must produce byte-equal documents.
    for base, repeat in (("single[{0},run0]", "single[{0},run1]"),):
        backend = runs.backend_of()
        a = texts.get(base.format(backend))
        b = texts.get(repeat.format(backend))
        if a is not None and b is not None and a != b:
            violations.append("the run and its per-tick reference "
                              "serialize to different documents (byte "
                              "identity broken: nondeterminism or an "
                              "inexact quiet-tick collapse)")
    return violations


#: Pluggable invariant suites, each ``fn(SpecRuns) -> [violation, ...]``.
#: Order matters mildly: the document suite audits whatever runs earlier
#: suites materialized.
INVARIANT_SUITES: dict[str, Callable[[SpecRuns], list[str]]] = {
    "conservation": _suite_conservation,
    "determinism": _suite_determinism,
    "sharding": _suite_sharding,
    "backend": _suite_backend,
    "document": _suite_document,
}


def check_spec(spec: ScenarioSpec,
               shard_counts: Sequence[int] = (2,),
               suites: Optional[Sequence[str]] = None) -> list[str]:
    """Run every invariant suite against ``spec``; return violations.

    An empty list means every invariant held.  Violations carry their
    suite name as a ``suite:`` prefix (``sharding: shards=2 ...``), which
    the minimizer uses as a failure signature.  Any exception out of a
    run (``ConservativeSyncError`` included) is itself a violation,
    reported rather than raised so a fuzz campaign sees all failures.
    """
    spec = spec.validate()
    violations = [f"blocker: unexpected sharding blocker: {reason}"
                  for reason in sharding_blockers(spec)]
    if violations:
        return violations
    runs = SpecRuns(spec, shard_counts=shard_counts)
    for name in (suites if suites is not None else INVARIANT_SUITES):
        suite = INVARIANT_SUITES[name]
        try:
            violations.extend(f"{name}: {reason}" for reason in suite(runs))
        except Exception as exc:  # noqa: BLE001 - a crashed suite is a finding
            violations.append(f"{name}: raised {type(exc).__name__}: {exc}")
    return violations


# --------------------------------------------------------------------------- #
# Campaign runner
# --------------------------------------------------------------------------- #
def _campaign_one(item: tuple) -> dict:
    """Check one seed (top-level so worker pools can pickle it)."""
    seed, duration_s, shard_counts, suites = item
    spec = random_spec(random.Random(seed), duration_s=duration_s)
    started = time.monotonic()
    violations = check_spec(spec, shard_counts=shard_counts, suites=suites)
    return {"seed": seed, "name": spec.name,
            "elapsed_s": round(time.monotonic() - started, 3),
            "violations": violations}


def _campaign_parallel(items: list, workers: int, out_of_time,
                       progress) -> tuple[list[dict], bool, int]:
    """Fan items across a process pool; ``workers == 1`` signals fallback.

    Mirrors the sweep runner's degradation contract: only pool *creation*
    failures (sandboxed platforms) and worker deaths fall back — they
    return ``workers=1`` so the caller re-runs sequentially; check
    failures are data, never exceptions.
    """
    import multiprocessing
    from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                    wait)
    from concurrent.futures.process import BrokenProcessPool
    try:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=multiprocessing.get_context())
    except (ImportError, NotImplementedError, OSError,
            PermissionError) as exc:
        warnings.warn(f"campaign process pool unavailable ({exc!r}); "
                      "checking seeds sequentially in this process",
                      RuntimeWarning, stacklevel=3)
        return [], False, 1
    records: list[dict] = []
    stopped_early = False
    try:
        with pool:
            pending = {pool.submit(_campaign_one, item) for item in items}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    record = future.result()
                    records.append(record)
                    if progress is not None:
                        progress(record)
                if pending and out_of_time():
                    stopped_early = True
                    for future in pending:
                        future.cancel()
                    break
    except BrokenProcessPool as exc:
        warnings.warn(f"campaign worker died ({exc!r}); re-checking all "
                      "seeds sequentially in this process",
                      RuntimeWarning, stacklevel=3)
        return [], False, 1
    records.sort(key=lambda record: record["seed"])
    return records, stopped_early, workers


def run_campaign(count: int, seed: int = 0, duration_s: float = 0.4,
                 shard_counts: Sequence[int] = (2,),
                 suites: Optional[Sequence[str]] = None,
                 workers: Optional[int] = None,
                 time_budget_s: Optional[float] = None,
                 progress: Optional[Callable[[dict], None]] = None) -> dict:
    """Fuzz ``count`` consecutive seeds; return the campaign report.

    Workers default to (and are always clamped by) the host's
    ``REPRO_CORE_BUDGET`` arbiter — a campaign shares the machine with
    whatever else runs under that budget.  ``time_budget_s`` stops the
    campaign early once the wall clock is spent (seeds already dispatched
    still finish); the report records how far it got.  Platforms without
    multiprocessing fall back to in-process checking, same report.
    """
    from repro.experiments.runner import core_budget
    budget = core_budget()
    if workers is None:
        workers = budget
    workers = max(1, min(int(workers), budget, count))
    items = [(seed + i, duration_s, tuple(shard_counts),
              tuple(suites) if suites is not None else None)
             for i in range(count)]
    started = time.monotonic()
    records: list[dict] = []
    stopped_early = False

    def out_of_time() -> bool:
        return (time_budget_s is not None
                and time.monotonic() - started >= time_budget_s)

    if workers > 1:
        records, stopped_early, workers = _campaign_parallel(
            items, workers, out_of_time, progress)
    if workers <= 1:
        for item in items:
            if out_of_time():
                stopped_early = True
                break
            record = _campaign_one(item)
            records.append(record)
            if progress is not None:
                progress(record)
    failures = [record for record in records if record["violations"]]
    return {
        "schema": 1,
        "params": {"count": count, "seed": seed, "duration_s": duration_s,
                   "shard_counts": list(shard_counts),
                   "suites": list(suites) if suites is not None else
                             list(INVARIANT_SUITES),
                   "time_budget_s": time_budget_s},
        "workers": workers,
        "seeds_checked": len(records),
        "stopped_early": stopped_early,
        "elapsed_s": round(time.monotonic() - started, 3),
        "failures": failures,
        "names": sorted({record["name"] for record in records}),
    }
