"""End-to-end scenario benchmarks with a per-subsystem time breakdown.

The engine microbenchmarks (``test_bench_engine.py``) isolate raw heap and
callback churn; these benchmarks time a *whole* 5G scenario -- CC senders,
WAN pipes, the CU/DU/RLC/MAC chain, the channel models and the L4Span layer
-- so the BENCH_*.json trajectory carries end-to-end events/sec numbers, not
just engine churn.  Each record also attaches a per-subsystem breakdown
(``subsystem_seconds``: profiler self-time grouped by ``repro`` subpackage),
which is what pointed PR 3 at the CC callback chain and the RLC bookkeeping.

Run via ``scripts/bench_smoke.sh`` (included in the default smoke target).
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import time

import pytest

from benchmarks.conftest import attach_rows, scaled_duration
from repro._numpy import numpy_available
from repro.api import ScenarioSpec, make_preset, run as run_scenario
from repro.experiments.fuzz import run_per_tick
from repro.experiments.sharded import run_scenario_sharded


def _prague_config(duration: float) -> ScenarioSpec:
    """The ROADMAP perf-baseline scenario: 2 Prague UEs, fading channel."""
    return ScenarioSpec(duration_s=duration, seed=7, num_ues=2,
                        cc_name="prague",
                        channel_profile="pedestrian")


def _with_engine(spec: ScenarioSpec, backend: str) -> ScenarioSpec:
    """The same scenario on the named engine backend."""
    return dataclasses.replace(
        spec, engine=dataclasses.replace(spec.engine, backend=backend))


def _best_of(runner, repeats: int = 3) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs (the machine is noisy)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _mixed_config(duration: float) -> ScenarioSpec:
    """A classic-CC contrast point on a static channel."""
    return ScenarioSpec(duration_s=duration, seed=3, num_ues=2,
                        cc_name="cubic",
                        channel_profile="static")


def _subsystem_breakdown(config: ScenarioSpec) -> dict[str, float]:
    """Profile one run and group profiler self-time by repro subpackage."""
    profile = cProfile.Profile()
    profile.enable()
    run_scenario(config)
    profile.disable()
    totals: dict[str, float] = {}
    for (filename, _line, _name), entry in pstats.Stats(profile).stats.items():
        tottime = entry[2]
        index = filename.find("/repro/")
        if index >= 0:
            remainder = filename[index + len("/repro/"):]
            subsystem = remainder.split("/", 1)[0].removesuffix(".py")
        else:
            subsystem = "other"
        totals[subsystem] = totals.get(subsystem, 0.0) + tottime
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def _bench_scenario(benchmark, config_factory, duration: float) -> None:
    result = benchmark.pedantic(
        lambda: run_scenario(config_factory(duration)), rounds=1, iterations=1)
    events_per_sec = result.events_processed / benchmark.stats.stats.min
    # Time the same scenario on the numpy engine backend, so the BENCH
    # trajectory records both backends for every scenario benchmark.
    if numpy_available():
        numpy_elapsed, numpy_result = _best_of(
            lambda: run_scenario(
                _with_engine(config_factory(duration), "numpy")),
            repeats=1)
        numpy_eps = numpy_result.events_processed / numpy_elapsed
    else:
        numpy_eps = 0.0
    attach_rows(
        benchmark, [result.summary()],
        events=result.events_processed,
        events_per_sec_best=events_per_sec,
        events_per_sec_numpy=numpy_eps,
        numpy_speedup=(numpy_eps / events_per_sec if events_per_sec else 0.0),
        subsystem_seconds=_subsystem_breakdown(config_factory(duration)))
    assert result.events_processed > 0
    assert result.total_goodput_mbps() > 0


def test_scenario_2ue_prague_pedestrian(benchmark):
    _bench_scenario(benchmark, _prague_config, scaled_duration(10.0))


def test_scenario_2ue_cubic_static(benchmark):
    _bench_scenario(benchmark, _mixed_config, scaled_duration(6.0))


def test_scenario_8cell_sharded_vs_single_loop(benchmark):
    """Events/sec of the sharded 8-cell run vs the same spec on one loop.

    The benchmark clock times the sharded run (4 worker processes); the
    single-loop reference is timed separately and attached, so the BENCH
    JSON trajectory records the sharded-vs-single comparison and the
    measured speedup on this machine's core count.
    """
    spec = dataclasses.replace(make_preset("eight-cell"),
                               duration_s=scaled_duration(3.0))
    start = time.perf_counter()
    single = run_scenario(spec)
    single_elapsed = time.perf_counter() - start
    single_eps = single.events_processed / single_elapsed

    sharded = benchmark.pedantic(
        lambda: run_scenario_sharded(spec, shards=4), rounds=1, iterations=1)
    sharded_eps = sharded.events_processed / benchmark.stats.stats.min
    attach_rows(
        benchmark, [sharded.summary()],
        events=sharded.events_processed,
        events_per_sec_best=sharded_eps,
        single_loop_events_per_sec=single_eps,
        single_loop_events=single.events_processed,
        sharded_speedup=(sharded_eps / single_eps if single_eps else 0.0),
        shards=4)
    # Static channel: the shard split must not change what was simulated.
    assert sharded.total_goodput_mbps() == single.total_goodput_mbps()
    assert len(sharded.flows) == len(single.flows) == 8


def test_scenario_handover_adaptive_vs_fixed_windows(benchmark):
    """Events/sec of the mobility-coupled sharded run, adaptive vs fixed.

    The handover preset is the first scenario whose shard split genuinely
    requires the windowed barrier protocol (the moving UE's serving cell
    and its content server land on different shards), so this benchmark
    records what the barrier costs and what the adaptive window clock buys
    back: fixed mode pays one pipe round-trip per lookahead window for the
    whole run (~316 for 6 s at 19 ms), adaptive mode only inside the
    schedule-proven coupling intervals.
    """
    duration = scaled_duration(4.0)
    spec = dataclasses.replace(make_preset("handover"), duration_s=duration)
    # Scale the handover times with the duration (the preset pins them at
    # t=2/t=4 for its own 6 s run): the UE leaves home at 1/4 of the run
    # and returns at 3/4, so the coupled phase exists at any bench scale.
    spec = dataclasses.replace(spec, mobility=dataclasses.replace(
        spec.mobility,
        handovers=[dataclasses.replace(spec.mobility.handovers[0],
                                       time=duration * 0.25),
                   dataclasses.replace(spec.mobility.handovers[1],
                                       time=duration * 0.75)]))
    start = time.perf_counter()
    fixed = run_scenario_sharded(spec, shards=2, adaptive=False)
    fixed_elapsed = time.perf_counter() - start
    fixed_eps = fixed.events_processed / fixed_elapsed

    adaptive = benchmark.pedantic(
        lambda: run_scenario_sharded(spec, shards=2, adaptive=True),
        rounds=1, iterations=1)
    adaptive_eps = adaptive.events_processed / benchmark.stats.stats.min
    attach_rows(
        benchmark, [adaptive.summary()],
        events=adaptive.events_processed,
        events_per_sec_best=adaptive_eps,
        fixed_windows_events_per_sec=fixed_eps,
        adaptive_windows=adaptive.sharding_stats["windows"],
        fixed_windows=fixed.sharding_stats["windows"],
        boundary_exchanges=adaptive.sharding_stats["routed_packets"],
        shards=2)
    # Static channel: the window policy must not change what was simulated.
    assert adaptive.total_goodput_mbps() == fixed.total_goodput_mbps()
    assert adaptive.sharding_stats["windows"] < \
        fixed.sharding_stats["windows"]
    assert adaptive.sharding_stats["routed_packets"] > 0
    assert len(adaptive.handovers) == 2


def test_scenario_coupled_core_barrier_roundtrips(benchmark):
    """Events/sec and barrier round-trips of the coupled-core preset.

    Every flow funnels through the shared wired middlebox and an SNR
    handover commits two-phase, so the barrier runs at its densest: the
    middlebox queue floor caps every window and commit points pin the
    cadence.  ``sync_windows`` (one pipe round-trip each) is the
    synchronization-overhead trend `scripts/bench_compare.py` tracks —
    a protocol change that doubles the window count shows up in the
    BENCH JSON trajectory even if wall-clock noise hides it.
    """
    spec = dataclasses.replace(make_preset("coupled-core"),
                               duration_s=scaled_duration(2.0))
    start = time.perf_counter()
    single = run_scenario(
        dataclasses.replace(spec, sharding=dataclasses.replace(
            spec.sharding, mode="off")))
    single_elapsed = time.perf_counter() - start
    single_eps = single.events_processed / single_elapsed

    sharded = benchmark.pedantic(
        lambda: run_scenario_sharded(spec, shards=2), rounds=1, iterations=1)
    sharded_eps = sharded.events_processed / benchmark.stats.stats.min
    attach_rows(
        benchmark, [sharded.summary()],
        events=sharded.events_processed,
        events_per_sec_best=sharded_eps,
        single_loop_events_per_sec=single_eps,
        sync_windows=sharded.sharding_stats["windows"],
        boundary_exchanges=sharded.sharding_stats["routed_packets"],
        shards=2)
    # Static channel: the coupled split must not change what was simulated.
    assert sharded.total_goodput_mbps() == single.total_goodput_mbps()
    assert sharded.handovers == single.handovers and sharded.handovers
    assert sharded.sharding_stats["windows"] > 0
    assert sharded.sharding_stats["routed_packets"] > 0


def test_scenario_dense_cell_population(benchmark):
    """Throughput-of-simulation of the population kernel vs full simulation.

    The metric is *simulated-UE-seconds per wall-second*: the fully
    simulated reference (8 packet-exact UEs on a static channel) measures
    the per-UE cost of the exact path, the dense-cell preset carries 1002
    UEs (2 exact + 1000 aggregated) through the vectorized background
    kernel.  The acceptance floor for the kernel is a 100x
    throughput-of-simulation gain over simulating every UE exactly.
    """
    reference = ScenarioSpec(duration_s=scaled_duration(1.0), seed=7,
                               num_ues=8, cc_name="cubic",
                               channel_profile="static")
    start = time.perf_counter()
    full = run_scenario(reference)
    full_elapsed = time.perf_counter() - start
    full_ue_s = full.simulated_ue_seconds() / full_elapsed

    spec = dataclasses.replace(make_preset("dense-cell"),
                               duration_s=scaled_duration(6.0))
    dense = benchmark.pedantic(
        lambda: run_scenario(spec), rounds=1, iterations=1)
    elapsed = benchmark.stats.stats.min
    dense_ue_s = dense.simulated_ue_seconds() / elapsed
    if numpy_available():
        numpy_elapsed, numpy_dense = _best_of(
            lambda: run_scenario(_with_engine(spec, "numpy")), repeats=1)
        numpy_eps = numpy_dense.events_processed / numpy_elapsed
    else:
        numpy_eps = 0.0
    dense_eps = dense.events_processed / elapsed
    attach_rows(
        benchmark, [dense.summary()],
        events=dense.events_processed,
        events_per_sec_best=dense_eps,
        events_per_sec_numpy=numpy_eps,
        numpy_speedup=(numpy_eps / dense_eps if dense_eps else 0.0),
        ue_seconds_per_sec_best=dense_ue_s,
        full_sim_ue_seconds_per_sec=full_ue_s,
        population_speedup=(dense_ue_s / full_ue_s if full_ue_s else 0.0))
    assert dense.background["n_background"] == 1000
    assert dense.total_goodput_mbps() > 0
    assert dense.background_throughput_mbps() > 0
    assert dense_ue_s >= 100 * full_ue_s


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_scenario_dense_cell_engine_backends(benchmark):
    """The quiet-slot collapse on dense-cell, and the backends' identity.

    The scenario is the dense-cell preset with a coarser population kernel
    cadence (40 ms), which makes the run slot-bound: long runs of slots
    grant no foreground PRBs, and both slot clocks (the default heap clock
    and the numpy backend's timer wheel) do such a run in one firing.  The
    timed comparison is the default (python) backend's run against its
    per-tick reference (``run_per_tick``: a ``max_events`` budget forbids
    batching, so every slot is its own event), best-of-4 each, back to
    back in this process; their results are asserted identical, so the
    speedup is a like-for-like measurement, not a model change.

    The ``collapse_speedup >= 1.3`` floor is the acceptance hard line
    (measured 1.45-1.65x on a 2-core container; the margin absorbs
    machine noise).  The numpy backend runs once for the cross-backend identity
    asserts; its ``numpy_speedup`` is recorded, not gated: the collapse it
    used to own alone now serves both backends.
    """
    dense = make_preset("dense-cell")
    spec = _with_engine(dataclasses.replace(
        dense, duration_s=scaled_duration(6.0),
        population=dataclasses.replace(dense.population,
                                       update_interval_s=0.04)), "python")
    per_tick_elapsed, per_tick_result = _best_of(
        lambda: run_per_tick(spec), repeats=4)
    python_result = benchmark.pedantic(
        lambda: run_scenario(spec), rounds=4, iterations=1)
    python_elapsed = benchmark.stats.stats.min
    numpy_elapsed, numpy_result = _best_of(
        lambda: run_scenario(_with_engine(spec, "numpy")), repeats=1)
    python_eps = python_result.events_processed / python_elapsed
    numpy_eps = numpy_result.events_processed / numpy_elapsed
    speedup = per_tick_elapsed / python_elapsed
    attach_rows(
        benchmark, [python_result.summary()],
        events=python_result.events_processed,
        events_per_sec_best=python_eps,
        events_per_sec_numpy=numpy_eps,
        per_tick_events_per_sec=(per_tick_result.events_processed
                                 / per_tick_elapsed),
        numpy_speedup=python_elapsed / numpy_elapsed,
        collapse_speedup=speedup)
    # The collapse must not change what was simulated ...
    assert python_result.events_processed == per_tick_result.events_processed
    assert python_result.summary() == per_tick_result.summary()
    # ... and neither may the backend (static channel).
    assert numpy_result.events_processed == python_result.events_processed
    assert numpy_result.total_goodput_mbps() == \
        python_result.total_goodput_mbps()
    assert speedup >= 1.3


def test_scenario_events_deterministic():
    """The same spec processes the identical event count on repeat runs."""
    first = run_scenario(_prague_config(2.0))
    second = run_scenario(_prague_config(2.0))
    assert first.events_processed == second.events_processed
    assert first.summary() == second.summary()
