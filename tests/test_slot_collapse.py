"""Quiet-slot collapse on the heap-driven MAC slot clock.

In a dense cell most MAC slots grant the foreground UEs nothing; the slot
clock does the bookkeeping of such a run of slots in one event.  These
tests pin the dense-cell result documents captured while every slot was
still its own event, check the default run against the per-tick reference
and a windowed run, count the slot events the collapse saves, and pin the
background kernel's state after a fixed step sequence.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

import repro.api as api
from repro.experiments.fuzz import run_per_tick
from repro.experiments.scenario import build_scenario
from repro.experiments.spec import PopulationSpec
from repro.ran.background import BackgroundPopulation
from repro.ran.cell import CellConfig
from repro.ran.mac import MacScheduler
from repro.sim.engine import Simulator

pytestmark = pytest.mark.filterwarnings("ignore")


def _dense_spec(variant: str):
    dense = api.make_preset("dense-cell")
    spec = dataclasses.replace(dense, duration_s=1.5)
    if variant == "pf":
        spec = dataclasses.replace(spec, scheduler="pf")
    elif variant == "cadence40":
        spec = dataclasses.replace(spec, population=dataclasses.replace(
            dense.population, update_interval_s=0.04))
    return spec


def _digest(result) -> str:
    """Digest of the whole result document, event count included."""
    text = api.dump_document(api.result_document(result))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _windowed(spec, windows: int = 7):
    """``spec`` run as ``windows`` consecutive ``run(until=...)`` calls."""
    built = build_scenario(spec)
    events = 0
    for index in range(1, windows + 1):
        events += built.sim.run(until=spec.duration_s * index / windows)
    built.stop_collectors()
    return built.collect(events)


#: Result-document digests and event counts of 1.5 s dense-cell runs,
#: captured while the heap slot clock fired one event per slot.
PINNED = {
    "rr": ("21fc26cc286b7d11aacb2239ee83f8ca55e1224c5a7d6adca97d4e721ad6b5e8",
           3485),
    "pf": ("44d3c030489c4c73ec5126346fc40063646a1e86d284f2723452eb884161006b",
           3945),
    "cadence40": (
        "122ddfe1dfbf2c948164bb95e971c0effd869851b577c2135f3a528319b58015",
        3485),
}


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_dense_cell_documents_match_per_slot_events(variant):
    spec = _dense_spec(variant)
    result = api.run(spec)
    digest, events = PINNED[variant]
    assert result.events_processed == events
    assert _digest(result) == digest
    per_tick = run_per_tick(spec)
    windowed = _windowed(spec)
    for other in (per_tick, windowed):
        assert other.events_processed == events
        assert _digest(other) == digest


def test_dense_cell_rr_collapses_most_slot_events():
    """One scheduled slot event per quiet run, not one per slot."""
    spec = _dense_spec("rr")
    built = build_scenario(spec)
    slot_events = 0
    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at

    def is_slot_clock(callback) -> bool:
        # The MAC's own tick, or a PeriodicProcess ticking a MAC method
        # (the per-slot clock this test guards against).
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, MacScheduler):
            return True
        ticked = getattr(owner, "_callback", None)
        return isinstance(getattr(ticked, "__self__", None), MacScheduler)

    def counting(original):
        def wrapper(sim, when, callback, *args):
            nonlocal slot_events
            if is_slot_clock(callback):
                slot_events += 1
            return original(sim, when, callback, *args)
        return wrapper

    try:
        Simulator.schedule = counting(schedule)
        Simulator.schedule_at = counting(schedule_at)
        built.run()
    finally:
        Simulator.schedule = schedule
        Simulator.schedule_at = schedule_at
    (gnb,) = built.gnbs.values()
    slots = gnb.du.mac.slots
    assert slots == 3001  # ticks at 0, 0.5 ms, ..., 1.5 s
    assert 0 < slot_events <= 0.4 * slots


# ---------------------------------------------------------------------- #
# Background kernel: scratch-buffer step is bit-identical
# ---------------------------------------------------------------------- #
#: sha256 of cwnd/backlog/active bytes plus the counters after the fixed
#: step sequence below, captured from the allocate-per-step kernel.
KERNEL_PINNED = {
    "bulk": ("0959d5fa96a31f9c7ef5c6dfcc66dcb9ec1236c5b5d8b44341ab5c8a9b1ba9d6",
             200, 1798224.0883151584, 4125617.8811348476, 401.8699999999993,
             201),
    "rate": ("d079b46ff503d46c92c51c41ef9ea67ed4485d2f95f21119dd007f782e64dd93",
             206, 5386245.293011369, 4076155.399055556, 417.1830000000005,
             201),
}


@pytest.mark.parametrize("workload", sorted(KERNEL_PINNED))
def test_background_kernel_state_pinned(workload):
    sim = Simulator(seed=11)
    cell = CellConfig()
    spec = PopulationSpec(n_background=400, workload=workload,
                          cc_mix={"prague": 0.4, "cubic": 0.6},
                          snr_mean_db=15.0, snr_stddev_db=6.0, activity=0.5,
                          churn_rate_per_s=20.0, mean_rate_mbps=0.5,
                          update_interval_s=0.01)
    population = BackgroundPopulation(sim, 0, cell, spec)
    for k in range(1, 4001):
        sim.now = k * cell.slot_duration
        population.on_slot((k * 7) % 60)
    sim.now += 0.003
    population.on_slot(13)
    population.finish()
    digest = hashlib.sha256()
    for array in (population.cwnd, population.backlog, population.active):
        digest.update(array.tobytes())
    assert (digest.hexdigest(), population.demand_count,
            population.arrival_bytes_total, population.served_bytes_total,
            population.active_ue_seconds,
            population.kernel_steps) == KERNEL_PINNED[workload]
