"""Vectorized background-UE population: dense cells without per-UE events.

The north star is heavy traffic from very large user populations, but one
Python object graph per UE (channel, RLC, F1-U, CC state machine) tops out at
a handful of UEs per cell.  This module implements the hybrid approach: a few
*foreground* UEs are simulated exactly, packet by packet, while the other
``n_background`` UEs of the cell live in one :class:`BackgroundPopulation` --
contiguous numpy arrays of per-UE cwnd/backlog/SNR/rate advanced in batched
steps synchronized with the MAC slot loop.

Coupling into the exact simulation is deliberately narrow:

* **Scheduler contention.**  Every slot the MAC asks the population for its
  aggregate demand (an O(1) cached count) and treats it as that many extra
  round-robin claimants: foreground UEs receive proportionally fewer PRBs and
  the background's share is accumulated (O(1)) for the next batched step.
* **Marking/egress.**  Reduced foreground MAC service slows the RLC drain,
  which the F1-U delivery reports carry into the per-bearer egress-rate
  estimates and sojourn predictions that DualPI2/L4Span mark from -- so
  foreground flows see realistic congestion signals without the population
  injecting per-packet traffic.  Markers that implement
  ``on_background_aggregate`` additionally receive the population's batched
  arrival/served byte counters for cell-level telemetry.

Everything random is drawn from the single per-cell named stream
``background-cell{cell_id}``, so a population is bit-identical across repeat
runs and across ``--shards 1/2`` splits (shard simulations reuse the master
seed, and the population is cell-local state).
"""

from __future__ import annotations

from typing import Optional

from repro._numpy import np, require_numpy
from repro.cc.factory import is_l4s_algorithm
from repro.ran.cell import CellConfig

#: Sender MSS used by the window dynamics, bytes.
BACKGROUND_MSS = 1500
#: Initial congestion window (RFC 6928's 10 segments), bytes.
BACKGROUND_INITIAL_CWND = 10 * BACKGROUND_MSS
#: Window growth/backoff happens against this nominal end-to-end RTT.
BACKGROUND_NOMINAL_RTT = 0.05
#: Upper bound on a background sender's window, bytes.
BACKGROUND_CWND_CAP = 4 * 1024 * 1024
#: Multiplicative-decrease factors per response class.
BETA_CLASSIC = 0.7
BETA_L4S = 0.85


def _require_numpy() -> None:
    """Guard for the kernel via the shared :mod:`repro._numpy` helper.

    Pure-python scenarios (``population.n_background == 0``) never reach
    this; only building an actual population needs the vectorized kernel.
    """
    require_numpy(
        "the background-population kernel",
        hint="alternatively set population.n_background = 0 to run "
             "the scenario without aggregated background UEs")


class BackgroundPopulation:
    """All background UEs of one cell, as contiguous numpy state arrays.

    The MAC calls :meth:`on_slot` once per slot with the PRBs granted to the
    background aggregate; every ``update_interval_s`` worth of slots the
    kernel advances the whole population in one vectorized step: churn flips,
    new arrivals into the per-UE backlogs, service of the accumulated PRB
    budget, and an AIMD window update (classic beta 0.7, L4S beta 0.85,
    mixed per ``cc_mix``).
    """

    def __init__(self, sim, cell_id: int, cell: CellConfig, spec,
                 marker: Optional[object] = None) -> None:
        _require_numpy()
        spec.validate()
        self.sim = sim
        self.cell_id = cell_id
        self.cell = cell
        self.spec = spec
        self.n = int(spec.n_background)
        self._rng = sim.random.stream(f"background-cell{cell_id}")
        self._marker_hook = getattr(marker, "on_background_aggregate", None)

        rng = self._rng
        if spec.snr_stddev_db > 0:
            self.snr_db = rng.normal(spec.snr_mean_db, spec.snr_stddev_db,
                                     size=self.n)
        else:
            self.snr_db = np.full(self.n, float(spec.snr_mean_db))
        # Late import: repro.channel.mcs is numpy-typed; keep this module
        # importable (for require_numpy's message) even without numpy.
        from repro.channel.mcs import efficiency_from_snr_array
        self.efficiency = efficiency_from_snr_array(self.snr_db)
        self.bytes_per_prb = cell.bytes_per_prb(1.0) * self.efficiency

        self.active = rng.random(self.n) < spec.activity
        self.cwnd = np.full(self.n, float(BACKGROUND_INITIAL_CWND))
        self.backlog = np.zeros(self.n)
        self.beta = self._beta_array(spec.cc_mix)
        if spec.workload == "rate":
            # Exponentially distributed offered rates around the mean keep a
            # heavy-ish tail without extra spec knobs.
            mean_bytes = spec.mean_rate_mbps * 1e6 / 8.0
            self.offered_rate = rng.exponential(mean_bytes, size=self.n)
        else:
            self.offered_rate = None
            # Bulk senders start with a full window queued in the RAN.
            self.backlog[self.active] = self.cwnd[self.active]

        # Scratch arrays reused by every kernel step (no per-step
        # temporaries on the hot path).
        self._room = np.empty(self.n)
        self._scratch = np.empty(self.n)
        self._served = np.empty(self.n)
        self._demand = np.empty(self.n, dtype=bool)
        self._mask = np.empty(self.n, dtype=bool)
        self._relieved = np.empty(self.n, dtype=bool)

        # Batched-step bookkeeping.
        slot = cell.slot_duration
        self._slots_per_step = max(1, round(spec.update_interval_s / slot))
        self._slot_count = 0
        self._pending_prb_slots = 0.0
        self._last_step_time = float(sim.now)
        self._finished = False

        # Aggregate telemetry (all additive across cells/shards).
        self.arrival_bytes_total = 0.0
        self.served_bytes_total = 0.0
        self.active_ue_seconds = 0.0
        self.kernel_steps = 0

        #: O(1) view the MAC reads every slot: number of background UEs
        #: currently demanding air time (refreshed at each batched step).
        self.demand_count = int(np.count_nonzero(
            self.active & (self.backlog > 0))) if self.n else 0

    # ------------------------------------------------------------------ #
    # MAC-facing hot path (called once per slot; must stay O(1))
    # ------------------------------------------------------------------ #
    def on_slot(self, served_prbs: int) -> None:
        """Account one MAC slot; advance the kernel on batch boundaries."""
        if served_prbs:
            self._pending_prb_slots += served_prbs
        self._slot_count += 1
        if self._slot_count % self._slots_per_step == 0:
            self._step(self.sim.now)

    # ------------------------------------------------------------------ #
    # Batched vectorized step
    # ------------------------------------------------------------------ #
    def _step(self, now: float) -> None:
        dt = now - self._last_step_time
        self._last_step_time = now
        if dt <= 0:
            return
        spec = self.spec
        rng = self._rng
        active = self.active
        backlog = self.backlog
        cwnd = self.cwnd

        # Arrival/departure churn: Poisson flips, uniformly across the
        # population.  A flip resets the UE's transport state.
        if spec.churn_rate_per_s > 0:
            flips = int(rng.poisson(spec.churn_rate_per_s * dt))
            if flips:
                idx = rng.integers(0, self.n, size=flips)
                active[idx] = ~active[idx]
                backlog[idx] = 0.0
                cwnd[idx] = float(BACKGROUND_INITIAL_CWND)

        # New arrivals into the RAN backlogs.  Bulk senders keep a full
        # window outstanding; rate senders offer rate*dt, still window-capped.
        # Every masked quantity below is finite and >= 0, so multiplying by
        # a bool mask gives exactly ``np.where(mask, x, 0.0)``.
        arrivals = self._room
        scratch = self._scratch
        # ``ndarray.sum`` without its Python wrapper: the same reduction.
        total = np.add.reduce
        np.subtract(cwnd, backlog, out=arrivals)
        np.maximum(arrivals, 0.0, out=arrivals)
        if self.offered_rate is not None:
            np.multiply(self.offered_rate, dt, out=scratch)
            np.minimum(scratch, arrivals, out=arrivals)
        np.multiply(arrivals, active, out=arrivals)
        backlog += arrivals
        arrival_bytes = float(total(arrivals))
        self.arrival_bytes_total += arrival_bytes

        # Serve the PRB budget the MAC granted over this interval: equal
        # PRB shares across demanding UEs (round-robin in expectation), each
        # converted through its own SNR-derived bytes-per-PRB; one
        # redistribution pass hands leftovers of drained UEs to the rest.
        demand = self._demand
        np.greater(backlog, 0, out=demand)
        np.logical_and(active, demand, out=demand)
        demanding = int(np.count_nonzero(demand))
        step_served = 0.0
        if demanding and self._pending_prb_slots > 0:
            capacity = self._room
            np.multiply(self.bytes_per_prb,
                        self._pending_prb_slots / demanding, out=capacity)
            np.multiply(capacity, demand, out=capacity)
            served = self._served
            np.minimum(backlog, capacity, out=served)
            np.subtract(capacity, served, out=scratch)
            leftover = float(total(scratch))
            still = self._mask
            np.greater(backlog, served, out=still)
            np.logical_and(demand, still, out=still)
            still_count = int(np.count_nonzero(still))
            if leftover > 0 and still_count:
                np.multiply(still, leftover / still_count, out=scratch)
                np.subtract(backlog, served, out=capacity)
                np.minimum(capacity, scratch, out=capacity)
                served += capacity
            backlog -= served
            step_served = float(total(served))
            self.served_bytes_total += step_served
            congested = self._mask
            np.multiply(cwnd, 0.5, out=scratch)
            np.greater(backlog, scratch, out=congested)
            np.logical_and(demand, congested, out=congested)
        else:
            congested = demand
        self._pending_prb_slots = 0.0

        # AIMD window update: senders that kept more than half a window
        # queued back off (their class beta); the rest grow additively.
        # Masked in-place ufuncs compute the same elementwise values as
        # boolean fancy indexing without the gather/scatter copies, and
        # maximum-then-minimum is ``np.clip`` without its Python wrapper.
        relieved = self._relieved
        np.logical_not(congested, out=relieved)
        np.logical_and(active, relieved, out=relieved)
        np.multiply(cwnd, self.beta, out=cwnd, where=congested)
        np.add(cwnd, BACKGROUND_MSS * (dt / BACKGROUND_NOMINAL_RTT),
               out=cwnd, where=relieved)
        np.maximum(cwnd, BACKGROUND_MSS, out=cwnd)
        np.minimum(cwnd, BACKGROUND_CWND_CAP, out=cwnd)

        active_count = int(np.count_nonzero(active))
        self.active_ue_seconds += float(active_count) * dt
        self.kernel_steps += 1
        if self.offered_rate is None:
            # Bulk UEs refill next step; an active bulk sender always demands.
            self.demand_count = active_count
        else:
            np.greater(backlog, 0, out=demand)
            np.logical_and(active, demand, out=demand)
            self.demand_count = int(np.count_nonzero(demand))
        if self._marker_hook is not None:
            self._marker_hook(arrival_bytes=arrival_bytes,
                              served_bytes=step_served,
                              backlog_bytes=float(total(backlog)),
                              now=now)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def finish(self) -> None:
        """Run a final partial step so trailing service is accounted."""
        if self._finished:
            return
        self._finished = True
        if self._pending_prb_slots > 0:
            self._step(self.sim.now)

    def summary(self) -> dict:
        """Additive aggregate counters for this cell's population."""
        self.finish()
        return {
            "n_background": self.n,
            "arrival_bytes": self.arrival_bytes_total,
            "served_bytes": self.served_bytes_total,
            "backlog_bytes": float(self.backlog.sum()) if self.n else 0.0,
            "active_ue_seconds": self.active_ue_seconds,
            "kernel_steps": self.kernel_steps,
        }

    # ------------------------------------------------------------------ #
    def _beta_array(self, cc_mix: dict) -> "np.ndarray":
        """Per-UE multiplicative-decrease factor from the CC mix.

        The population is partitioned deterministically (by index, largest
        remainder) across the mix entries in sorted-name order, so the class
        assignment never consumes random variates.
        """
        beta = np.full(self.n, BETA_CLASSIC)
        if not cc_mix or not self.n:
            return beta
        total = sum(cc_mix.values())
        start = 0
        names = sorted(cc_mix)
        counts = [int(self.n * cc_mix[name] / total) for name in names]
        for i in range(self.n - sum(counts)):
            counts[i % len(counts)] += 1
        for name, count in zip(names, counts):
            if is_l4s_algorithm(name):
                beta[start:start + count] = BETA_L4S
            start += count
        return beta


def merge_background_summaries(summaries: list) -> dict:
    """Sum per-cell population summaries into one scenario-level dict."""
    merged: dict = {}
    for summary in summaries:
        if not summary:
            continue
        for key, value in summary.items():
            merged[key] = merged.get(key, 0) + value
    return merged
