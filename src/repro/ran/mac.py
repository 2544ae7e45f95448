"""MAC scheduler: slot-by-slot allocation of cell resources to UEs.

Every slot (0.5 ms for the paper's 30 kHz numerology) the scheduler looks at
which UEs have backlogged RLC data, samples each one's channel, and divides
the cell's PRBs among them:

* **round robin (RR)** -- equal PRB shares for every backlogged UE;
* **proportional fair (PF)** -- shares proportional to
  ``instantaneous_rate / average_throughput``, which trades some short-term
  fairness for multi-user diversity gain.

The allocated PRBs are converted to transport-block bytes using the UE's
spectral efficiency and handed to the DU's per-UE ``pull`` callback, which
drains the RLC queues.  The paper's Fig. 10 evaluates L4Span under both
policies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro._numpy import np
from repro.channel.base import ChannelModel
from repro.ran.cell import CellConfig
from repro.ran.identifiers import UeId
from repro.registry import SCHEDULERS
from repro.sim.backends import EngineBackend
from repro.sim.engine import Simulator

#: Below these many backlogged UEs the scalar allocation loops beat the
#: numpy ones (array construction and ``tolist`` overhead are fixed costs
#: of several microseconds per slot).  Crossovers measured on the dev
#: container; tests force the vector paths by patching these down.
_VECTOR_MIN_UES_RR = 160
_VECTOR_MIN_UES_PF = 48

_INF = float("inf")


class SchedulerPolicy(enum.Enum):
    """Supported MAC scheduling policies."""

    ROUND_ROBIN = "rr"
    PROPORTIONAL_FAIR = "pf"


SCHEDULERS.add("rr", SchedulerPolicy.ROUND_ROBIN, "round_robin")
SCHEDULERS.add("pf", SchedulerPolicy.PROPORTIONAL_FAIR, "proportional_fair")


def resolve_scheduler(name) -> SchedulerPolicy:
    """Map a policy name (or a policy member) onto :class:`SchedulerPolicy`."""
    if isinstance(name, SchedulerPolicy):
        return name
    return SCHEDULERS.get(name)


@dataclass(slots=True)
class _UeSchedulingState:
    """Book-keeping the scheduler maintains for each attached UE."""

    ue_id: UeId
    channel: ChannelModel
    backlog_bytes: Callable[[], int]
    pull: Callable[[int], int]
    average_throughput: float = 1.0  # bytes/s, seeded > 0 to avoid div-by-zero
    served_bytes_total: int = 0
    scheduled_slots: int = 0
    #: Bytes served in the slot being processed (scratch for the EWMA pass).
    slot_served: int = 0


class MacScheduler:
    """The cell's downlink scheduler.

    Args:
        sim: simulator.
        cell: static cell configuration.
        policy: RR or PF.
        pf_time_constant: averaging horizon (seconds) of the PF throughput
            EWMA.
        start: when to start the slot clock (defaults to time zero).
        backend: engine backend; a vectorized backend moves the slot clock
            onto the simulator's timer wheel (batching consecutive slots
            off-heap), serves channels through a per-cell
            :class:`~repro.channel.blockcache.ChannelBlockCache` and takes
            numpy allocation paths for large UE counts.  None (or the
            ``python`` backend) keeps the classic heap-driven slot event.
            Both clocks collapse runs of slots that grant the foreground
            nothing into one firing (:meth:`_quiet_bulk`).
    """

    def __init__(self, sim: Simulator, cell: CellConfig,
                 policy: SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN,
                 pf_time_constant: float = 0.1,
                 start: Optional[float] = None,
                 backend: Optional[EngineBackend] = None) -> None:
        self._sim = sim
        self.cell = cell
        self.policy = policy
        self.pf_time_constant = pf_time_constant
        self._ues: dict[UeId, _UeSchedulingState] = {}
        #: Registration-ordered view of the states; the slot loop iterates
        #: this list instead of allocating a ``dict.values()`` view per slot.
        self._ue_states: list[_UeSchedulingState] = []
        #: Aggregated background population sharing the cell, or None.
        self._background = None
        self._rr_offset = 0
        self._quiet_active_count = 0
        self.slots = 0
        self.busy_slots = 0
        # Per-slot constants hoisted off the hot loop.
        self._slot_duration = cell.slot_duration
        self._decay = cell.slot_duration / pf_time_constant
        self._inv_slot_duration = 1.0 / cell.slot_duration
        self._round_robin = policy == SchedulerPolicy.ROUND_ROBIN
        self._vectorized = backend is not None and backend.vectorized
        start_at = start if start is not None else sim.now
        self._stopped = False
        # Both clocks consume one tie-break sequence number here, at
        # construction, so same-instant ordering against other events is
        # identical whichever clock drives the slots.
        if self._vectorized:
            from repro.channel.blockcache import ChannelBlockCache
            self._channel_cache = ChannelBlockCache(
                cell.slot_duration, block=backend.channel_block)
            self._pending = None
            self._timer = sim.add_slot_timer(
                cell.slot_duration, self._run_slot_batch, start_at=start_at)
        else:
            self._channel_cache = None
            self._timer = None
            self._pending = sim.schedule_at(max(start_at, sim.now),
                                            self._on_tick)

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #
    def register_ue(self, ue_id: UeId, channel: ChannelModel,
                    backlog_bytes: Callable[[], int],
                    pull: Callable[[int], int]) -> ChannelModel:
        """Attach a UE: the DU provides backlog and pull callbacks.

        Returns the channel the scheduler will actually query -- under a
        vectorized backend this is the block-cache view of ``channel``, and
        the caller should read link quality through it (not the raw model)
        so every consumer sees one consistent variate sequence.
        """
        if self._channel_cache is not None:
            channel = self._channel_cache.view(channel)
        state = _UeSchedulingState(
            ue_id=ue_id, channel=channel, backlog_bytes=backlog_bytes,
            pull=pull)
        previous = self._ues.get(ue_id)
        if previous is not None:
            self._ue_states[self._ue_states.index(previous)] = state
        else:
            self._ue_states.append(state)
        self._ues[ue_id] = state
        return channel

    def unregister_ue(self, ue_id: UeId) -> None:
        """Stop scheduling a UE (it detached or handed over away)."""
        state = self._ues.pop(ue_id, None)
        if state is not None:
            self._ue_states.remove(state)

    def attach_background(self, population) -> None:
        """Attach the cell's aggregated background population.

        The population (see :class:`repro.ran.background.BackgroundPopulation`)
        enters every slot as ``population.demand_count`` extra round-robin
        claimants; the PRBs not granted to foreground UEs are accumulated via
        ``population.on_slot`` and served by its next batched kernel step.
        """
        self._background = population

    @property
    def num_ues(self) -> int:
        """Number of attached UEs."""
        return len(self._ues)

    def stop(self) -> None:
        """Stop the slot clock (end of scenario)."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._timer is not None:
            self._timer.stop()

    # ------------------------------------------------------------------ #
    # Slot processing
    # ------------------------------------------------------------------ #
    def _on_tick(self) -> None:
        """Heap-clock slot tick: one event, then re-arm on the heap.

        With a background population attached, a predicted run of ticks
        that grant the foreground nothing (see :meth:`_quiet_run_length`)
        is done by this one event, up to the heap head and the run's
        ``until`` (``Simulator._batch_until``).  The re-arm comes after the
        slot body, consuming one tie-break sequence number the way a
        ``PeriodicProcess`` tick does, so events a slot schedules at
        precisely the next tick time still fire before that tick.
        """
        if self._background is None:
            self._on_slot()
        else:
            self._run_ticks(self._sim._batch_until, _INF)
        if not self._stopped:
            self._pending = self._sim.schedule(self._slot_duration,
                                               self._on_tick)

    def _run_slot_batch(self, barrier_time: float, barrier_seq) -> None:
        """Timer-wheel callback: run consecutive slot ticks up to a barrier.

        Mirrors :meth:`_on_tick` exactly -- the slot body runs first, then
        the re-arm consumes one tie-break sequence number.  The batch ends
        when the next tick's ``(time, seq)`` key would not be the globally
        next event: another wheel timer (the ``barrier_*`` arguments), the
        heap head (a cancelled head conservatively ends the batch too; the
        engine loop discards it and re-enters), the run window, or a
        ``stop()``.
        """
        sim = self._sim
        queue = sim.events
        heap = queue.heap
        timer = self._timer
        slot = self.cell.slot_duration
        while True:
            self._run_ticks(barrier_time, barrier_seq)
            # Each tick counts as one processed event, keeping event totals
            # identical to the heap-driven clock.
            sim._processed += 1
            seq = queue._next_seq
            queue._next_seq = seq + 1
            nxt = sim.now + slot
            timer.time = nxt
            timer.seq = seq
            if timer.stopped or not sim._running:
                return
            if nxt > barrier_time or (nxt == barrier_time
                                      and seq > barrier_seq):
                return
            if heap:
                head = heap[0]
                if head[0] < nxt or (head[0] == nxt and head[1] < seq):
                    return
            sim.now = nxt

    def _run_ticks(self, barrier_time: float, barrier_seq) -> None:
        """Run the tick due at ``sim.now`` and the quiet ticks that follow.

        Shared by both slot clocks.  A predicted run of zero-service ticks
        goes through :meth:`_quiet_bulk`; everything else is one exact
        :meth:`_on_slot`.  The prediction is recomputed at every tick the
        clock fires: heap events fire only between firings, so any state
        they change (RLC enqueues, attach/detach) naturally invalidates it.
        The caller then finishes the last tick run here (event count and
        re-arm) as it finishes any tick.
        """
        quiet = self._quiet_run_length()
        if quiet > 0:
            self._quiet_bulk(quiet, barrier_time, barrier_seq)
        else:
            self._on_slot()

    def _quiet_run_length(self) -> int:
        """Upcoming ticks guaranteed to grant zero foreground service.

        Inside one firing of either slot clock no heap events fire, so
        foreground backlogs can only change through the scheduler's own
        pulls -- a slot that grants nothing leaves the next slot's inputs
        untouched.  Under round robin with an oversubscribed background
        population (``base == 0``), which UEs receive the remainder PRBs is
        pure modular arithmetic over the rotation offset, so the run of
        grantless slots ahead is computable without executing them.
        :meth:`_quiet_bulk` then replays only the bookkeeping those slots
        would have done, in one pass.

        The run is capped at the population's next kernel-step boundary
        (``demand_count`` may change there) and is zero whenever any
        foreground UE would be granted, under proportional fair with
        backlogged UEs, or without a background population.
        """
        background = self._background
        if background is None:
            return 0
        boundary = (background._slots_per_step
                    - background._slot_count % background._slots_per_step)
        n_active = 0
        for state in self._ue_states:
            if state.backlog_bytes() > 0:
                n_active += 1
        self._quiet_active_count = n_active
        if n_active == 0:
            # The idle-foreground branch of _on_slot is policy-independent
            # and constant until the boundary refreshes demand_count.
            return boundary
        bg_demand = background.demand_count
        if not bg_demand or not self._round_robin:
            return 0
        total = n_active + bg_demand
        num_prb = self.cell.num_prb
        if num_prb // total > 0:
            return 0  # every backlogged UE gets PRBs every slot
        remainder = num_prb  # base == 0
        offset = self._rr_offset
        quiet = boundary
        for i in range(n_active):
            pos = (i + offset) % total
            if pos < remainder:
                return 0  # the very next slot grants this UE
            until_grant = total - pos  # wraps to 0, which is < remainder
            if until_grant < quiet:
                quiet = until_grant
        return quiet

    def _quiet_bulk(self, quiet: int, barrier_time: float,
                    barrier_seq) -> None:
        """Do up to ``quiet`` predicted zero-service ticks in one pass.

        Per-tick this replicates exactly the bookkeeping :meth:`_on_slot`
        performs on a slot whose grants are all zero -- slot/busy counters,
        the round-robin rotation, the background PRB hand-off (whole cell:
        foreground got nothing) and the PF throughput-EWMA decay -- and the
        batching collapses are all bit-exact:

        * the tick count that fits before the barrier/heap head is decided
          up front (quiet ticks push nothing onto the heap, so the head key
          is fixed for the whole run);
        * rotating the offset by ``count`` equals ``count`` single steps
          (modular arithmetic; ``demand_count`` is constant up to the
          kernel-step boundary the run is capped at);
        * the background PRB accumulator adds ``prbs * count`` -- all
          integer-valued floats, so repeated ``+= prbs`` sums identically;
        * the EWMA is ``count`` sequential multiplies, and ``keep < 1``
          means a clamped average stays clamped, so the decay loop may
          break early (``keep * average + 0.0 == keep * average``
          bit-exactly, matching both the served- and idle-loop forms).

        The clock and counters end as after ``count - 1`` ticks and their
        re-arms plus the body of the last tick: ``sim.now`` is the last
        tick's time, and the caller does that tick's event count and
        re-arm, exactly as for a tick run by :meth:`_on_slot`.
        """
        sim = self._sim
        queue = sim.events
        heap = queue.heap
        slot = self.cell.slot_duration
        if heap:
            head = heap[0]
            head_time = head[0]
            head_seq = head[1]
        else:
            head_time = None
            head_seq = 0
        seq0 = queue._next_seq
        t = sim.now
        count = 1  # the tick at sim.now is due unconditionally
        while count < quiet:
            # Re-arm check of tick ``count``: would tick ``count + 1`` at
            # ``nxt`` with sequence ``seq`` still be the globally next
            # event?  Identical comparisons to the per-tick loop.
            nxt = t + slot
            seq = seq0 + count - 1
            if nxt > barrier_time or (nxt == barrier_time
                                      and seq > barrier_seq):
                break
            if head_time is not None and (
                    head_time < nxt or (head_time == nxt and head_seq < seq)):
                break
            t = nxt
            count += 1
        sim.now = t
        sim._processed += count - 1
        queue._next_seq = seq0 + count - 1
        background = self._background
        bg_demand = background.demand_count
        self.slots += count
        if self._quiet_active_count:
            self.busy_slots += count
            total = self._quiet_active_count + bg_demand
            self._rr_offset = (self._rr_offset + count) % total
            prbs = self.cell.num_prb
        elif bg_demand:
            self.busy_slots += count
            prbs = self.cell.num_prb
        else:
            prbs = 0
        if prbs:
            background._pending_prb_slots += prbs * count
        background._slot_count += count
        if background._slot_count % background._slots_per_step == 0:
            # ``quiet <= boundary`` caps the run, so the only possible
            # kernel step is at the final tick, whose time is ``t``.
            background._step(t)
        keep = 1.0 - self._decay
        for state in self._ue_states:
            average = state.average_throughput
            for _ in range(count):
                average = keep * average
                if average <= 1.0:
                    average = 1.0  # keep < 1: stays clamped from here on
                    break
            state.average_throughput = average

    def _on_slot(self) -> None:
        """One TTI: sample channels, allocate PRBs, drain RLC queues.

        This fires at the slot rate (2 kHz for 30 kHz SCS) for every cell, so
        the loop avoids per-slot dict building where it can: the common
        single-backlogged-UE case takes a direct path, and the PF throughput
        EWMA reads a scratch field instead of a per-slot ``served`` dict.
        """
        self.slots += 1
        now = self._sim.now
        states = self._ue_states
        active = [state for state in states if state.backlog_bytes() > 0]
        decay = self._decay
        keep = 1.0 - decay
        background = self._background
        bg_demand = background.demand_count if background is not None else 0
        if not active:
            if background is not None:
                # The background aggregate owns the whole cell this slot.
                if bg_demand:
                    self.busy_slots += 1
                    background.on_slot(self.cell.num_prb)
                else:
                    background.on_slot(0)
            for state in states:
                average = state.average_throughput * keep
                state.average_throughput = average if average > 1.0 else 1.0
            return
        self.busy_slots += 1
        cell = self.cell
        if bg_demand:
            self._serve_with_background(active, bg_demand, now)
        elif len(active) == 1:
            # Fast path: one backlogged UE owns the whole cell this slot.
            # Mirrors the generic policies exactly: RR (and PF's zero-weight
            # fallback to RR) resets the rotation offset, ``(x + 1) % 1 == 0``.
            state = active[0]
            grant = cell.slot_capacity_bytes(state.channel.efficiency(now))
            if self._round_robin or grant <= 0:
                self._rr_offset = 0
            used = state.pull(grant) if grant > 0 else 0
            state.served_bytes_total += used
            state.scheduled_slots += 1
            state.slot_served = used
        else:
            efficiencies = {s.ue_id: s.channel.efficiency(now)
                            for s in active}
            allocations = self._allocate_prbs(active, efficiencies)
            for state in active:
                prbs = allocations.get(state.ue_id, 0)
                if prbs <= 0:
                    continue
                grant = cell.slot_capacity_bytes(
                    efficiencies[state.ue_id], num_prb=prbs)
                used = state.pull(grant) if grant > 0 else 0
                state.served_bytes_total += used
                state.scheduled_slots += 1
                state.slot_served = used
        if background is not None and not bg_demand:
            # Keep the kernel's batch clock ticking even in idle slots.
            background.on_slot(0)
        inv_slot = self._inv_slot_duration
        for state in states:
            average = (keep * state.average_throughput
                       + decay * (state.slot_served * inv_slot))
            state.average_throughput = average if average > 1.0 else 1.0
            state.slot_served = 0

    def _serve_with_background(self, active: list[_UeSchedulingState],
                               bg_demand: int, now: float) -> None:
        """Split the slot between foreground UEs and the background aggregate.

        Round robin treats the population as ``bg_demand`` extra equal-share
        claimants rotating through the same remainder offset as the
        foreground UEs.  Proportional fair first carves out the background's
        equal aggregate share, then runs PF over the remaining budget.
        """
        cell = self.cell
        num_prb = cell.num_prb
        total_claimants = len(active) + bg_demand
        if self._round_robin:
            base = num_prb // total_claimants
            remainder = num_prb - base * total_claimants
            offset = self._rr_offset
            fg_prbs = 0
            ordered = active if len(active) == 1 \
                else sorted(active, key=lambda s: s.ue_id)
            if self._vectorized and len(ordered) >= _VECTOR_MIN_UES_RR:
                # Pure integer arithmetic: identical to the per-index
                # modcheck in the else-branch, one vector op instead of n.
                grants = (base + ((np.arange(len(ordered)) + offset)
                                  % total_claimants < remainder)).tolist()
            else:
                grants = None
            for index, state in enumerate(ordered):
                if grants is not None:
                    prbs = grants[index]
                else:
                    extra = 1 if ((index + offset) % total_claimants
                                  < remainder) else 0
                    prbs = base + extra
                if prbs <= 0:
                    continue
                fg_prbs += prbs
                grant = cell.slot_capacity_bytes(
                    state.channel.efficiency(now), num_prb=prbs)
                used = state.pull(grant) if grant > 0 else 0
                state.served_bytes_total += used
                state.scheduled_slots += 1
                state.slot_served = used
            self._rr_offset = (offset + 1) % total_claimants
            self._background.on_slot(num_prb - fg_prbs)
            return
        bg_prbs = (num_prb * bg_demand) // total_claimants
        fg_budget = num_prb - bg_prbs
        efficiencies = {s.ue_id: s.channel.efficiency(now) for s in active}
        allocations = self._allocate_proportional_fair(
            active, efficiencies, total_prb=fg_budget)
        for state in active:
            prbs = allocations.get(state.ue_id, 0)
            if prbs <= 0:
                continue
            grant = cell.slot_capacity_bytes(
                efficiencies[state.ue_id], num_prb=prbs)
            used = state.pull(grant) if grant > 0 else 0
            state.served_bytes_total += used
            state.scheduled_slots += 1
            state.slot_served = used
        self._background.on_slot(bg_prbs)

    # ------------------------------------------------------------------ #
    # PRB allocation policies
    # ------------------------------------------------------------------ #
    def _allocate_prbs(self, active: list[_UeSchedulingState],
                       efficiencies: dict[UeId, float]) -> dict[UeId, int]:
        if self.policy == SchedulerPolicy.ROUND_ROBIN:
            return self._allocate_round_robin(active)
        return self._allocate_proportional_fair(active, efficiencies)

    def _allocate_round_robin(
            self, active: list[_UeSchedulingState],
            total_prb: Optional[int] = None) -> dict[UeId, int]:
        total = self.cell.num_prb if total_prb is None else total_prb
        n = len(active)
        base = total // n
        remainder = total - base * n
        allocations: dict[UeId, int] = {}
        ordered = sorted(active, key=lambda s: s.ue_id)
        if self._vectorized and n >= _VECTOR_MIN_UES_RR:
            # Pure integer arithmetic, so the numpy path is trivially equal
            # to the scalar loop below.
            prbs = (base + ((np.arange(n) + self._rr_offset) % n
                            < remainder)).tolist()
            for index, state in enumerate(ordered):
                allocations[state.ue_id] = prbs[index]
        else:
            for index, state in enumerate(ordered):
                extra = 1 if (index + self._rr_offset) % n < remainder else 0
                allocations[state.ue_id] = base + extra
        self._rr_offset = (self._rr_offset + 1) % max(1, n)
        return allocations

    def _allocate_proportional_fair(
            self, active: list[_UeSchedulingState],
            efficiencies: dict[UeId, float],
            total_prb: Optional[int] = None) -> dict[UeId, int]:
        budget = self.cell.num_prb if total_prb is None else total_prb
        weights: dict[UeId, float] = {}
        if self._vectorized and len(active) >= _VECTOR_MIN_UES_PF:
            weights = self._pf_weights_vector(active, efficiencies)
        else:
            for state in active:
                instantaneous = self.cell.slot_capacity_bytes(
                    efficiencies[state.ue_id]) / self.cell.slot_duration
                weights[state.ue_id] = instantaneous / state.average_throughput
        # Builtin sum over insertion order -- np.sum's pairwise reduction
        # would round differently and break cross-backend bit-identity.
        total_weight = sum(weights.values())
        if total_weight <= 0:
            return self._allocate_round_robin(active, total_prb=total_prb)
        allocations: dict[UeId, int] = {}
        assigned = 0
        ordered = sorted(active, key=lambda s: -weights[s.ue_id])
        for state in ordered:
            share = int(round(budget * weights[state.ue_id]
                              / total_weight))
            share = min(share, budget - assigned)
            allocations[state.ue_id] = share
            assigned += share
        leftover = budget - assigned
        if leftover > 0 and ordered:
            allocations[ordered[0].ue_id] += leftover
        return allocations

    def _pf_weights_vector(self, active: list[_UeSchedulingState],
                           efficiencies: dict[UeId, float]
                           ) -> dict[UeId, float]:
        """Numpy PF weights, bit-identical to the scalar loop.

        Every operation replicates the scalar evaluation order of
        ``CellConfig.bytes_per_prb`` / ``slot_capacity_bytes`` elementwise
        (same doubles in, same doubles out), and the int truncation matches
        ``int()`` for the non-negative capacities involved.
        """
        cell = self.cell
        effs = np.array([efficiencies[state.ue_id] for state in active])
        averages = np.array([state.average_throughput for state in active])
        usable_re = cell.RE_PER_PRB_PER_SLOT * (1.0 - cell.overhead)
        bits = (usable_re * effs) * cell.efficiency_backoff
        bytes_per_prb = (bits * cell.tdd_dl_fraction) / 8.0
        capacities = (cell.num_prb * bytes_per_prb).astype(np.int64)
        instantaneous = capacities / cell.slot_duration
        values = (instantaneous / averages).tolist()
        return {state.ue_id: values[index]
                for index, state in enumerate(active)}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def throughput_report(self) -> dict[UeId, float]:
        """Average served rate (bytes/s) per UE since the start of the run."""
        elapsed = max(self._sim.now, self.cell.slot_duration)
        return {ue_id: state.served_bytes_total / elapsed
                for ue_id, state in self._ues.items()}
