"""The benchmark's named scenario workloads.

A workload is a batch of scenario specs generated from the benchmark seed
and handed to the program through ``repro.api``; nothing else about the
benchmark reaches the program.  The batch holds the same scenario under
``batch`` different scenario seeds (``seed + 1000 * i``), because one
scenario's outcome depends on its seed: on ``coexist-pedestrian`` about one
seed in three lets the classic flow build a standing queue, and a
single-seed workload would swing every metric with the seed; the more
seeds a batch holds, the less its total work differs between benchmark
seeds (on ``coexist-pedestrian``, its event count spread by 0.06 of its
median over ten seeds with 12 scenarios each).  Durations are
sized so that every scenario delivers at least :data:`MIN_TAIL_PKTS` packets
after the spec's 0.5 s warm-up, which is what ``owd_p99_ms`` needs to have
ten samples beyond it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

#: Packets after warm-up a run must deliver: the 99th percentile then has at
#: least ten samples beyond it.
MIN_TAIL_PKTS = 1000

#: The seed the benchmark uses when none is given.
DEFAULT_SEED = 7
#: The held-out seed: a later claim is re-checked on it after being tuned on
#: the default seed.
HELD_OUT_SEED = 1009


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its spec and how to run it."""

    name: str
    why: str
    #: Simulated seconds of one scenario.
    duration_s: float
    #: Scenario seeds per batch.
    batch: int
    #: Shard worker processes (1 = the single event loop).
    shards: int = 1

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    def spec_dicts(self, seed: int, duration_s: Optional[float] = None,
                   batch: Optional[int] = None) -> list[dict]:
        """The generated input: spec dicts for ``repro.api.load_spec``."""
        spec = _BASE_SPECS[self.name]()
        duration = self.duration_s if duration_s is None else duration_s
        return [dataclasses.replace(spec, seed=seed + 1000 * index,
                                    duration_s=duration).to_dict()
                for index in range(self.batch if batch is None else batch)]


def _coexist_pedestrian():
    from repro.experiments.spec import ScenarioSpec
    from repro.workloads.flows import FlowSpec
    return ScenarioSpec(
        name="coexist-pedestrian", num_ues=2, channel_profile="pedestrian",
        marker="l4span",
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague", label="l4s"),
               FlowSpec(flow_id=1, ue_id=1, cc_name="cubic",
                        label="classic")])


def _preset(name: str):
    def build():
        from repro.api import make_preset
        return make_preset(name)
    return build


_BASE_SPECS = {
    "coexist-pedestrian": _coexist_pedestrian,
    "dense-cell": _preset("dense-cell"),
    "coupled-core-sharded": _preset("coupled-core"),
    "eight-cell-sharded": _preset("eight-cell"),
}

#: The benchmark's workloads, as ``BENCHMARK.json`` names them.
WORKLOADS = {w.name: w for w in (
    Workload("coexist-pedestrian",
             "Paper headline: L4S Prague and classic CUBIC share a fading "
             "cell under L4Span; packet-bound, so per-packet changes show "
             "here.",
             duration_s=1.5, batch=16),
    Workload("dense-cell",
             "Slot-bound: 2 Prague UEs plus 1000 aggregated background UEs; "
             "MAC and background kernel dominate. Bypass case for per-packet "
             "changes.",
             duration_s=50.0, batch=6),
    Workload("eight-cell-sharded",
             "Boundary-free split where sharding pays: 8 static cells on 2 "
             "shards in one window; guards the winning sharded case.",
             duration_s=1.0, batch=6, shards=2),
)}

#: Workloads that run by name but are not in ``BENCHMARK.json``.  The
#: barrier-bound coupled-core run pays a pipe round trip between three
#: processes on two cores for each of ~2,400 windows per simulated second.
#: Its wall and CPU time then follow the host's scheduling latency: one
#: scenario took 3.3 s and, an hour later, 7.7 s of wall time, and five
#: seeds spread by 0.33 (wall) and 0.18 (CPU) of their median, beyond any
#: bound.
HELD_BACK = {w.name: w for w in (
    Workload("coupled-core-sharded",
             "Barrier-bound: 4 cells behind one shared AQM middlebox with an "
             "SNR handover, run on 2 shards; thousands of barrier windows.",
             duration_s=1.5, batch=5, shards=2),
)}
