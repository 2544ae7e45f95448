#!/usr/bin/env python3
"""Fast self-check of the benchmark (about a minute on two cores).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` names exactly the workloads and metrics the
benchmark measures and that the host-speed probe gives its fixed checksum,
runs every workload once untraced and once traced at tiny durations
(printing every metric with its unit), and feeds the output check documents
it must reject.  Exits 1 on the first failure.  The file is
not named ``test_*`` so that the repository's pytest run does not collect
it.
"""

from __future__ import annotations

import copy
import json
import sys

import calibrate
import run as bench
from layertrace import LayerTrace
from workloads import WORKLOADS

#: Tiny simulated durations, just past the 0.5 s warm-up.
TINY_DURATION_S = {
    "coexist-pedestrian": 0.7,
    "dense-cell": 3.0,
    "coupled-core-sharded": 0.7,
    "eight-cell-sharded": 0.6,
}


def expect(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def check_manifest() -> None:
    manifest = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())
    expect({w["name"]: w["why"] for w in manifest["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json workloads differ from workloads.py")
    expect({m["name"]: m["unit"] for m in manifest["end_to_end"]}
           == bench.END_TO_END, "BENCHMARK.json end-to-end metrics differ")
    expect({m["name"]: m["unit"] for m in manifest["per_layer"]}
           == bench.PER_LAYER, "BENCHMARK.json per-layer metrics differ")


def check_workloads() -> None:
    for name, duration in TINY_DURATION_S.items():
        for trace in (False, True):
            result = bench.measure(name, seed=7, seconds=0, trace=trace,
                                   duration_s=duration, batch=2, min_pkts=1)
            expect(result is not None and result["correct"],
                   f"{name} (trace={trace}) failed")
            units = bench.PER_LAYER if trace else bench.END_TO_END
            expect(set(result["metrics"]) == set(units),
                   f"{name} (trace={trace}) reported other metrics")


def check_calibration() -> None:
    with calibrate.Calibration() as calibration:
        calibration.sample(0.0)
        calibration.sample(0.3)
    expect(len(calibration.cpu_samples) >= 3
           and calibration.cpu_scale > 0 and calibration.wall_scale > 0,
           "calibration probe gave no usable samples")
    graph = calibrate._Graph()
    expect(calibrate.kernel(graph) == calibrate.KERNEL_CHECKSUM,
           "calibration probe checksum changed")


def check_output_check() -> None:
    spec = WORKLOADS["coexist-pedestrian"].spec_dicts(
        7, TINY_DURATION_S["coexist-pedestrian"], 1)[0]
    good = bench.run_once(spec, shards=1)
    expect(bench.check_run(good, good, min_pkts=1) == [],
           "output check rejected a repeat of the same run")

    def tampered(edit):
        document = copy.deepcopy(good.document)
        edit(document)
        return bench.Run(document=document,
                         digest=bench.document_digest(document),
                         owd_samples=good.owd_samples, wall_s=good.wall_s,
                         cpu_s=good.cpu_s, worker_cpu_s=0.0)

    def newer_schema(document):
        document["schema_version"] = 99

    def no_goodput(document):
        for flow in document["flows"]:
            flow["goodput_mbps"] = 0.0

    def other_marks(document):
        document["marker_summary"]["marked_packets"] += 1

    def other_breakdown(document):
        key = next(iter(document["delay_breakdown"]))
        document["delay_breakdown"][key] *= 1.001

    for edit in (newer_schema, no_goodput, other_marks, other_breakdown):
        expect(bench.check_run(tampered(edit), good, min_pkts=1),
               f"output check accepted {edit.__name__}")
    expect(bench.check_run(good, good, min_pkts=10 ** 9),
           "output check accepted too few packets for owd_p99_ms")
    result = bench.measure("coexist-pedestrian", seed=7, seconds=0,
                           trace=False, batch=1, min_pkts=10 ** 9,
                           duration_s=TINY_DURATION_S["coexist-pedestrian"])
    expect(not result["correct"]
           and result["failed"] == result["attempted"],
           "runs failing the output check were not counted as failed")

    traced = bench.run_once(spec, shards=1, trace=LayerTrace())
    expect(bench.check_trace(traced) == [], "trace accounting broken")
    expect(traced.digest == good.digest, "tracing changed the result")
    traced.trace.self_s["cc"] += traced.wall_s
    expect(bench.check_trace(traced), "trace check accepted a bad sum")


def main() -> int:
    for check in (check_manifest, check_calibration, check_output_check,
                  check_workloads):
        try:
            check()
        except AssertionError as exc:
            print(f"selfcheck FAILED in {check.__name__}: {exc}")
            return 1
        print(f"selfcheck ok: {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
