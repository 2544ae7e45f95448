#!/usr/bin/env python3
"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts with its neighbours' load, in
stretches lasting minutes: over 15 minutes of back-to-back
``coexist-pedestrian`` runs the median CPU time of half-minute windows
spread by 0.14 of its median, and ran 30 % slower in one stretch than in the
next.  A benchmark run cannot outlast that drift, so each run measures the
host's speed alongside the program and reports its timings at a fixed
reference speed.  In ten ``dense-cell`` invocations during such drift the
unscaled ``sim_s_per_cpu_s`` spread by 0.23 of its median and the scaled one
by 0.12.

The speed probe is :func:`kernel`: a fixed walk over a graph of plain
Python objects too large for the core's private caches, with attribute
updates, method calls and dict lookups, the interpreter work a simulator
step is made of.  It never touches the program, so it does the same work on
every commit.  Before each scenario run the benchmark has the probe run for
:data:`SHARE` of the previous run's time.  It then multiplies the run's CPU
times by ``REFERENCE_S / median probe CPU time`` and its wall times by
``REFERENCE_S / median probe wall time``.  A stretch that slows program and
probe by the same share leaves the scaled timings unchanged; a change in
the program still shows in full.

The probe runs in a child process of its own (:class:`Calibration`), so its
object graph adds nothing to the benchmark process's memory, to the shard
workers it forks or to ``peak_rss_mb``.  Run as a script, this file is that
child: it reads a number of seconds per line on stdin, probes for that long
and answers with one JSON list of ``[cpu_s, wall_s]`` samples per line.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Probe CPU seconds at the reference host speed: the probe's median on
#: the host the benchmark was defined on (2 cores of an Intel Xeon,
#: CPython 3.11.7).
REFERENCE_S = 0.12
#: Probe time taken before each scenario run, as a share of the previous
#: run's wall time.  One probe call is as noisy as a scenario run several
#: times longer, so the probe needs a good part of the run for its median
#: to add less noise than the drift it removes.
SHARE = 0.3
#: Objects in the probe's graph (about 50 MB of the child's memory).
GRAPH_NODES = 200_000
#: Steps of one probe call.
KERNEL_STEPS = 120_000
#: The probe's result, so a broken probe does not pass for a fast host.
KERNEL_CHECKSUM = 6_318_983_462


class _Node:
    __slots__ = ("key", "value", "next", "hits")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value
        self.next = None
        self.hits = 0

    def touch(self, step: int) -> int:
        self.hits += 1
        self.value = (self.value * 31 + step) & 0xFFFF
        return self.value


class _Graph:
    """The probe's fixed object graph: a random cycle through all nodes
    plus a dict from key to node."""

    def __init__(self) -> None:
        nodes = GRAPH_NODES
        rng = random.Random(3)
        self.nodes = [_Node(f"k{index}", index) for index in range(nodes)]
        order = list(range(nodes))
        rng.shuffle(order)
        for position, index in enumerate(order):
            self.nodes[index].next = self.nodes[order[(position + 1) % nodes]]
        self.table = {node.key: node for node in self.nodes}
        self.lookups = [self.nodes[rng.randrange(nodes)].key
                        for _ in range(50_000)]

    def reset(self) -> None:
        for index, node in enumerate(self.nodes):
            node.value = index
            node.hits = 0


def kernel(graph: _Graph) -> int:
    """One probe call: walk :data:`KERNEL_STEPS` nodes of the cycle,
    updating each and looking up every fourth key.  Returns a checksum."""
    node = graph.nodes[0]
    table, lookups = graph.table, graph.lookups
    total = 0
    for step in range(KERNEL_STEPS):
        total += node.touch(step)
        node = node.next
        if step & 3 == 0:
            total += table[lookups[step % len(lookups)]].value
    return total


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def probe(graph: _Graph, seconds: float) -> list:
    """Probe calls until they took ``seconds`` of CPU, at least one."""
    samples = []
    spent = 0.0
    while not samples or spent < seconds:
        graph.reset()
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        checksum = kernel(graph)
        wall1, cpu1 = time.perf_counter(), _cpu_s()
        if checksum != KERNEL_CHECKSUM:
            raise RuntimeError(f"calibration probe returned {checksum}, "
                               f"expected {KERNEL_CHECKSUM}")
        samples.append([cpu1 - cpu0, wall1 - wall0])
        spent += cpu1 - cpu0
    return samples


def serve() -> int:
    """The child's loop: seconds in, samples out, until stdin closes."""
    graph = _Graph()
    probe(graph, 0.0)  # warm-up
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(probe(graph, float(line))), flush=True)
    return 0


class Calibration:
    """Probe timings taken through one benchmark invocation, from a child
    process that lives as long as the ``with`` block."""

    def __init__(self) -> None:
        self.cpu_samples: list[float] = []
        self.wall_samples: list[float] = []
        self._child = None

    def __enter__(self) -> "Calibration":
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._child.stdout.readline().strip() != "ready":
            self.__exit__(None, None, None)
            raise RuntimeError("calibration probe failed to start")
        return self

    def __exit__(self, *exc) -> None:
        child, self._child = self._child, None
        if child is None:
            return
        child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()

    def sample(self, seconds: float) -> None:
        """Have the child probe for ``seconds`` of CPU, at least once."""
        self._child.stdin.write(f"{seconds}\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("calibration probe exited")
        for cpu_s, wall_s in json.loads(line):
            self.cpu_samples.append(cpu_s)
            self.wall_samples.append(wall_s)

    @property
    def cpu_scale(self) -> float:
        """Factor turning this host's CPU seconds into reference ones."""
        return REFERENCE_S / statistics.median(self.cpu_samples)

    @property
    def wall_scale(self) -> float:
        """Factor turning this host's wall seconds into reference ones."""
        return REFERENCE_S / statistics.median(self.wall_samples)


if __name__ == "__main__":
    sys.exit(serve())
