"""Outside-in per-layer tracing of one scenario run.

A layer is a group of ``repro`` modules.  :class:`LayerTrace` wraps the
public entry points of each layer, from outside the program, for the
duration of a ``with`` block: every call opens a span, and a layer's self
time is its spans' time minus the time covered by their child spans.
Event callbacks are attributed to the layer of the module that owns the
callback, by wrapping ``Simulator.schedule``, ``schedule_at`` and
``call_soon`` (and the slot-timer wheel); the event loop itself is the
``sim`` span around ``Simulator.run``.

Wrapping changes neither which events are scheduled nor their sequence
numbers, so a traced run must produce the same result document as an
untraced one; the benchmark checks that.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

#: Module prefix -> layer.  The longest matching prefix wins.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.aqm": "net",
    "repro.ran.core": "ran.core",
    "repro.core": "core",
    "repro.ran.marker": "core",
    "repro.ran.gnb": "ran.cu",
    "repro.ran.cu": "ran.cu",
    "repro.ran.pdcp": "ran.cu",
    "repro.ran.sdap": "ran.cu",
    "repro.ran.f1u": "ran.cu",
    "repro.ran.du": "ran.rlc",
    "repro.ran.rlc": "ran.rlc",
    "repro.ran.mac": "ran.mac",
    "repro.ran.background": "ran.background",
    "repro.ran.phy": "ran.phy",
    "repro.ran.ue": "ran.ue",
    "repro.ran.mobility": "ran.mobility",
    "repro.channel": "channel",
    "repro.cc": "cc",
    "repro.workloads": "cc",
    "repro.metrics": "metrics",
    "repro.experiments.sharded": "sharded",
}

#: Every layer a trace reports self time for, outermost first.
LAYERS = ("sim", "net", "ran.core", "core", "ran.cu", "ran.rlc", "ran.mac",
          "ran.background", "ran.phy", "ran.ue", "channel", "cc",
          "ran.mobility", "metrics")

#: Named entry points: (module, class, method, layer, call counter).
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", "run", "sim", None),
    ("repro.net.pipe", "DelayPipe", "receive", "net", "net.pkts"),
    ("repro.net.pipe", "VariableDelayPipe", "receive", "net", "net.pkts"),
    ("repro.net.link", "Link", "receive", "net", "net.pkts"),
    ("repro.net.router", "BottleneckRouter", "receive", "net", "net.pkts"),
    ("repro.ran.core", "FiveGCore", "receive", "ran.core", "ran.core.pkts"),
    ("repro.ran.core", "FiveGCore", "receive_uplink", "ran.core",
     "ran.core.pkts"),
    ("repro.core.l4span", "L4SpanLayer", "on_downlink_packet", "core",
     "core.pkts"),
    ("repro.core.l4span", "L4SpanLayer", "on_uplink_packet", "core",
     "core.pkts"),
    ("repro.core.l4span", "L4SpanLayer", "on_ran_feedback", "core",
     "core.feedback"),
    ("repro.core.l4span", "L4SpanLayer", "on_background_aggregate", "core",
     None),
    ("repro.ran.cu", "CentralUnitUserPlane", "receive_downlink", "ran.cu",
     "ran.cu.pkts"),
    ("repro.ran.cu", "CentralUnitUserPlane", "receive_uplink", "ran.cu",
     "ran.cu.pkts"),
    ("repro.ran.cu", "CentralUnitUserPlane", "resubmit_downlink", "ran.cu",
     None),
    ("repro.ran.cu", "CentralUnitUserPlane", "_on_delivery_status", "ran.cu",
     None),
    ("repro.ran.pdcp", "PdcpEntity", "submit", "ran.cu", None),
    ("repro.ran.sdap", "SdapEntity", "drb_for_packet", "ran.cu", None),
    ("repro.ran.f1u", "F1UInterface", "send_downlink_sdu", "ran.cu", None),
    ("repro.ran.f1u", "F1UInterface", "send_delivery_status", "ran.cu", None),
    ("repro.ran.du", "DistributedUnit", "handle_downlink_sdu", "ran.rlc",
     None),
    ("repro.ran.du", "DistributedUnit", "pull_for_ue", "ran.rlc", None),
    ("repro.ran.rlc", "RlcEntity", "enqueue", "ran.rlc", "ran.rlc.sdus"),
    ("repro.ran.rlc", "RlcEntity", "pull", "ran.rlc", None),
    ("repro.ran.mac", "MacScheduler", "_on_slot", "ran.mac", None),
    ("repro.ran.mac", "MacScheduler", "_run_slot_batch", "ran.mac", None),
    ("repro.ran.background", "BackgroundPopulation", "on_slot",
     "ran.background", None),
    ("repro.ran.phy", "AirInterface", "transmit", "ran.phy", "ran.phy.tx"),
    ("repro.ran.ue", "UeContext", "deliver", "ran.ue", "ran.ue.pkts"),
    ("repro.ran.ue", "UeContext", "send_uplink", "ran.ue", "ran.ue.pkts"),
    ("repro.metrics.collectors", "OwdCollector", "record", "metrics",
     "metrics.records"),
    ("repro.metrics.collectors", "ThroughputCollector", "record", "metrics",
     "metrics.records"),
    ("repro.metrics.collectors", "DelayBreakdownAccumulator", "record_packet",
     "metrics", "metrics.records"),
    ("repro.metrics.collectors", "QueueSampler", "_sample", "metrics",
     "metrics.records"),
)

#: Module-level functions of the sharded runtime: (function, layer).
SHARDED_ENTRY_POINTS = (
    ("build_shard_plan", "sharded.plan"),
    ("split_spec", "sharded.plan"),
    ("merge_shard_results", "sharded.merge"),
)


def layer_of_module(module: str):
    """The layer owning ``module``, or None when no layer claims it."""
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


class LayerTrace:
    """Spans and counters for one traced run.

    ``full=True`` wraps every layer's entry points and the event callbacks;
    ``full=False`` wraps only the sharded runtime's plan and merge steps, for
    the parent process of a sharded run (its fork-started workers must run
    unwrapped code).  Use as a context manager around the run; the originals
    are restored on exit.
    """

    def __init__(self, full: bool = True) -> None:
        self.full = full
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Open spans' child-time accumulators; the root frame collects the
        #: time covered by top-level spans.
        self._stack: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []
        #: Callback function -> layer; a callback no layer claims runs in
        #: the event loop's ``sim`` span.
        self._event_layers: dict[object, str] = {}
        self._runners: dict[str, object] = {}
        self._periodic = None
        #: Every MacScheduler built while tracing, for slot counters.
        self.mac_schedulers: list = []

    # ------------------------------------------------------------------ #
    @property
    def covered_s(self) -> float:
        """Wall time covered by at least one span."""
        return self._stack[0][0]

    def span(self, fn, layer: str, counter=None, on_result=None):
        """``fn`` wrapped so each call is a span of ``layer``."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # ------------------------------------------------------------------ #
    # Event callbacks
    # ------------------------------------------------------------------ #
    def _runner(self, layer: str):
        runner = self._runners.get(layer)
        if runner is None:
            def run_event(callback, *args):
                return callback(*args)
            runner = self._runners[layer] = self.span(run_event, layer)
        return runner

    def _callback_layer(self, callback):
        """The layer owning a scheduled callback (a periodic process's tick
        belongs to the callback it ticks)."""
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, self._periodic):
            return self._callback_layer(owner._callback)
        fn = getattr(callback, "__func__", callback)
        layer = self._event_layers.get(fn)
        if layer is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            layer = self._event_layers[fn] = layer_of_module(module) or "sim"
        return layer

    def _wrap_scheduling(self) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.process import PeriodicProcess
        self._periodic = PeriodicProcess
        trace = self

        def wrap_call(schedule, index):
            # ``args[index]`` is the callback: schedule(delay, callback, ...)
            # and schedule_at(time, callback, ...), call_soon(callback, ...).
            def traced(sim, *args):
                callback = args[index]
                layer = trace._callback_layer(callback)
                if layer == "sim":
                    return schedule(sim, *args)
                head = args[:index]
                return schedule(sim, *head, trace._runner(layer),
                                callback, *args[index + 1:])
            return functools.wraps(schedule)(traced)

        for name, index in (("schedule", 1), ("schedule_at", 1),
                            ("call_soon", 0)):
            self._patch(Simulator, name,
                        wrap_call(Simulator.__dict__[name], index))

        original_timer = Simulator.__dict__["add_slot_timer"]

        def add_slot_timer(sim, period, callback, start_at=None):
            layer = trace._callback_layer(callback)
            if layer != "sim":
                callback = trace.span(callback, layer)
            return original_timer(sim, period, callback, start_at=start_at)
        self._patch(Simulator, "add_slot_timer",
                    functools.wraps(original_timer)(add_slot_timer))

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def _wrap_entry_points(self) -> None:
        counts = self.counts

        def count_rejected(accepted):
            if accepted is False:
                counts["ran.rlc.rejected"] += 1

        for module, cls_name, method, layer, counter in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            on_result = count_rejected if method == "enqueue" else None
            self._patch(cls, method, self.span(cls.__dict__[method], layer,
                                               counter, on_result))
        self._wrap_package("repro.channel", ("sample", "efficiency"),
                           "channel", {"sample": "channel.samples",
                                       "efficiency": "channel.samples"})
        from repro.cc.base import Sender
        self._wrap_package("repro.cc", ("receive",), "cc",
                           {"receive": "cc.acks"}, count_only=Sender)

        from repro.ran.mac import MacScheduler
        schedulers = self.mac_schedulers
        original_init = MacScheduler.__dict__["__init__"]

        @functools.wraps(original_init)
        def init(mac, *args, **kwargs):
            original_init(mac, *args, **kwargs)
            schedulers.append(mac)
        self._patch(MacScheduler, "__init__", init)

    def _wrap_package(self, package: str, methods, layer: str, counters,
                      count_only=None) -> None:
        """Wrap ``methods`` on every class a package's modules define."""
        root = importlib.import_module(package)
        names = [package] + [f"{package}.{info.name}" for info in
                             pkgutil.iter_modules(root.__path__)]
        for name in names:
            module = importlib.import_module(name)
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != name:
                    continue
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if fn is None or getattr(fn, "__isabstractmethod__",
                                             False):
                        continue
                    counter = counters.get(method)
                    if count_only is not None and not issubclass(cls,
                                                                 count_only):
                        counter = None
                    self._patch(cls, method, self.span(fn, layer, counter))

    def _wrap_sharded(self) -> None:
        sharded = importlib.import_module("repro.experiments.sharded")
        for function, layer in SHARDED_ENTRY_POINTS:
            self._patch(sharded, function,
                        self.span(getattr(sharded, function), layer))

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerTrace":
        try:
            self._wrap_sharded()
            if self.full:
                self._wrap_scheduling()
                self._wrap_entry_points()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
