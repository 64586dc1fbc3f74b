"""Layer spans measured from outside the program.

:class:`Tracer` installs timing wrappers around public functions and
methods of the ``repro`` modules, records one span per call, and puts the
originals back on :meth:`Tracer.remove`.  Nothing under ``src/`` knows about
it: a layer's time is the time spent inside calls to its public entry
points, and its *self* time excludes the layer spans nested inside it.

Layers are named after modules.  ``sim.*`` counts come from a
:class:`~repro.sim.trace.SimTrace` the tracer attaches to every
:class:`~repro.sim.engine.Simulator` created while it is installed; the
trace only counts, so records stay byte-identical.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Topology builders wrapped as the ``topology.build`` layer.
TOPOLOGY_BUILDERS = (
    "torus", "mesh", "bidirectional_shufflenet", "clos", "butterfly", "benes",
    "line", "ring", "star", "myrinet_testbed", "random_irregular",
    "hypercube", "complete_switches", "fig3_topology",
)

#: (layer, module, attribute) of every timed entry point.  An attribute
#: ``Class.method`` wraps the method on the class; a bare name wraps the
#: function wherever a ``repro`` module holds a reference to it.
TIMED = (
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("traffic.build_engine", "repro.traffic.workloads", "build_engine"),
    ("updown.build", "repro.net.updown", "UpDownRouting.rebuild"),
    ("flitlevel.build", "repro.net.flitlevel.network", "FlitNetwork.__init__"),
    ("flitlevel.run", "repro.net.flitlevel.network", "FlitNetwork.run"),
    ("myrinet.run", "repro.myrinet.testbed", "run_throughput_experiment"),
    ("faults.campaign", "repro.faults.campaign", "run_fault_campaign"),
    ("faults.campaign", "repro.faults.campaign", "run_repair_campaign"),
) + tuple(
    ("topology.build", "repro.net.topology", name) for name in TOPOLOGY_BUILDERS
)

#: Modules holding the layers above; importing them is part of set-up.
LAYER_MODULES = sorted({module for _layer, module, _attr in TIMED} | {
    "repro.net.wormnet", "repro.sim.trace", "repro.sweep.points",
    "repro.sweep.runner", "repro.core.switch_mcast",
})

#: Kernel event classes reported as ``sim.events_by_type.<Class>``: the
#: five largest on ``paper_wormlevel`` at the reference seed.
EVENT_CLASSES = ("_DeferredCall", "Timeout", "Event", "Initialize", "Process")

_MARK = "__bench_wrapper__"


class Tracer:
    """Records layer spans and kernel counts while installed."""

    def __init__(self) -> None:
        from repro.sim.trace import SimTrace

        self.t0 = time.perf_counter()
        #: ``[name, start, end, parent index (-1: a root), key]`` per span,
        #: in start order.
        self.spans: List[list] = []
        self.kernel = SimTrace()
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._nets: List[Any] = []
        #: Methods to restore: ``(class, name, original)``.
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Function wrappers by id: ``(wrapper, original)``.
        self._functions: Dict[int, Tuple[Callable, Callable]] = {}

    # -- install / remove ------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (imports the layer modules)."""
        if self._undo or self._functions:
            raise RuntimeError("tracer already installed")
        for name in LAYER_MODULES:
            importlib.import_module(name)
        for layer, module, attr in TIMED:
            self._patch(module, attr, lambda fn, layer=layer: self._timed(fn, layer))
        self._patch("repro.sim.engine", "Simulator.__init__", self._attach_kernel)
        self._patch("repro.net.wormnet", "WormholeNetwork.__init__", self._track_net)
        self._patch(
            "repro.net.wormnet", "WormholeNetwork.refresh_topology",
            lambda fn: self._counted(fn, "wormnet.refreshes"),
        )
        self._patch("repro.net.flitlevel.network", "FlitNetwork.run", self._count_ticks)

    def remove(self) -> None:
        """Put every original back, newest wrapper first.  Function
        wrappers are swept from every ``repro`` module, including modules
        first imported while the tracer was installed."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                pair = self._functions.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, name, pair[1])
        self._functions.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def _patch(self, module: str, attr: str, make: Callable) -> None:
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._undo.append((owner, meth, original))
            setattr(owner, meth, _mark(make(original)))
            return
        original = getattr(mod, attr)
        wrapper = _mark(make(original))
        self._functions[id(wrapper)] = (wrapper, original)
        for other in _repro_modules():
            for name, value in list(vars(other).items()):
                if value is original:
                    setattr(other, name, wrapper)

    # -- wrappers ----------------------------------------------------------------
    def _timed(self, fn: Callable, layer: str) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _attach_kernel(self, fn: Callable) -> Callable:
        kernel = self.kernel

        def wrapper(self, *args, **kwargs):
            if len(args) < 2 and "trace" not in kwargs and kwargs.get("obs") is None:
                kwargs["trace"] = kernel
            fn(self, *args, **kwargs)

        return wrapper

    def _track_net(self, fn: Callable) -> Callable:
        nets = self._nets

        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            nets.append(self)

        return wrapper

    def _count_ticks(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(self, *args, **kwargs):
            before = self.now
            try:
                return fn(self, *args, **kwargs)
            finally:
                counts["flitlevel.ticks"] += self.now - before

        return wrapper

    # -- root spans ----------------------------------------------------------------
    @contextlib.contextmanager
    def root(self, name: str, key: Any) -> Iterator[int]:
        """One span per point (yields its index); layer spans nest below."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, -1, key]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield index
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def add_span(
        self, name: str, start: float, end: float, parent: int, key: Any
    ) -> int:
        """Record a span timed by the caller; returns its index."""
        self.spans.append([name, start, end, parent, key])
        return len(self.spans) - 1

    # -- reports -----------------------------------------------------------------
    def layer_times(self, root: int) -> Dict[str, float]:
        """Self seconds per layer inside root span ``root`` (``.other``
        under the root's own name is the time no layer span covers)."""
        spans = self.spans
        child_time: Dict[int, float] = {}
        members = [root]
        for index in range(root + 1, len(spans)):
            parent = spans[index][3]
            if parent < root:
                break
            members.append(index)
        for index in members[1:]:
            span = spans[index]
            child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
        out: Dict[str, float] = {}
        for index in members:
            name, start, end = spans[index][:3]
            label = f"{name}.other" if index == root else name
            out[label] = out.get(label, 0.0) + (end - start) - child_time.get(index, 0.0)
        return out

    def kernel_state(self) -> Tuple[int, int, Dict[str, int]]:
        return (
            self.kernel.events,
            self.kernel.total_wakeups,
            dict(self.kernel.by_type),
        )

    def take_worms(self) -> int:
        """Worms delivered by the networks built since the last call."""
        worms = sum(net.delivered_worms for net in self._nets)
        self._nets.clear()
        return worms

    def export_chrome(self, path: Path) -> List[str]:
        """Write the spans as a Chrome trace through ``repro.obs``'s
        :class:`~repro.obs.tracer.EventTracer` (B/E pairs in microseconds,
        one track per root span, the root's key in its args), read it back
        through the checks of ``python -m repro.obs validate --chrome`` and
        return the problems."""
        from repro.obs.report import load_chrome, validate_events
        from repro.obs.tracer import EventTracer

        spans = self.spans
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(spans):
            children.setdefault(span[3], []).append(index)
        # Depth first per root, so a track's B/E pairs nest; a stable sort
        # by time then interleaves the tracks of overlapping roots.
        events: List[Tuple[float, str, str, int, Dict[str, Any]]] = []

        def emit(index: int, tid: int) -> None:
            name, start, end, _parent, key = spans[index]
            events.append((start, "B", name, tid, {} if key is None else {"id": key}))
            for child in children.get(index, ()):
                emit(child, tid)
            events.append((end, "E", name, tid, {}))

        for root in children.get(-1, ()):
            emit(root, root)
        events.sort(key=lambda event: event[0])
        trace = EventTracer(capacity=max(1, len(events)))
        for ts, phase, name, tid, args in events:
            record = trace.begin if phase == "B" else trace.end
            record((ts - self.t0) * 1e6, name, tid, **args)
        path.parent.mkdir(parents=True, exist_ok=True)
        trace.export_chrome(path)
        return validate_events(load_chrome(path))


def _mark(wrapper: Callable) -> Callable:
    setattr(wrapper, _MARK, True)
    return wrapper


def _repro_modules() -> List[Any]:
    return [
        mod for name, mod in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and mod is not None
    ]


def installed_wrappers() -> List[str]:
    """Every ``repro`` attribute that is still a tracer wrapper."""
    found = []
    for mod in _repro_modules():
        for name, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
