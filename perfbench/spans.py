"""Layer spans recorded from outside the program, for the traced run.

:func:`install` wraps each layer's entry points at class level (and the
module-level functions of the layer modules, in every module that imported
them) so that every call pushes a span onto one stack.  A call whose
caller is already inside the same layer adds no span; it only counts.  A
layer's self time is the duration of its spans minus the time covered by
nested spans of other layers, so the self times of all layers plus the time
spent outside every span add up to the wall time of the traced window.

Only the traced run installs this; the measured (untraced) run never pays
for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Benchmark layer of each module prefix (longest prefix wins).  Modules
#: not listed here (``simulator.fluid``, ``simulator.packet``,
#: ``simulator.telemetry``, ``simulator.units``) are not wrapped: their time
#: lands in whichever layer called them.
LAYER_OF_MODULE = {
    "repro.simulator.topology": "topology",
    "repro.simulator.engine": "topology",
    "repro.simulator.routing": "routing",
    "repro.simulator.link": "link",
    "repro.simulator.aqm": "link",
    "repro.simulator.endpoint": "endpoint",
    "repro.simulator.source": "endpoint",
    "repro.cc": "cc",
    "repro.core": "core",
    "repro.simulator.measurement": "measurement",
    "repro.simulator.trace": "trace",
    "repro.traffic": "traffic",
    "repro.runtime": "runtime",
    "repro.analysis": "analysis",
    # Fault injection is outside the layer split: its self time is
    # reported as unattributed.
    "repro.simulator.faults": "faults",
}

#: Layers reported as ``<layer>.self_s`` / ``<layer>.calls``.  ``experiments``
#: is the spec target (the driver) itself; ``audit`` is the REPRO_AUDIT
#: conservation re-check, kept apart so it does not inflate ``topology``.
LAYERS = ("topology", "routing", "link", "endpoint", "cc", "core",
          "measurement", "trace", "traffic", "runtime", "analysis",
          "experiments", "audit")

#: Pseudo-layers whose self time is reported as unattributed.
UNATTRIBUTED_LAYERS = ("faults",)

#: Private methods wrapped anyway, because they are where a layer's work
#: enters from another layer (the traffic generators' scheduled callbacks)
#: or because a per-layer count is read from them.
PRIVATE_ENTRY_POINTS = {
    "repro.traffic.wan": ("WanTrafficGenerator._on_arrival",),
    "repro.traffic.scripted": ("ScriptedCrossTraffic._begin_phase",
                               "ScriptedCrossTraffic._end_all"),
    "repro.core.nimbus": ("Nimbus._switch_mode",),
}

#: Functions whose inclusive time is reported under a name of its own.
INCLUSIVE_TIMERS = {
    "WanTrafficGenerator._on_arrival": "traffic.arrival_s",
    "WanTrafficGenerator.elastic_byte_fraction": "traffic.truth_s",
    "WanTrafficGenerator.elastic_present": "traffic.truth_s",
    "ScriptedCrossTraffic.elastic_present": "traffic.truth_s",
    "ScenarioSpec.spec_hash": "runtime.hash_s",
    "DependencyGraph.digest_for": "runtime.hash_s",
    "ResultCache.get": "runtime.cache_get_s",
    "ResultCache.put": "runtime.cache_put_s",
}


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module belongs to, or ``None`` when it is not wrapped."""
    best = None
    for prefix, layer in LAYER_OF_MODULE.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return None if best is None else best[1]


class SpanTracer:
    """One span stack plus the per-layer and per-function tallies.

    Nothing is recorded while :attr:`active` is false, so the benchmark's
    own scoring calls into the program (after a spec returns) stay out of
    the numbers.
    """

    def __init__(self) -> None:
        self.active = False
        self.clock = time.perf_counter
        #: Open spans: ``[layer, start, time covered by nested spans]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        #: Calls per wrapped function, keyed ``Class.method`` or ``function``.
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self._inclusive_depth: Dict[str, int] = defaultdict(int)
        #: Network-level ``add_flow`` calls made from inside ``traffic``.
        self.traffic_flows = 0
        #: Total duration of outermost spans.
        self.root_s = 0.0

    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, layer, name: str) -> Callable:
        """Wrap ``fn`` in a span of ``layer`` (a name, or a callable of the
        call's first argument returning one)."""
        tracer = self
        stack = self.stack
        self_s = self.self_s
        layer_calls = self.layer_calls
        calls = self.calls
        clock = self.clock
        timer = INCLUSIVE_TIMERS.get(name)
        pick = layer if callable(layer) else None
        counts_cross_flows = name.endswith(".add_flow")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            this = pick(args[0]) if pick is not None else layer
            layer_calls[this] += 1
            if counts_cross_flows and stack and stack[-1][0] == "traffic":
                tracer.traffic_flows += 1
            if timer is not None:
                tracer._inclusive_depth[timer] += 1
            nested = bool(stack) and stack[-1][0] == this
            start = clock()
            if not nested:
                frame = [this, start, 0.0]
                stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if not nested:
                    stack.pop()
                    duration = end - start
                    self_s[this] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
                    else:
                        tracer.root_s += duration
                if timer is not None:
                    depth = tracer._inclusive_depth[timer] - 1
                    tracer._inclusive_depth[timer] = depth
                    if depth == 0:
                        tracer.inclusive_s[timer] += end - start

        return wrapper

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Copy of the tallies, for differencing a window out of a run."""
        return {
            "self_s": dict(self.self_s),
            "layer_calls": dict(self.layer_calls),
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "traffic_flows": self.traffic_flows,
            "root_s": self.root_s,
        }


def _import_all(package: str = "repro") -> List[object]:
    """Import every module of the package, so each can be patched."""
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        modules.append(importlib.import_module(info.name))
    return modules


def install(tracer: SpanTracer) -> None:
    """Wrap every layer's entry points for ``tracer``.

    Class methods are wrapped on the class that defines them, so a subclass
    inherits the span of the module its method came from (``Nimbus`` in
    ``core`` is a ``CongestionControl`` from ``cc``).  Public methods are
    wrapped, plus :data:`PRIVATE_ENTRY_POINTS`; properties, static and
    class methods are left alone.  ``TopologyNetwork.step`` is charged to
    ``routing`` on a ``RoutedNetwork``, to ``topology`` otherwise, and
    ``audit_conservation`` to ``audit``.
    """
    modules = _import_all()
    from repro.simulator.routing import RoutedNetwork

    def step_layer(network) -> str:
        return "routing" if isinstance(network, RoutedNetwork) else "topology"

    replaced: Dict[int, Callable] = {}
    for module in modules:
        layer = layer_of_module(module.__name__)
        if layer is None:
            continue
        private = PRIVATE_ENTRY_POINTS.get(module.__name__, ())
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for meth, fn in list(vars(value).items()):
                    qualname = f"{value.__name__}.{meth}"
                    if not inspect.isfunction(fn):
                        continue
                    if meth.startswith("_") and qualname not in private:
                        continue
                    if qualname == "TopologyNetwork.step":
                        span = step_layer
                    elif qualname == "TopologyNetwork.audit_conservation":
                        span = "audit"
                    else:
                        span = layer
                    setattr(value, meth, tracer.wrap(fn, span, qualname))
            elif (inspect.isfunction(value) and not attr.startswith("_")
                  and value.__module__ == module.__name__):
                replaced[id(value)] = tracer.wrap(value, layer, attr)
    # Rebind ``from x import f`` copies everywhere, not just in x.  The
    # ids stay valid: each wrapper keeps its original alive.
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)


def wrap_target(tracer: SpanTracer, module_name: str, attr: str) -> None:
    """Charge a spec's target function (the driver) to ``experiments``."""
    module = importlib.import_module(module_name)
    setattr(module, attr, tracer.wrap(getattr(module, attr), "experiments",
                                      f"{module_name.rsplit('.', 1)[-1]}."
                                      f"{attr}"))
