"""Spans around calls into the simulator's layers, aggregated in memory.

The benchmark never edits the simulator.  For one pass it replaces a
public function of each layer with a wrapper that times the call, then
puts the original back.  A span's self time is its duration minus the
part its child spans cover, so the self times of all layers plus the
benchmark's own time add up to the pass's wall time.

``hooks(runs)`` installs only the run-loop hooks every pass needs: they
record each simulator instance whose run loop starts, and when, which
gives the item its machine and its set-up time.  ``hooks(runs, tracer)``
adds the spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps import lcs, lcs_cycle, nqueens, radix_cycle, radix_sort, tsp
from repro.core.processor import Mdp
from repro.jsim.sim import Context, MacroSimulator
from repro.machine.jmachine import JMachine
from repro.network.fabric import Fabric
from repro.network.traffic import RandomTrafficExperiment

__all__ = ["Tracer", "hooks", "LAYERS"]

#: Layers in report order; "bench" is pass time outside every span.
LAYERS = ("network", "traffic", "core", "machine", "jsim", "apps", "bench")

#: Run loops: the first entry marks the end of an item's set-up.
_RUN_LOOPS = (
    (RandomTrafficExperiment, "run", "traffic"),
    (JMachine, "run", "machine"),
    (MacroSimulator, "run", "jsim"),
)

#: Other public calls timed as spans in a traced pass.
_CALLS = (
    (Fabric, "step", "network"),
    (Fabric, "advance", "network"),
    (Fabric, "send", "network"),
    (Mdp, "tick", "core"),
    # The macro API handlers call back into: without these spans the
    # event bookkeeping a handler triggers would count as app time.
    (Context, "charge", "jsim"),
    (Context, "send", "jsim"),
    (Context, "xlate", "jsim"),
    (Context, "nnr", "jsim"),
    (Context, "sync", "jsim"),
    (lcs, "run_parallel", "apps"),
    (lcs, "run_sequential", "apps"),
    (radix_sort, "run_parallel", "apps"),
    (radix_sort, "run_sequential", "apps"),
    (nqueens, "run_parallel", "apps"),
    (nqueens, "run_sequential", "apps"),
    (tsp, "run_parallel", "apps"),
    (tsp, "run_sequential", "apps"),
    (lcs_cycle, "run_cycle_lcs", "apps"),
    (radix_cycle, "run_cycle_radix", "apps"),
)


class Tracer:
    """Span stack plus per-span-name aggregates: count, total, self time."""

    def __init__(self) -> None:
        #: Open spans: [start, child_seconds].
        self.stack: List[list] = []
        #: name -> [layer, count, total_s, self_s]
        self.spans: Dict[str, list] = {}

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self.stack
        record = self.spans.setdefault(name, [layer, 0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                record[1] += 1
                record[2] += duration
                record[3] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer.

        The self times of all spans add up to the time covered by the
        outermost spans, so "bench" is the pass's wall time minus the sum
        of these; the caller fills it in.
        """
        totals = dict.fromkeys(LAYERS, 0.0)
        for layer, _, _, self_s in self.spans.values():
            totals[layer] += self_s
        return totals

    def calls(self, name: str) -> int:
        record = self.spans.get(name)
        return record[1] if record else 0


def _recording(fn: Callable, runs: List[Tuple[object, float]]) -> Callable:
    clock = time.perf_counter

    def run(self, *args, **kwargs):
        runs.append((self, clock()))
        return fn(self, *args, **kwargs)

    return run


@contextmanager
def hooks(runs: List[Tuple[object, float]],
          tracer: Optional[Tracer] = None) -> Iterator[None]:
    """Install the run-loop hooks (and, with a tracer, the spans)."""
    replaced: List[Tuple[object, str, object]] = []

    def replace(owner: object, attr: str, new: object) -> None:
        replaced.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def span(owner: object, attr: str, layer: str, fn: Callable) -> Callable:
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        return tracer.wrap(layer, name, fn)

    try:
        for owner, attr, layer in _RUN_LOOPS:
            fn = _recording(vars(owner)[attr], runs)
            replace(owner, attr,
                    fn if tracer is None else span(owner, attr, layer, fn))
        if tracer is not None:
            for owner, attr, layer in _CALLS:
                replace(owner, attr,
                        span(owner, attr, layer, vars(owner)[attr]))
            register = vars(MacroSimulator)["register"]

            def traced_register(sim, name, handler):
                # Handlers are app code the event loop calls back into.
                return register(sim, name,
                                tracer.wrap("apps", "handler", handler))

            replace(MacroSimulator, "register", traced_register)
        yield
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
