"""The benchmark's workloads: seeded inputs, simulator calls, output checks.

A workload is a fixed list of items.  Each item builds its inputs from the
seed, calls one public entry point of the simulator, checks the output and
returns the simulated statistics of the run as plain numbers.  Those
statistics are deterministic for a given seed, so they double as exact
work counters and as the material of the item's digest.

Three workloads, each dominated by a different simulator layer:

* ``fabric_sweep`` — Figure 3's point loop on a 6x6x6 flit fabric,
  L in {2, 16} x idle in {0, 50, 400, 4000}.  ``network`` dominates;
  saturated points stress arbitration of blocked worms, light points
  stress streaming over an idle fabric.
* ``macro_apps`` — the four Figure 5 applications on the macro event
  simulator at 8 and 64 nodes, small-scale parameters, each checked
  against its sequential base case.  ``jsim`` and ``apps`` dominate; the
  flit fabric is never touched.
* ``cycle_apps`` — assembly LCS at 16 and 64 nodes and assembly radix
  sort at 64 nodes on the cycle-accurate machine.  ``core`` and
  ``machine`` dominate; the fabric runs at light load, LCS through the
  batched ``Fabric.advance`` path and radix (whose stop predicate needs
  per-cycle observation) through per-cycle ``Fabric.step``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.apps import lcs, lcs_cycle, nqueens, radix_cycle, radix_sort, tsp
from repro.apps.lcs import LcsParams, generate_strings, lcs_reference
from repro.apps.nqueens import KNOWN_COUNTS
from repro.bench.appscale import (lcs_params, nqueens_params, radix_params,
                                  tsp_params)
from repro.machine.jmachine import JMachine
from repro.network.stats import LatencySummary
from repro.network.topology import Mesh3D
from repro.network.traffic import RandomTrafficExperiment

__all__ = ["Item", "WORKLOADS", "COUNTERS", "item_digest", "workload_digest"]

#: The exact work counters every item reports (zero where a layer is not
#: exercised).  Summed over a workload's items they give the per-layer
#: work counts; any change to one of them is a change in simulated work.
COUNTERS = (
    "sim_cycles",
    "messages",
    "instructions",
    "network.messages",
    "network.submitted",
    "network.block_cycles",
    "network.delivery_stall_cycles",
    "network.route_cache_hits",
    "network.route_cache_misses",
    "core.instructions",
    "core.dispatches",
    "core.send_faults",
    "core.busy_cycles",
    "machine.sim_cycles",
    "jsim.messages",
    "jsim.threads",
    "jsim.events",
    "jsim.sim_cycles",
    "apps.instructions_charged",
)


class CheckFailed(Exception):
    """An item's output failed the benchmark's own correctness check."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one item produced: work counters, latencies, digest material."""

    counters: Dict[str, int]
    latency: LatencySummary
    detail: Dict[str, Any]


@dataclass(frozen=True)
class Item:
    """One unit of a workload.

    ``fn(seed, runs, shared)`` runs the item.  ``runs`` collects
    ``(instance, entry_time)`` for every simulator run loop the item
    enters (filled by the benchmark's run-loop hooks); ``shared`` carries
    results between items of one pass (sequential references).
    """

    name: str
    fn: Callable[[int, List[tuple], Dict[str, Any]], Outcome]


def _counters(values: Dict[str, int]) -> Dict[str, int]:
    return {**dict.fromkeys(COUNTERS, 0), **values}


def _fabric_counts(fabric) -> Dict[str, int]:
    stats = fabric.stats
    return {
        "network.messages": stats.completed,
        "network.submitted": stats.submitted,
        "network.block_cycles": stats.block_cycles,
        "network.delivery_stall_cycles": stats.delivery_stall_cycles,
        "network.route_cache_hits": fabric.route_cache_hits,
        "network.route_cache_misses": fabric.route_cache_misses,
    }


def _latency_detail(summary: LatencySummary) -> Dict[str, Any]:
    return {"count": summary.count, "total": summary.total,
            "min": summary.min, "max": summary.max,
            "buckets": list(summary.buckets)}


# -- fabric_sweep ---------------------------------------------------------

FABRIC_DIMS = (6, 6, 6)
FABRIC_WARMUP = 2000
FABRIC_MEASURE = 6000


def _fabric_point(length: int, idle: int) -> Item:
    def run(seed: int, runs: List[tuple], shared: Dict[str, Any]) -> Outcome:
        experiment = RandomTrafficExperiment(Mesh3D(*FABRIC_DIMS), length,
                                             idle, seed=seed)
        result = experiment.run(FABRIC_WARMUP, FABRIC_MEASURE)
        stats = experiment.fabric.stats
        _check(result.iterations > 0, "no round trip completed")
        _check(stats.completed <= stats.submitted,
               "fabric delivered more messages than were submitted")
        return Outcome(
            counters=_counters({"sim_cycles": FABRIC_WARMUP + FABRIC_MEASURE,
                                "messages": stats.completed,
                                **_fabric_counts(experiment.fabric)}),
            latency=stats.latency,
            detail={"result": dataclasses.asdict(result),
                    "latency": _latency_detail(stats.latency)},
        )

    return Item(f"L{length}_idle{idle}", run)


FABRIC_SWEEP = [_fabric_point(length, idle)
                for length in (2, 16) for idle in (0, 50, 400, 4000)]


# -- macro_apps -----------------------------------------------------------

MACRO_NODES = (8, 64)
_MACRO_APPS = {
    "lcs": (lcs, lambda seed: dataclasses.replace(lcs_params(), seed=seed)),
    "radix_sort": (radix_sort,
                   lambda seed: dataclasses.replace(radix_params(), seed=seed)),
    "nqueens": (nqueens, lambda seed: nqueens_params()),  # no random input
    # The TSP instance stays the small-scale default: branch-and-bound work
    # varies eightfold across random instances (4.7M to 36.6M charged
    # instructions at 8 nodes over seeds 1-10), which would make the
    # workload's size, not the simulator's speed, set its host time.
    "tsp": (tsp, lambda seed: tsp_params()),
}


def _output_digest(output: Any) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()[:16]


def _macro_sequential(app: str) -> Item:
    module, params_for = _MACRO_APPS[app]

    def run(seed: int, runs: List[tuple], shared: Dict[str, Any]) -> Outcome:
        result = module.run_sequential(params_for(seed))
        if app == "nqueens":
            _check(result.output == KNOWN_COUNTS[params_for(seed).n],
                   "sequential N-Queens count differs from the known count")
        shared[app] = result.output
        return Outcome(counters=_counters({}), latency=LatencySummary(),
                       detail={"cycles": result.cycles,
                               "output": _output_digest(result.output)})

    return Item(f"{app}_seq", run)


def _macro_parallel(app: str, n_nodes: int) -> Item:
    module, params_for = _MACRO_APPS[app]

    def run(seed: int, runs: List[tuple], shared: Dict[str, Any]) -> Outcome:
        result = module.run_parallel(n_nodes, params_for(seed))
        _check(app in shared, "no sequential reference to check against")
        _check(result.output == shared[app],
               f"parallel output differs from run_sequential on {n_nodes} nodes")
        sim = result.sim
        delivered = sum(node.messages_received for node in sim.nodes)
        threads = result.total_threads()
        instructions = result.total_instructions()
        return Outcome(
            counters=_counters({
                "sim_cycles": sim.end_time,
                "messages": delivered,
                "instructions": instructions,
                "jsim.messages": delivered,
                "jsim.threads": threads,
                # One arrival and one completion event per thread.
                "jsim.events": delivered + threads,
                "jsim.sim_cycles": sim.end_time,
                "apps.instructions_charged": instructions}),
            latency=LatencySummary(),
            detail={"cycles": result.cycles,
                    "output": _output_digest(result.output),
                    "handlers": {name: dataclasses.asdict(stats) for name, stats
                                 in sorted(result.handler_stats.items())},
                    "breakdown": result.breakdown},
        )

    return Item(f"{app}_n{n_nodes}", run)


MACRO_APPS = [item for app in _MACRO_APPS for item in
              [_macro_sequential(app)]
              + [_macro_parallel(app, n) for n in MACRO_NODES]]


# -- cycle_apps -----------------------------------------------------------

CYCLE_LCS = dict(a_len=64, b_len=256)
CYCLE_RADIX_KEYS_PER_NODE = 8
CYCLE_RADIX_DIGITS = 4


def _machine_outcome(machine, detail: Dict[str, Any]) -> Outcome:
    procs = [node.proc.counters for node in machine.nodes]
    instructions = sum(c.instructions for c in procs)
    counters = _counters({
        "sim_cycles": machine.now,
        "messages": machine.fabric.stats.completed,
        "instructions": instructions,
        "core.instructions": instructions,
        "core.dispatches": sum(c.dispatches for c in procs),
        "core.send_faults": sum(c.send_faults for c in procs),
        "core.busy_cycles": sum(c.busy_cycles for c in procs),
        "machine.sim_cycles": machine.now,
        **_fabric_counts(machine.fabric)})
    detail["counters"] = [dataclasses.asdict(c) for c in procs]
    detail["latency"] = _latency_detail(machine.fabric.stats.latency)
    return Outcome(counters=counters, latency=machine.fabric.stats.latency,
                   detail=detail)


def _last_machine(runs: List[tuple]):
    machines = [instance for instance, _ in runs
                if isinstance(instance, JMachine)]
    _check(bool(machines), "no JMachine run was observed")
    return machines[-1]


def _cycle_lcs(n_nodes: int) -> Item:
    def run(seed: int, runs: List[tuple], shared: Dict[str, Any]) -> Outcome:
        params = LcsParams(seed=seed, **CYCLE_LCS)
        # Quiescent stop: no per-cycle predicate, so the machine loop may
        # hand quiet windows to the batched Fabric.advance.
        result = lcs_cycle.run_cycle_lcs(n_nodes, params, stop="quiescent")
        _check(result.lcs_length == lcs_reference(*generate_strings(params)),
               "cycle-level LCS length differs from the reference")
        return _machine_outcome(_last_machine(runs),
                                {"result": dataclasses.asdict(result)})

    return Item(f"lcs_n{n_nodes}", run)


def _cycle_radix(n_nodes: int) -> Item:
    def run(seed: int, runs: List[tuple], shared: Dict[str, Any]) -> Outcome:
        rng = random.Random(seed)
        limit = 4 ** CYCLE_RADIX_DIGITS
        keys = [rng.randrange(limit)
                for _ in range(CYCLE_RADIX_KEYS_PER_NODE * n_nodes)]
        result = radix_cycle.run_cycle_radix(n_nodes, keys,
                                             n_digits=CYCLE_RADIX_DIGITS)
        _check(result.sorted_keys == sorted(keys),
               "cycle-level radix sort output is not the sorted input")
        detail = dataclasses.asdict(result)
        detail["sorted_keys"] = _output_digest(detail["sorted_keys"])
        return _machine_outcome(_last_machine(runs), {"result": detail})

    return Item(f"radix_n{n_nodes}", run)


CYCLE_APPS = [_cycle_lcs(16), _cycle_lcs(64), _cycle_radix(64)]

WORKLOADS: Dict[str, List[Item]] = {
    "fabric_sweep": FABRIC_SWEEP,
    "macro_apps": MACRO_APPS,
    "cycle_apps": CYCLE_APPS,
}


def item_digest(outcome: Outcome) -> str:
    """Hash of everything an item simulated (host timings excluded)."""
    blob = json.dumps({"counters": outcome.counters, "detail": outcome.detail},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def workload_digest(item_digests: Dict[str, str]) -> str:
    blob = json.dumps(item_digests, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
