"""The repository benchmark: simulator host throughput on three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fabric_sweep --seed 1 --seconds 38 --trace 0

The workload runs in one process with no worker threads (``--trace 0``
also times the simulator's import in a few fresh interpreters, one after
another, for ``setup_s``).  The run repeats timed passes over the
workload's items (see ``workloads.py``) for about ``--seconds`` seconds;
every item's output is checked and its simulated statistics hashed, and
every pass must reproduce the first pass's work counters and digests
exactly.  For the default seed the digests must also equal the ones
recorded in ``digests.json``.

``--trace 0`` prints the end-to-end metrics: host time of a pass, set-up
time, simulated cycles / messages per second, peak memory.  Host times
there are in reference seconds: host seconds scaled by the speed of a
calibration loop timed beside each item (``calibrate.py``), because the
shared host's own speed changes by up to 2x over minutes.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer split:
self time, call counts and exact work counts per layer, raw host
seconds of a pass and of each item, and the tracing overhead (traced
minus untraced pass time).  The traced digests must equal the untraced
ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
item executions; ``failed`` counts those that raised, failed their
check, or produced a digest that differs from the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
#: Fresh interpreters that time the simulator's import, on top of the
#: benchmark's own import, for the median in ``setup_s``.
IMPORT_SAMPLES = 4


class Pass:
    """Host times, outcomes and digests of one pass over a workload."""

    def __init__(self) -> None:
        self.host_s: Dict[str, float] = {}
        self.setup_s: Dict[str, float] = {}
        #: Calibration-loop seconds around each item (see calibrate.py).
        self.calib_s: Dict[str, float] = {}
        self.outcomes: Dict[str, object] = {}
        self.digests: Dict[str, str] = {}
        self.errors: Dict[str, str] = {}
        self.tracer = None
        self.wall_s = 0.0


def run_pass(items, seed: int, traced: bool) -> Pass:
    from calibrate import calibration_s
    from spans import Tracer, hooks
    from workloads import item_digest

    result = Pass()
    runs: List[tuple] = []
    shared: Dict[str, object] = {}
    tracer = Tracer() if traced else None
    clock = time.perf_counter
    with hooks(runs, tracer):
        before = calibration_s()
        for item in items:
            runs.clear()
            start = clock()
            try:
                outcome = item.fn(seed, runs, shared)
            except Exception:  # an item failing must not stop the others
                result.errors[item.name] = traceback.format_exc()
                outcome = None
            end = clock()
            result.host_s[item.name] = end - start
            result.setup_s[item.name] = (runs[0][1] - start) if runs else 0.0
            if outcome is not None:
                result.outcomes[item.name] = outcome
                result.digests[item.name] = item_digest(outcome)
            after = calibration_s()
            result.calib_s[item.name] = (before + after) / 2
            before = after
    result.wall_s = sum(result.host_s.values())
    result.tracer = tracer
    return result


def import_loops(src: Path, own_import_s: float) -> float:
    """The simulator's import time in calibration loops: the median of
    this process's import and ``IMPORT_SAMPLES`` fresh interpreters,
    over the median calibration loop timed between them."""
    from calibrate import calibration_s

    imports = [own_import_s]
    calibs = [calibration_s()]
    for _ in range(IMPORT_SAMPLES):
        imports.append(import_seconds(src))
        calibs.append(calibration_s())
    return statistics.median(imports) / statistics.median(calibs)


def import_seconds(src: Path) -> float:
    """Seconds to import the simulator (and these workloads) in a fresh
    interpreter, timed inside that interpreter."""
    code = ("import sys, time\n"
            "start = time.perf_counter()\n"
            f"sys.path[:0] = [{str(src)!r}, {str(HERE)!r}]\n"
            "import workloads\n"
            "print(time.perf_counter() - start)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


class Verdict:
    """Failure accounting across every pass of the run."""

    def __init__(self, items, reference: Optional[Dict[str, str]]) -> None:
        self.items = [item.name for item in items]
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: Problems that belong to no single item.
        self.problems: List[str] = []

    def judge(self, p: Pass, label: str) -> None:
        for name in self.items:
            self.attempted += 1
            problem = None
            if name in p.errors:
                problem = p.errors[name].strip().splitlines()[-1]
            elif self.reference is not None and \
                    p.digests[name] != self.reference.get(name):
                problem = (f"digest {p.digests[name]} != reference "
                           f"{self.reference.get(name)}")
            if problem is not None:
                self.failed += 1
                self.notes.append(f"{label} {name}: {problem}")


def summed(outcomes: Dict[str, object]) -> Dict[str, int]:
    from workloads import COUNTERS

    return {key: sum(o.counters[key] for o in outcomes.values())
            for key in COUNTERS}


def p99(outcomes: Dict[str, object]) -> float:
    from repro.network.stats import LatencySummary

    merged = LatencySummary()
    for outcome in outcomes.values():
        merged.merge(outcome.latency)
    return merged.p99


def per_item_host(passes: List[Pass], names: List[str]) -> Dict[str, float]:
    return {name: statistics.median([p.host_s[name] for p in passes])
            for name in names}


def end_to_end(passes: List[Pass], names: List[str], import_cost: float,
               counts: Dict[str, int]) -> Dict[str, tuple]:
    """Host times in reference seconds (calibrate.py): each item's host
    time over the calibration loop timed around it, times REFERENCE_S."""
    from calibrate import REFERENCE_S

    wall = REFERENCE_S * sum(
        statistics.median([p.host_s[name] / p.calib_s[name] for p in passes])
        for name in names)
    item_setup = statistics.median(
        [sum(p.setup_s[name] / p.calib_s[name] for name in names)
         for p in passes])
    setup = REFERENCE_S * (import_cost + item_setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_ref_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "sim_cycles_per_ref_s": (counts["sim_cycles"] / wall, "cycles/s"),
        "msgs_per_ref_s": (counts["messages"] / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload: str, untraced: List[Pass], traced: List[Pass],
              names: List[str], counts: Dict[str, int],
              latency_p99: float) -> Dict[str, tuple]:
    from spans import LAYERS
    from workloads import WORKLOADS

    split = []
    for p in traced:
        layers = p.tracer.layer_self()
        layers["bench"] = p.wall_s - sum(layers.values())
        split.append(layers)
    self_s = {layer: statistics.median([layers[layer] for layers in split])
              for layer in LAYERS}
    tracer = traced[0].tracer
    wall = sum(per_item_host(untraced, names).values())
    traced_wall = sum(per_item_host(traced, names).values())
    calib = statistics.median([c for p in untraced for c in p.calib_s.values()])

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    hits = counts["network.route_cache_hits"]
    lookups = hits + counts["network.route_cache_misses"]
    metrics = {
        "network.self_s": (self_s["network"], "s"),
        "network.us_per_message":
            (ratio(self_s["network"], counts["network.messages"], 1e6), "us"),
        "network.step_calls": (tracer.calls("Fabric.step"), "count"),
        "network.advance_calls": (tracer.calls("Fabric.advance"), "count"),
        "network.send_calls": (tracer.calls("Fabric.send"), "count"),
        "network.messages": (counts["network.messages"], "count"),
        "network.block_cycles": (counts["network.block_cycles"], "cycles"),
        "network.delivery_stall_cycles":
            (counts["network.delivery_stall_cycles"], "cycles"),
        "network.latency_p99_cycles": (latency_p99, "cycles"),
        "network.route_cache_hit_ratio": (ratio(hits, lookups), "ratio"),
        "traffic.self_s": (self_s["traffic"], "s"),
        "core.self_s": (self_s["core"], "s"),
        "core.tick_calls": (tracer.calls("Mdp.tick"), "count"),
        "core.ns_per_instruction":
            (ratio(self_s["core"], counts["core.instructions"], 1e9), "ns"),
        "core.instructions": (counts["core.instructions"], "count"),
        "core.dispatches": (counts["core.dispatches"], "count"),
        "core.send_faults": (counts["core.send_faults"], "count"),
        "core.busy_cycles": (counts["core.busy_cycles"], "cycles"),
        "machine.self_s": (self_s["machine"], "s"),
        "machine.sim_cycles": (counts["machine.sim_cycles"], "cycles"),
        "jsim.self_s": (self_s["jsim"], "s"),
        "jsim.us_per_event":
            (ratio(self_s["jsim"], counts["jsim.events"], 1e6), "us"),
        "jsim.messages": (counts["jsim.messages"], "count"),
        "jsim.threads": (counts["jsim.threads"], "count"),
        "jsim.sim_cycles": (counts["jsim.sim_cycles"], "cycles"),
        "apps.self_s": (self_s["apps"], "s"),
        "apps.instructions_charged":
            (counts["apps.instructions_charged"], "count"),
        "bench.self_s": (self_s["bench"], "s"),
        "wall_s": (wall, "s"),
        "sim_cycles_per_s": (counts["sim_cycles"] / wall, "cycles/s"),
        "msgs_per_s": (counts["messages"] / wall, "1/s"),
        "instr_per_s": (counts["instructions"] / wall, "1/s"),
        "calib_s": (calib, "s"),
        "trace.overhead_s": (traced_wall - wall, "s"),
    }
    host = per_item_host(untraced, names)
    for other, items in WORKLOADS.items():
        for item in items:
            value = host[item.name] if other == workload else 0.0
            metrics[f"{other}.{item.name}.host_s"] = (value, "s")
    return metrics


def print_items(workload: str, untraced: List[Pass], names: List[str]) -> None:
    host = per_item_host(untraced, names)
    setup = {name: statistics.median([p.setup_s[name] for p in untraced])
             for name in names}
    first = untraced[0]
    print(f"# {workload}: {len(untraced)} untraced pass(es) of "
          f"{', '.join(f'{p.wall_s:.3f}' for p in untraced)} s; per item, "
          f"median host seconds and exact work counts")
    print(f"# {'item':<14} {'host_s':>8} {'setup_s':>8} {'sim_cycles':>10} "
          f"{'messages':>9} {'instr':>9} {'blocked':>9}  digest")
    for name in names:
        outcome = first.outcomes.get(name)
        c = outcome.counters if outcome is not None else {}
        print(f"# {name:<14} {host[name]:8.3f} {setup[name]:8.3f} "
              f"{c.get('sim_cycles', 0):>10} {c.get('messages', 0):>9} "
              f"{c.get('instructions', 0):>9} "
              f"{c.get('network.block_cycles', 0):>9}  "
              f"{first.digests.get(name, 'FAILED')}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's digests to digests.json "
                             "(default seed only)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {src}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Pin the small-scale problem sizes whatever the environment says.
    os.environ.pop("JM_SCALE", None)
    start = time.perf_counter()
    import workloads  # the simulator itself

    own_import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("digests are recorded for the default seed only")
    items = workloads.WORKLOADS[args.workload]
    names = [item.name for item in items]

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    reference = (recorded.get(args.workload)
                 if args.seed == DEFAULT_SEED and not args.record_digests
                 else None)

    if args.trace == 0:
        import_cost = import_loops(src, own_import_s)
    untraced: List[Pass] = []
    traced: List[Pass] = []
    begin = time.perf_counter()
    last = 0.0
    while True:
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        start = time.perf_counter()
        (traced if want_traced else untraced).append(
            run_pass(items, args.seed, want_traced))
        last = time.perf_counter() - start
        enough = untraced and (args.trace == 0 or traced)
        if enough and time.perf_counter() - begin + last > args.seconds:
            break

    # The first clean pass is the reference for every other pass; for
    # the default seed the recorded digests are, and they must agree.
    verdict = Verdict(items, reference)
    if reference is None:
        clean = next((p for p in untraced if not p.errors), None)
        verdict.reference = dict(clean.digests) if clean is not None else None
    for i, p in enumerate(untraced):
        verdict.judge(p, f"pass {i}")
    for i, p in enumerate(traced):
        verdict.judge(p, f"traced pass {i}")
    if verdict.reference is None:
        verdict.problems.append("no pass completed every item")
    span_counts = {tuple((name, record[1]) for name, record
                         in sorted(p.tracer.spans.items())) for p in traced}
    if len(span_counts) > 1:
        verdict.problems.append("span call counts differ between traced passes")

    good = next((p for p in untraced if not p.errors), untraced[0])
    counts = summed(good.outcomes)
    print_items(args.workload, untraced, names)
    for note in verdict.notes + verdict.problems:
        print(f"# FAILED {note}")
    print(f"# failed_frac {verdict.failed / verdict.attempted:.4f} "
          f"({verdict.failed}/{verdict.attempted}); workload digest "
          f"{workloads.workload_digest(good.digests)}")

    if args.record_digests:
        if verdict.failed or good.errors:
            print("# not recording digests from a failing run", file=sys.stderr)
            return 1
        recorded[args.workload] = good.digests
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    if args.trace == 0:
        metrics = end_to_end(untraced, names, import_cost, counts)
    else:
        metrics = per_layer(args.workload, untraced, traced, names, counts,
                            p99(good.outcomes))
        tracer = traced[0].tracer
        for name in sorted(tracer.spans):
            layer, calls, total, self_time = tracer.spans[name]
            print(f"# span {name:<30} {layer:<8} calls {calls:>9} "
                  f"total {total:8.3f}s self {self_time:8.3f}s")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": verdict.failed == 0 and not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
