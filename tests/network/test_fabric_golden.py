"""Golden digests pinning the flit fabric's exact simulated behaviour.

Each case drives the fabric through a mode the end-to-end benchmark does
not reach (round-robin arbitration, return-to-sender bounces, destination
backpressure, mixed priorities, chaos link outages, the stagnation
watchdog, an attached probe, a mid-run checkpoint) and hashes what an
observer can see: statistics, delivery order and timing, experiment
results, probe counters.  The digests were recorded with the original
per-cycle stepper that visited every worm every cycle; any scheduling
change inside the fabric must leave every one of them unchanged.
"""

import dataclasses
import hashlib
import json
import pickle
import random

import pytest

from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.core.errors import DeadlockError
from repro.core.message import Message
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.network.fabric import Fabric
from repro.network.topology import Mesh3D
from repro.network.traffic import (RandomTrafficExperiment,
                                   TerminalBandwidthExperiment)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _summary(summary):
    return [summary.count, summary.total, summary.min, summary.max,
            list(summary.buckets)]


def _stats(stats):
    return {
        "submitted": stats.submitted,
        "completed": stats.completed,
        "block_cycles": stats.block_cycles,
        "delivery_stall_cycles": stats.delivery_stall_cycles,
        "bounces": stats.bounces,
        "drops": stats.drops,
        "latency": _summary(stats.latency),
        "window": [stats.window_completed, stats.window_bisection_words,
                   stats.window_message_words,
                   _summary(stats.window_latency)],
    }


# -- a scheduled-traffic driver over a bare fabric ---------------------------


def _schedule(seed, n_nodes, count, span, priorities=(Priority.P0,)):
    """``count`` messages (serial-numbered in their second word) at
    random cycles in ``[0, span)`` between random node pairs."""
    rng = random.Random(seed)
    sends = {}
    for serial in range(count):
        cycle = rng.randrange(span)
        source = rng.randrange(n_nodes)
        dest = rng.randrange(n_nodes)
        words = rng.choice((1, 2, 4, 8))
        priority = rng.choice(priorities)
        sends.setdefault(cycle, []).append(
            (serial, source, dest, words, priority))
    return sends


def _message(serial, source, dest, words, priority):
    body = [Word.ip(1), Word.from_int(serial)]
    body += [Word.from_int(0)] * (words - 2)
    return Message(body[:max(words, 1)], source=source, dest=dest,
                   priority=priority)


def _serial(message):
    return message.words[1].value if message.length > 1 else -1


class _Driver:
    """A bare fabric plus a delivery log; ``accept`` may refuse."""

    def __init__(self, mesh, accept=None, **fabric_kwargs):
        self.log = []
        self.refusals = {}
        self.accept_pattern = accept
        self.fabric = Fabric(mesh, self._accept, self._deliver,
                             **fabric_kwargs)

    def _accept(self, node, message):
        if self.accept_pattern is None:
            return True
        calls = self.refusals.get(node, 0)
        self.refusals[node] = calls + 1
        return self.accept_pattern(node, calls)

    def _deliver(self, node, message, now):
        self.log.append((node, _serial(message), message.source,
                         int(message.priority), now))

    def run(self, sends, start, stop):
        fabric = self.fabric
        for now in range(start, stop):
            for spec in sends.get(now, ()):
                fabric.send(_message(*spec), now)
            fabric.step(now)
        return stop

    def digest(self, extra=None):
        return _digest({"log": self.log, "stats": _stats(self.fabric.stats),
                        "active": self.fabric.active,
                        "in_flight": self.fabric.worms_in_flight,
                        "extra": extra})


def _traffic(arbitration="fixed", probe=False, dims=(4, 4, 2), words=8,
             idle=20, seed=7, warmup=300, measure=900):
    experiment = RandomTrafficExperiment(Mesh3D(*dims), words, idle,
                                         seed=seed)
    experiment.fabric.arbitration = arbitration
    if probe:
        experiment.fabric.attach_probe()
    result = experiment.run(warmup, measure)
    return experiment, dataclasses.asdict(result)


# -- the cases ----------------------------------------------------------------


class TestGolden:
    def test_round_robin_arbitration(self):
        experiment, result = _traffic("round_robin")
        assert _digest([result, _stats(experiment.fabric.stats)]) == \
            "3bd8612ff10923eb"

    def test_round_robin_saturated(self):
        experiment, result = _traffic("round_robin", words=16, idle=0)
        assert _digest([result, _stats(experiment.fabric.stats)]) == \
            "e7a7b2b14caeba05"

    def test_fixed_arbitration_saturated(self):
        experiment, result = _traffic("fixed", words=16, idle=0)
        assert _digest([result, _stats(experiment.fabric.stats)]) == \
            "f367ac2a8d976629"

    def test_return_to_sender_fabric(self):
        driver = _Driver(Mesh3D(4, 4, 1),
                         accept=lambda node, calls: calls % 3 == 2,
                         flow_control="return_to_sender")
        sends = _schedule(11, 16, 120, 300)
        driver.run(sends, 0, 3000)
        assert driver.fabric.stats.bounces > 0
        assert driver.digest() == "60c3ac89cc7c2910"

    def test_mixed_priorities(self):
        driver = _Driver(Mesh3D(4, 4, 2))
        sends = _schedule(12, 32, 300, 400,
                          priorities=(Priority.P0, Priority.P1))
        driver.run(sends, 0, 1500)
        assert not driver.fabric.active
        assert driver.digest() == "0e2368bda9fd233b"

    def test_destination_backpressure_fabric(self):
        driver = _Driver(Mesh3D(4, 4, 1),
                         accept=lambda node, calls: calls % 5 == 4 or node > 11)
        sends = _schedule(13, 16, 150, 300)
        driver.run(sends, 0, 2500)
        assert driver.fabric.stats.delivery_stall_cycles > 0
        assert driver.digest() == "81334686788794ad"

    @pytest.mark.parametrize("sink,words,expected", [
        ("imem", 2, "312f5a534f9e8cd3"),
        ("imem", 8, "725de673dca9a2a9"),
        ("emem", 4, "8611a97fac76716e"),
    ])
    def test_terminal_backpressure(self, sink, words, expected):
        experiment = TerminalBandwidthExperiment(words, sink)
        result = experiment.run(200, 1500)
        stats = experiment.fabric.stats
        assert stats.delivery_stall_cycles > 0
        assert _digest([dataclasses.asdict(result), _stats(stats)]) == \
            expected

    def test_chaos_link_outages(self):
        driver = _Driver(Mesh3D(4, 4, 1))
        engine = ChaosEngine(FaultPlan(seed=5, specs=(
            FaultSpec(kind="link", node=5, start=20, stop=160),
            FaultSpec(kind="link", node=10, start=60, stop=400),
            FaultSpec(kind="drop", rate=0.05),
        )))
        driver.fabric.chaos = engine
        sends = _schedule(14, 16, 150, 300)
        driver.run(sends, 0, 2000)
        assert engine.counters["link_blocks"] > 0
        assert driver.digest(extra=[dict(engine.counters),
                                    list(engine.log)]) == "d484e52bfff03a34"

    def test_watchdog_trip_cycle(self):
        driver = _Driver(Mesh3D(4, 2, 1),
                         accept=lambda node, calls: node != 3)
        driver.fabric.watchdog_cycles = 40
        sends = _schedule(15, 8, 60, 100)
        with pytest.raises(DeadlockError) as info:
            driver.run(sends, 0, 5000)
        err = info.value
        assert driver.digest(extra=[err.now, err.worms_in_flight,
                                    str(err)]) == "0720127de9af9423"

    def test_probe_counters(self):
        experiment, result = _traffic(probe=True, words=4, idle=0)
        probe = experiment.fabric.probe.to_dict()
        assert probe["stall_channel_busy"] > 0
        assert _digest([result, _stats(experiment.fabric.stats),
                        probe]) == "753e27552c746596"

    def test_probe_with_backpressure_and_outage(self):
        driver = _Driver(Mesh3D(4, 4, 1),
                         accept=lambda node, calls: calls % 4 == 3)
        driver.fabric.chaos = ChaosEngine(FaultPlan(seed=6, specs=(
            FaultSpec(kind="link", node=6, start=30, stop=200),)))
        driver.fabric.attach_probe()
        sends = _schedule(16, 16, 150, 300)
        driver.run(sends, 0, 2500)
        probe = driver.fabric.probe.to_dict()
        assert probe["stall_backpressure"] > 0
        assert probe["stall_link_outage"] > 0
        assert driver.digest(extra=probe) == "9b2afac46a391908"

    def test_midrun_state_dict_resume(self):
        sends = _schedule(17, 16, 200, 400)
        kwargs = dict(accept=lambda node, calls: calls % 3 != 1)
        whole = _Driver(Mesh3D(4, 4, 1), **kwargs)
        whole.fabric.attach_probe()
        whole.run(sends, 0, 2500)

        first = _Driver(Mesh3D(4, 4, 1), **kwargs)
        first.fabric.attach_probe()
        first.run(sends, 0, 180)
        assert first.fabric.worms_in_flight > 0
        captured = pickle.loads(pickle.dumps(
            (first.fabric.state_dict(), first.log, first.refusals)))
        resumed = _Driver(Mesh3D(4, 4, 1), **kwargs)
        state, resumed.log, resumed.refusals = captured
        resumed.fabric.load_state(state)
        first.run(sends, 180, 2500)      # the checkpointed run continues
        resumed.run(sends, 180, 2500)    # and so does its restored copy

        expected = "c889f1c21b488c55"
        for driver in (whole, first, resumed):
            assert driver.digest(
                extra=driver.fabric.probe.to_dict()) == expected


ECHO = """
echo:
    SEND  [A3+1]
    SEND  #IP:landing
    SENDE [A3+2]
    SUSPEND
landing:
    MOVE  [A3+1], [A0+0]
    SUSPEND
"""


def test_return_to_sender_machine():
    """Queue refusals on a small machine bounce instead of blocking."""
    machine = JMachine(MachineConfig(dims=(4, 2, 1), queue_words=8,
                                     flow_control="return_to_sender"))
    program = assemble(ECHO)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    for i in range(24):
        machine.inject(0, program.entry("echo"),
                       [Word.from_int((i * 3) % 8), Word.from_int(100 + i)],
                       source=(i % 7) + 1)
    end = machine.run(max_cycles=50_000)
    assert machine.fabric.stats.bounces > 0
    assert not machine.fabric.active
    assert _digest({
        "now": end,
        "stats": _stats(machine.fabric.stats),
        "deliveries": machine.deliveries_committed,
        "counters": [dict(node.proc.counters.__dict__)
                     for node in machine.nodes],
    }) == "f50265538e37b739"
