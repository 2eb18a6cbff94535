"""Cycle-level checkpoint/resume: bit-identical to uninterrupted runs.

The determinism contract (docs/SNAPSHOT.md): checkpoint at any safe
point, restore in a fresh machine, run to the end — final architectural
state AND the sha256 telemetry event-stream digest match the
uninterrupted run exactly.  Enforced plainly, under an active chaos
plan, and for files written before the capture dropped keys.
"""

import pytest

from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.chaos.harness import event_fingerprint
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.snapshot import (CheckpointPolicy, load_machine, read_header,
                            read_snapshot, write_snapshot)
from repro.telemetry import Telemetry

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

STALL_SPECS = (FaultSpec(kind="stall", node=2, start=30, duration=40),)


def _build(specs=()):
    machine = JMachine(MachineConfig(dims=(4, 2, 1)), telemetry=Telemetry())
    program = assemble(ECHO)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    if specs:
        ChaosEngine(FaultPlan(seed=3, specs=tuple(specs))) \
            .attach_machine(machine)
    for i in range(8):
        machine.inject(i, program.entry("echo"),
                       [Word.from_int((i + 3) % 8), Word.from_int(100 + i)],
                       source=(i + 1) % 8)
    return machine


def _digest(machine):
    regs = [[str(node.proc.registers[p].read(r))
             for p in (Priority.P0, Priority.P1)
             for r in ("R0", "R1", "R2", "A0", "A3")]
            for node in machine.nodes]
    return {
        "now": machine.now,
        "registers": regs,
        "counters": [dict(node.proc.counters.__dict__)
                     for node in machine.nodes],
        "deliveries": machine.deliveries_committed,
        "fingerprint": event_fingerprint(machine.telemetry.events),
        "chaos": ((dict(machine.chaos.counters), list(machine.chaos.log))
                  if machine.chaos is not None else None),
    }


def _interrupted(tmp_path, specs=(), every=40):
    """Run with checkpointing, 'crash', restore, finish; both digests."""
    path = str(tmp_path / "cycle.ckpt")
    first = _build(specs=specs)
    first.checkpoint = CheckpointPolicy(path, every=every)
    first.run(max_cycles=20_000)
    assert first.checkpoint.saves >= 1, "checkpoint policy never fired"
    resumed = load_machine(path)
    assert resumed.now == read_header(path)["meta"]["now"]
    resumed.run(max_cycles=20_000)
    return _digest(first), _digest(resumed)


class TestSerialResume:
    def test_plain(self, tmp_path):
        reference = _build()
        reference.run(max_cycles=20_000)
        finished, resumed = _interrupted(tmp_path)
        assert finished == _digest(reference)  # checkpointing is free
        assert resumed == _digest(reference)

    @pytest.mark.parametrize("specs", [
        (FaultSpec(kind="drop", rate=0.3), FaultSpec(kind="corrupt",
                                                     rate=0.2)),
        STALL_SPECS,
        (FaultSpec(kind="kill", node=3, start=53),),
    ], ids=["drop-corrupt", "stall", "kill"])
    def test_under_chaos(self, tmp_path, specs):
        """Named-stream RNG positions resume exactly: the replayed tail
        makes the same drop/corrupt decisions, so the event-stream
        digests match an uninterrupted chaos run's."""
        reference = _build(specs=specs)
        reference.run(max_cycles=20_000)
        _, resumed = _interrupted(tmp_path, specs=specs)
        assert resumed == _digest(reference)

    def test_restore_is_state_identical_at_capture(self, tmp_path):
        path = str(tmp_path / "mid.ckpt")
        machine = _build()
        machine.checkpoint = CheckpointPolicy(path, every=25)
        machine.run(max_cycles=20_000)
        restored = load_machine(path)
        from repro.snapshot import capture_machine

        recapture = capture_machine(restored)
        header_now = read_header(path)["meta"]["now"]
        assert recapture["now"] == header_now == restored.now

    def test_resumed_machine_restores_again(self, tmp_path):
        """Checkpoints taken from a resumed run are as good as firsts."""
        path_a = str(tmp_path / "a.ckpt")
        path_b = str(tmp_path / "b.ckpt")
        reference = _build()
        reference.run(max_cycles=20_000)

        first = _build()
        first.checkpoint = CheckpointPolicy(path_a, every=20)
        first.run(max_cycles=20_000)
        second = load_machine(path_a)
        second.checkpoint = CheckpointPolicy(path_b, every=4)
        second.run(max_cycles=20_000)
        assert second.checkpoint.saves >= 1
        third = load_machine(path_b)
        third.run(max_cycles=20_000)
        assert _digest(third) == _digest(reference)


class TestOlderCaptures:
    def test_removed_backend_keys_are_ignored(self, tmp_path):
        """FORMAT_VERSION 1 files from before the sharded backend and
        the numpy lanes were removed carry a ``parallel_shards`` config
        field, three ``parallel_*`` machine keys and the fabric's
        ``vector_threshold``; they still resume digest-exactly."""
        reference = _build(specs=STALL_SPECS)
        reference.run(max_cycles=20_000)

        path = str(tmp_path / "new.ckpt")
        first = _build(specs=STALL_SPECS)
        first.checkpoint = CheckpointPolicy(path, every=40)
        first.run(max_cycles=20_000)
        header, payload = read_snapshot(path)
        # Pickling the config with the extra instance attribute writes
        # exactly what a dataclass with that field used to write.
        payload["config"].__dict__["parallel_shards"] = 2
        payload["parallel_shards"] = 2
        payload["parallel_skip_reason"] = None
        payload["parallel_skips"] = 1
        payload["fabric"]["vector_threshold"] = 24
        old_path = str(tmp_path / "old.ckpt")
        write_snapshot(old_path, "cycle", payload, meta=header["meta"])
        assert read_snapshot(old_path)[1]["config"].parallel_shards == 2

        resumed = load_machine(old_path)
        assert resumed.config == MachineConfig(dims=(4, 2, 1))
        assert "parallel_shards" not in vars(resumed.config)
        resumed.run(max_cycles=20_000)
        assert _digest(resumed) == _digest(reference)

    def test_worms_from_before_the_event_driven_fabric(self, tmp_path):
        """Worms pickled before the fabric parked and streamed them lack
        the scheduler's slots; such a capture, taken while worms stream
        through the mesh, still resumes digest-exactly."""
        reference = _build(specs=STALL_SPECS)
        reference.run(max_cycles=20_000)

        first = _build(specs=STALL_SPECS)
        first.checkpoint = CheckpointPolicy(
            str(tmp_path / "c_{cycle}.ckpt"), every=15)
        first.run(max_cycles=20_000)
        header, payload = read_snapshot(str(tmp_path / "c_30.ckpt"))
        fabric = payload["fabric"]
        worms = list(fabric["active"]) + [w for _, _, w in fabric["staged"]]
        worms += [w for queue in fabric["pending"].values() for w in queue]
        assert len(fabric["active"]) >= 4
        for worm in worms:
            for slot in ("state", "since", "wait", "wake_at", "watched"):
                delattr(worm, slot)
        old_path = str(tmp_path / "old.ckpt")
        write_snapshot(old_path, "cycle", payload, meta=header["meta"])

        resumed = load_machine(old_path)
        resumed.run(max_cycles=20_000)
        assert _digest(resumed) == _digest(reference)

