"""The terminal dashboard renders real frames without post-processing.

docs/OBSERVABILITY.md §7: ``render_frame`` turns one
:class:`SamplePoint` into the header / utilization heatmap / queue
bars / counters block, and ``watch_sampler`` drives it headlessly
(``--plain``) from a sampler's ring — the mode ``make live-smoke``
exercises end to end.
"""

import io

from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.runtime.rpc import run_ping
from repro.telemetry import LiveSampler, SamplePoint, SamplePolicy, Telemetry
from repro.telemetry.watch import render_frame, watch_sampler


def _sampled_ping():
    telemetry = Telemetry()
    machine = JMachine(MachineConfig(dims=(2, 2, 1)), telemetry=telemetry)
    sampler = LiveSampler(SamplePolicy(every_cycles=50)).attach(
        machine, run_limit=400)
    run_ping(machine, 0, 3, iterations=4)
    assert sampler.samples >= 2
    return sampler


class TestRenderFrame:
    def test_real_frame_has_every_section(self):
        sampler = _sampled_ping()
        frames = list(sampler.points)
        text = render_frame(frames[-1], frames[-2])
        assert "J-Machine live" in text
        assert f"t={frames[-1].sim_now}" in text
        assert "src=serial" in text
        assert "utilization" in text
        assert "queue high water" in text
        assert "health:" in text
        # run_limit was pinned at attach, so the header carries the
        # progress bar and percentage.
        assert "%" in text and "[" in text

    def test_stalled_frame_shows_banner(self):
        point = SamplePoint(
            seq=1, sim_now=100, wall_s=2.0, source="serial",
            metrics={"machine.cycles": 100.0},
            derived={"stalled": 1, "stalled_wall_s": 1.5},
            stall={"nodes_implicated": 3, "nodes": []})
        text = render_frame(point)
        assert "STALL" in text
        assert "3" in text

    def test_minimal_frame_renders_without_nodes(self):
        point = SamplePoint(0, 0, 0.0, "serial", {"machine.cycles": 0.0},
                            {})
        text = render_frame(point)
        assert "J-Machine live" in text


class TestWatchSampler:
    def test_plain_mode_drains_finished_ring(self):
        sampler = _sampled_ping()
        screen = io.StringIO()
        shown = watch_sampler(sampler, done=lambda: True, plain=True,
                              out=screen)
        assert shown == len(sampler.points)
        rendered = screen.getvalue()
        assert rendered.count("J-Machine live") == shown
        assert "\x1b[" not in rendered          # plain mode: no ANSI

    def test_max_frames_caps_output(self):
        sampler = _sampled_ping()
        screen = io.StringIO()
        shown = watch_sampler(sampler, done=lambda: True, plain=True,
                              max_frames=1, out=screen)
        assert shown == 1


class TestFabricPane:
    def test_probed_frame_grows_fabric_pane(self):
        telemetry = Telemetry()
        machine = JMachine(MachineConfig(dims=(2, 2, 1), fabric_probe=True),
                           telemetry=telemetry)
        sampler = LiveSampler(SamplePolicy(every_cycles=50)).attach(
            machine, run_limit=400)
        run_ping(machine, 0, 3, iterations=4)
        text = render_frame(sampler.latest())
        assert "fabric:" in text and "links observed" in text
        assert "hot links (phits, *=midplane):" in text
        assert "link load: dim=X" in text

    def test_unprobed_frame_has_no_fabric_pane(self):
        text = render_frame(_sampled_ping().latest())
        assert "hot links" not in text
        assert "link load:" not in text
