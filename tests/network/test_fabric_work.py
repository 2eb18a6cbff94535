"""The event-driven fabric visits only worms whose state can change.

Host timings are too noisy to gate on, so this counts the work itself:
calls of the per-worm visit function on a saturated point.  Visiting
every in-flight worm every cycle took 245,520 calls here; parking
blocked worms and streaming reserved worms in closed form must keep the
count far below that while the statistics stay exactly the same.
"""

from repro.network.fabric import Fabric
from repro.network.topology import Mesh3D
from repro.network.traffic import RandomTrafficExperiment

#: ``_step_worm`` calls of the per-cycle stepper on this point.
EVERY_WORM_EVERY_CYCLE = 245_520


def test_saturated_point_visits_few_worms(monkeypatch):
    visits = [0]
    step_worm = Fabric._step_worm

    def counting(self, worm, now):
        visits[0] += 1
        return step_worm(self, worm, now)

    monkeypatch.setattr(Fabric, "_step_worm", counting)
    experiment = RandomTrafficExperiment(Mesh3D(6, 6, 6), 16, 0, seed=1)
    result = experiment.run(500, 1500)
    stats = experiment.fabric.stats

    assert visits[0] <= EVERY_WORM_EVERY_CYCLE // 4
    assert (stats.submitted, stats.completed, stats.block_cycles,
            stats.delivery_stall_cycles) == (3202, 3033, 122769, 0)
    assert (stats.latency.count, stats.latency.total, stats.latency.min,
            stats.latency.max) == (3033, 330143, 41, 645)
    assert (stats.window_completed, stats.window_bisection_words,
            stats.window_message_words) == (2274, 18448, 36384)
    assert result.iterations == 1134
    assert result.mean_round_trip_cycles == 237.5
