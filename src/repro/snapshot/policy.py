"""When to checkpoint: the periodic auto-save policy.

A :class:`CheckpointPolicy` is handed to a simulator via its
``checkpoint`` attribute; the run loops consult it at their safe points
(the cycle loop's top, the macro event loop's top) and call
:meth:`save` when :meth:`due` says so.  The policy deliberately knows
nothing about the simulator beyond its ``save(path, run_limit=...)``
method, so one class serves both levels.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["CheckpointPolicy"]


class CheckpointPolicy:
    """Save to ``path`` every ``every`` simulated cycles.

    ``path`` may contain ``{cycle}``, expanded to the capture cycle so
    successive checkpoints keep distinct files (a plain path is
    overwritten in place — crash-safe, see ``write_snapshot``).

    The first ``due`` call only arms the clock: a checkpoint at cycle 0
    would capture the state the caller already has.  Arming also sweeps
    any orphaned ``*.tmp.<pid>`` siblings of ``path`` left by a writer
    that died mid-checkpoint (:func:`~repro.snapshot.format
    .sweep_stale_tmp`) — the policy taking ownership of the path family
    is the one moment such leftovers are provably stale.
    """

    def __init__(self, path: str, every: int = 100_000,
                 meta: Optional[dict] = None) -> None:
        if every <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.path = path
        self.every = every
        #: Extra header metadata stamped into every save (e.g. which
        #: scenario to rebuild before a macro restore).
        self.meta = meta
        self.next_due: Optional[int] = None
        #: Number of checkpoints written, and the last file's path —
        #: what tests and the smoke harness assert on.
        self.saves = 0
        self.last_path: Optional[str] = None
        self.last_header: Optional[dict] = None
        #: Stale temp files removed when the policy armed.
        self.swept: list = []

    def due(self, now: int) -> bool:
        """Is a checkpoint due at simulated time ``now``?  O(1)."""
        if self.next_due is None:
            self.next_due = now + self.every
            from .format import sweep_stale_tmp

            self.swept = sweep_stale_tmp(self.path)
            return False
        return now >= self.next_due

    def save(self, target, run_limit: Optional[int] = None,
             at: Optional[int] = None) -> str:
        """Checkpoint ``target`` (a machine or macro sim) and re-arm.

        ``at`` overrides the cycle the clock re-arms from — the macro
        loop passes the *next event's* time, since its own clock only
        advances when that event is processed.
        """
        reached = target.now if at is None else at
        path = self.path.format(cycle=reached)
        self.last_header = target.save(path, run_limit=run_limit,
                                       meta=self.meta)
        self.next_due = reached + self.every
        self.saves += 1
        self.last_path = path
        return path
