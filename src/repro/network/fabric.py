"""Flit-level simulation of the J-Machine's wormhole-routed 3-D mesh.

The model follows the published channel parameters: each channel moves one
phit (half a 36-bit word) per cycle, so channel bandwidth is 0.5
words/cycle; the head flit advances one hop per cycle when unblocked
(Section 2.1).  Worms hold every virtual channel between their tail and
head; when the head blocks, body flits pile into the small per-hop
buffers and the worm stalls in place — which is how congestion propagates
backpressure all the way to the sending processor (whose ``SEND``
instructions then take send faults, Section 4.3.2).

Modelling choices, and why they preserve the paper's behaviour:

* **Virtual channel per priority.**  Priority-1 worms are arbitrated
  before priority-0 worms everywhere, matching "priority one messages
  receive preference during channel arbitration".
* **Fixed-priority arbitration.**  Contenders for a channel are examined
  in a fixed deterministic order: priority class first, then through
  traffic ahead of locally-injecting worms — the MDP router's unfair
  fixed input-port priority, under which "nodes may be unable to inject
  a message into the network for an arbitrarily long period" (Section
  4.3.2, the radix-sort starvation).  ``arbitration="round_robin"``
  selects the fair alternative.
* **Aggregate worm state.**  Rather than tracking every flit, each worm
  keeps counts of injected/delivered phits and the span of held channels;
  phits stream at one per cycle through that span, with ``BUFFER_PHITS``
  of slack per held channel.  This reproduces cut-through latency
  (head latency + 2 cycles/word of streaming), blocking, and progressive
  tail release at a fraction of the bookkeeping cost.  Stepping visits
  only worms whose state can change: a blocked head with nothing left
  to inject *parks* on the owned channel until its release, and a worm
  holding its ejection port with delivery reserved *streams* in closed
  form (its counts and tail releases are functions of elapsed cycles)
  until its injection-done or completion cycle.  Both are exact: every
  statistic equals the per-cycle model's after each step.
* **End-to-end interface latency.**  ``inject_latency`` and
  ``eject_latency`` model the pipeline stages between processor and
  network; their defaults are calibrated so a null self-ping's two
  network traversals cost the paper's 24 cycles (Section 3.1).
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.costs import CostModel, DEFAULT_COSTS
from ..core.errors import ConfigurationError, DeadlockError
from ..core.message import Message
from ..core.registers import Priority
from .observatory import FabricProbe
from .routing import ChannelKey, INJECT, route
from .stats import NetworkStats
from .topology import Mesh3D

__all__ = ["Fabric", "Worm", "BUFFER_PHITS", "FRAMING_PHITS"]

#: Phits of buffering per held channel (router latch + channel register).
BUFFER_PHITS = 2

#: Per-message wire overhead: the routing head phit and the tail marker.
#: This is what keeps very short messages below peak channel bandwidth
#: (Figure 4: 2-word messages reach just over half of peak; 8-word
#: messages reach 90%).
FRAMING_PHITS = 2

#: Calibration: cycles a worm spends in the sending interface pipeline.
DEFAULT_INJECT_LATENCY = 2

#: Calibration: cycles from last phit at router to message queued.
DEFAULT_EJECT_LATENCY = 5

AcceptFn = Callable[[int, Message], bool]
DeliverFn = Callable[[int, Message, int], None]


#: Worm scheduling states (see :meth:`Fabric._cycle`).
_RUN, _PARKED, _STREAM = 0, 1, 2

_AKEY = attrgetter("akey")


class Worm:
    """One message in flight: a worm of phits snaking through the mesh."""

    __slots__ = (
        "message", "path", "keys", "hops", "total_phits", "head", "released",
        "injected", "delivered", "reserved", "submit_time", "launch_time",
        "seq", "block_cycles", "crosses_bisection", "done", "pri", "akey",
        "state", "since", "wait", "wake_at", "watched",
    )

    def __init__(
        self,
        message: Message,
        path: Tuple[ChannelKey, ...],
        keys: Tuple[Tuple[int, int, int, int], ...],
        hops: int,
        total_phits: int,
        crosses_bisection: bool,
        seq: int,
    ) -> None:
        self.message = message
        #: Shared route tuples from the fabric's per-pair cache; worms
        #: must never mutate them.
        self.path = path
        self.keys = keys
        self.hops = hops
        self.total_phits = total_phits
        self.head = -1          # index of furthest acquired channel
        self.released = 0       # channels [0, released) have been freed
        self.injected = 0       # phits that have left the source interface
        self.delivered = 0      # phits absorbed at the destination
        self.reserved = False   # destination queue space reserved
        self.submit_time = 0
        self.launch_time: Optional[int] = None
        self.seq = seq
        self.block_cycles = 0
        self.crosses_bisection = crosses_bisection
        self.done = False
        #: Cached ``int(message.priority)`` (hot in arbitration).
        self.pri = int(message.priority)
        #: Cached fixed-arbitration sort key ``(-pri, through, seq)``;
        #: the through flag flips to 0 when the head leaves the
        #: injection port (see :meth:`Fabric._step_worm`).
        self.akey = (-self.pri, 1, seq)
        _reset_schedule(self)


def _reset_schedule(worm: Worm) -> None:
    """Put a worm back on the run list's books (fresh or restored)."""
    worm.state = _RUN
    worm.since = 0        # cycle it left the run list (parked/streaming)
    worm.wait = None      # channel key a parked worm waits on
    worm.wake_at = None   # cycle of its one live timer, if any
    worm.watched = False  # some worm parked on one of its channels


class Fabric:
    """The whole network: channels, arbitration, and worm progression.

    The fabric is cycle stepped: the owner (a machine or a synthetic
    traffic harness) calls :meth:`step` once per simulated cycle while
    :attr:`active` is truthy.  Message hand-off to nodes goes through two
    callbacks so the fabric stays independent of what a "node" is:

    * ``accept_fn(node, message) -> bool`` — may the destination take this
      message now?  (Queue-full refusal is how backpressure starts.)
    * ``deliver_fn(node, message, now)`` — the message has fully arrived.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        accept_fn: AcceptFn,
        deliver_fn: DeliverFn,
        costs: CostModel = DEFAULT_COSTS,
        inject_latency: int = DEFAULT_INJECT_LATENCY,
        eject_latency: int = DEFAULT_EJECT_LATENCY,
        arbitration: str = "fixed",
        flow_control: str = "block",
    ) -> None:
        if arbitration not in ("fixed", "round_robin"):
            raise ConfigurationError(f"unknown arbitration {arbitration!r}")
        if flow_control not in ("block", "return_to_sender"):
            raise ConfigurationError(f"unknown flow control {flow_control!r}")
        self.mesh = mesh
        self.accept_fn = accept_fn
        self.deliver_fn = deliver_fn
        self.costs = costs
        self.inject_latency = inject_latency
        self.eject_latency = eject_latency
        self.arbitration = arbitration
        self.flow_control = flow_control
        self._owner: Dict[Tuple[int, int, int, int], Worm] = {}
        #: The run list: worms stepped next cycle.  In-flight worms not
        #: on it are parked in :attr:`_waiters` or streaming.
        self._active: List[Worm] = []
        #: Parked worms by the channel key whose owner blocks them.
        self._waiters: Dict[Tuple[int, int, int, int], List[Worm]] = {}
        #: Heap of (cycle, seq, worm): streaming worms' next event and
        #: parked worms' re-check time; stale when ``wake_at`` differs.
        self._timers: List[Tuple[int, int, Worm]] = []
        #: Channel keys freed during the current worm step that have
        #: waiters (consumed by :meth:`_wake`).
        self._freed: List[Tuple[int, int, int, int]] = []
        self._n_parked = 0
        self._n_stream = 0
        #: Last cycle stepped: streaming worms' closed form is relative
        #: to it between cycles.
        self._clock = -1
        self._pending: Dict[Tuple[int, int], Deque[Worm]] = {}
        self._pending_count = 0
        #: Heap of (release_time, seq, worm); seq keeps same-cycle
        #: releases in submission order, matching the old list scan.
        self._staged: List[Tuple[int, int, Worm]] = []
        #: (source, dest, pclass) -> (path, keys, hops, crosses): the
        #: route is a pure function of the pair, so recomputing it per
        #: message is wasted work on all-to-all traffic.
        self._route_cache: Dict[
            Tuple[int, int, int],
            Tuple[Tuple[ChannelKey, ...], Tuple[Tuple[int, int, int, int], ...],
                  int, bool],
        ] = {}
        #: Bound + traffic counters for the per-pair route cache
        #: (exported as ``net.route_cache.*`` by the telemetry wiring).
        self.route_cache_max = 1 << 17
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self._seq = 0
        self.stats = NetworkStats(mesh)
        #: Optional callback fired once per worm when its tail has fully
        #: left the sending interface (frees the node's send buffer).
        self.on_injected: Optional[Callable[[Message], None]] = None
        #: When True, per-channel phit counts are accumulated in
        #: :attr:`channel_phits` (keyed by (node, dim, dir)) — used by
        #: the channel-load studies; off by default for speed.
        self.track_channel_load = False
        self.channel_phits: Dict[Tuple[int, int, int], int] = {}
        #: Deadlock watchdog: if no worm moves a phit for this many
        #: consecutive cycles while worms are active, :meth:`step`
        #: raises with a diagnostic.  0 disables.
        self.watchdog_cycles = 0
        self._stagnant_cycles = 0
        #: Telemetry event bus (installed by repro.telemetry.wiring).
        self._events = None
        #: Fault-injection engine (installed by
        #: :meth:`repro.chaos.ChaosEngine.attach_machine`); None keeps
        #: every injection site on its cheap ``is None`` branch.
        self.chaos = None
        #: Fabric observatory probe
        #: (:class:`~repro.network.observatory.FabricProbe`); None keeps
        #: every accumulation site on its cheap ``is None`` branch so
        #: un-probed runs stay bit-identical.
        self.probe: Optional[FabricProbe] = None

    def attach_probe(self, now: int = 0) -> FabricProbe:
        """Attach (and return) a fresh observatory probe.

        Call before traffic starts so utilization denominators cover the
        whole run; re-attaching discards previous counters.
        """
        self.probe = FabricProbe(opened_at=now)
        return self.probe

    # ------------------------------------------------------------------ send

    def send(self, message: Message, now: int) -> None:
        """Submit a message; it will be injected when its turn comes.

        Messages from one (node, priority) pair inject strictly in order:
        a worm cannot enter the network until the previous worm's tail has
        left the injection port.
        """
        worm = self._make_worm(message, now)
        # Model the send-interface pipeline as a staging delay.
        heapq.heappush(self._staged, (now + self.inject_latency, worm.seq, worm))
        self.stats.submitted += 1
        if self._events is not None:
            t = message.trace
            if t is None:
                self._events.emit("send", now, message.source,
                                  int(message.priority), dest=message.dest,
                                  words=message.length)
            else:
                self._events.emit("send", now, message.source,
                                  int(message.priority), dest=message.dest,
                                  words=message.length,
                                  trace=t[0], span=t[1], parent=t[2])

    def _make_worm(self, message: Message, now: int) -> Worm:
        if not 0 <= message.dest < self.mesh.n_nodes:
            raise ConfigurationError(f"destination {message.dest} outside mesh")
        pclass = int(message.priority)
        cache_key = (message.source, message.dest, pclass)
        entry = self._route_cache.get(cache_key)
        if entry is None:
            self.route_cache_misses += 1
            path = route(self.mesh, message.source, message.dest)
            keys = tuple(
                (node, dim, direction, pclass)
                for (node, dim, direction) in path
            )
            crosses = self.mesh.crosses_x_midplane(message.source, message.dest)
            if len(self._route_cache) >= self.route_cache_max:
                self._route_cache.clear()  # bounded even on huge meshes
            entry = (path, keys, len(path) - 2, crosses)
            self._route_cache[cache_key] = entry
        else:
            self.route_cache_hits += 1
        path, keys, hops, crosses = entry
        total_phits = self.costs.phits_per_word * message.length + FRAMING_PHITS
        worm = Worm(message, path, keys, hops, total_phits, crosses, self._seq)
        self._seq += 1
        worm.submit_time = now
        if message.inject_time is None:
            message.inject_time = now
        return worm

    @property
    def active(self) -> bool:
        """True while any worm is staged, pending, or in the mesh."""
        return bool(self._active or self._n_stream or self._staged
                    or self._pending_count or self._n_parked)

    @property
    def worms_in_flight(self) -> int:
        return len(self._active) + self._n_parked + self._n_stream

    def _in_flight(self) -> List[Worm]:
        """Every worm in the mesh: runnable, parked, and streaming."""
        worms = list(self._active)
        for waiting in self._waiters.values():
            worms.extend(waiting)
        worms.extend([worm for when, _, worm in self._timers
                      if worm.state == _STREAM and worm.wake_at == when])
        return worms

    def injection_quiet_cycles(self) -> Optional[int]:
        """A lower bound on cycles until any ``on_injected`` callback.

        A worm with ``r`` phits left to inject streams at most one phit
        per cycle, so its source's send buffer cannot be freed for at
        least ``r`` more cycles; staged and pending worms have their
        whole payload ahead of them.  Returns None when every worm has
        fully injected (no release can ever fire from current traffic).
        The machine uses this to let fast-path blocks run ahead while
        the fabric is busy.
        """
        best: Optional[int] = None
        clock = self._clock
        for worm in self._in_flight():
            remaining = worm.total_phits - worm.injected
            if remaining > 0 and worm.state == _STREAM:
                remaining -= clock - worm.since  # closed form, not stored
            if remaining > 0 and (best is None or remaining < best):
                best = remaining
        for queue in self._pending.values():
            for worm in queue:
                if best is None or worm.total_phits < best:
                    best = worm.total_phits
        for _, _, worm in self._staged:
            if best is None or worm.total_phits < best:
                best = worm.total_phits
        return best

    # ------------------------------------------------------------------ step

    def _release_staged(self, now: int) -> None:
        """Move staged worms whose release time has come into the
        per-(source, priority) pending queues, in submission order."""
        staged = self._staged
        probe = self.probe
        while staged and staged[0][0] <= now:
            _, _, worm = heapq.heappop(staged)
            queue_key = (worm.message.source, worm.pri)
            queue = self._pending.get(queue_key)
            if queue is None:
                queue = self._pending[queue_key] = deque()
            queue.append(worm)
            self._pending_count += 1
            if probe is not None:
                probe.record_queue_depth(queue_key[0], len(queue))

    def _activate_pending(self, now: int) -> None:
        """Activate queue fronts whose injection port is free.

        Each (source, priority) queue contends only for its own
        injection port, so scan order across queues is immaterial;
        empty queues are pruned so the scan stays proportional to the
        number of *waiting* worms, not of sources ever seen.  Ports are
        claimed before any worm steps, so a streaming holder's port is
        free only if its closed-form release cycle has passed.
        """
        owner = self._owner
        pending = self._pending
        for queue_key, queue in list(pending.items()):
            worm = queue[0]
            holder = owner.get(worm.keys[0])
            if holder is not None and (holder.state != _STREAM
                                       or self._free_at(holder, 0) >= now):
                continue
            owner[worm.keys[0]] = worm
            worm.head = 0
            worm.launch_time = now
            queue.popleft()
            self._pending_count -= 1
            self._active.append(worm)
            if not queue:
                del pending[queue_key]

    def _sort_key(self, now: int) -> Callable[[Worm], tuple]:
        # Priority-1 worms are stepped (and hence arbitrate) first.
        # Within a class, "fixed" arbitration models the MDP router's
        # fixed input-port priority: worms already in the mesh (through
        # traffic) beat worms still at their injection port, so under
        # congestion a node "may be unable to inject a message ... for
        # an arbitrarily long period" (Section 4.3.2).  "round_robin"
        # rotates precedence across source nodes each cycle — the fair
        # alternative.
        if self.arbitration == "fixed":
            return _AKEY
        n = self.mesh.n_nodes
        return lambda w: (-w.pri, (w.message.source - now) % n, w.seq)

    def step(self, now: int) -> None:
        """Advance every worm by one cycle of network time."""
        self._cycle(now)

    def advance(self, now: int, horizon: int) -> int:
        """Simulate cycles ``[now, end)`` in one call; returns ``end``.

        Exactly ``step(now) .. step(end - 1)``.  The window ends early
        when a worm finishes, at ``completion + eject_latency``: the
        delivery commit the caller (the machine's run loop) must
        observe.  The caller guarantees a *quiet window*: nothing but
        the fabric acts before ``horizon``.
        """
        eject = self.eject_latency
        end = horizon
        c = now
        while c < end:
            if self._cycle(c) and c + eject < end:
                end = c + eject
            c += 1
            if not self.active:
                break  # the fabric drained inside the window
        return c

    def _cycle(self, now: int) -> bool:
        """One cycle of network time; True if a worm finished.

        Only worms whose state can change this cycle are visited.  A
        worm whose head an owner blocks, and which made no injection
        progress, *parks* on that channel until it is released; its
        block cycles are added in bulk.  A worm holding its ejection
        port with delivery reserved *streams*: its phits advance one
        per cycle in closed form (:meth:`_free_at`, :meth:`_catch_up`)
        and it is visited again only at its injection-done or
        completion cycle.  Everything else is the per-cycle worm model
        of :meth:`_step_worm`, visited in arbitration order.
        """
        if self._staged and self._staged[0][0] <= now:
            self._release_staged(now)
        if self._pending_count:
            self._activate_pending(now)
        run = self._active
        timers = self._timers
        while timers and timers[0][0] <= now:
            when, _, worm = heapq.heappop(timers)
            if worm.wake_at != when:
                continue  # superseded
            if worm.state == _STREAM:
                self._catch_up(worm, now - 1)
                self._n_stream -= 1
                worm.state = _RUN
                worm.wake_at = None
            else:
                waiting = self._waiters[worm.wait]
                waiting.remove(worm)
                if not waiting:
                    del self._waiters[worm.wait]
                self._unpark(worm, now)
            run.append(worm)
        if self._freed:
            self._wake(run, now)
        self._clock = now
        finished = False
        moved_any = self._n_stream > 0  # streaming worms deliver a phit
        fresh_keys = ()  # channels of worms parked during this cycle
        if run:
            fixed = self.arbitration == "fixed"
            key = _AKEY if fixed else self._sort_key(now)
            if len(run) > 1:
                run.sort(key=key)
            keep: List[Worm] = []
            watch = self.watchdog_cycles
            before = 0
            fresh_keys = []
            freed = self._freed
            step_worm = self._step_worm
            run_state, parked = _RUN, _PARKED
            # Same-cycle wakes are inserted ahead of the iterator (``i``
            # is the index of the next worm), which a list iterator then
            # visits.
            for i, worm in enumerate(run, 1):
                current = worm.akey  # this cycle's key; the step may flip it
                if watch:
                    before = worm.injected + worm.delivered + worm.head
                done = step_worm(worm, now)
                if done:
                    finished = True
                elif worm.state == run_state:
                    keep.append(worm)
                elif worm.state == parked:
                    fresh_keys.append(worm.wait)
                if watch and (done or before != (worm.injected
                                                 + worm.delivered + worm.head)):
                    moved_any = True
                if freed:
                    self._wake(run, now, i, key,
                               current if fixed else key(worm))
            self._active = keep
        elif not (self._n_parked or self._n_stream):
            return False
        if self._n_parked > len(fresh_keys):
            self._book_parked(fresh_keys)
        if self.watchdog_cycles:
            self._stagnant_cycles = 0 if moved_any else self._stagnant_cycles + 1
            if self._stagnant_cycles >= self.watchdog_cycles:
                self._raise_stagnation(now)
        return finished

    def _book_parked(self, fresh_keys) -> None:
        """One blocked cycle for every worm parked before this cycle
        (those in ``fresh_keys`` parked during it, already counted)."""
        counted = self._n_parked - len(fresh_keys)
        self.stats.block_cycles += counted
        probe = self.probe
        if probe is not None:
            probe.stall_channel_busy += counted
            blocked = probe.link_blocked
            for channel, waiting in self._waiters.items():
                link = channel[:3]
                blocked[link] = blocked.get(link, 0) + len(waiting)
            for channel in fresh_keys:
                blocked[channel[:3]] -= 1

    def _step_worm(self, worm: Worm, now: int) -> bool:
        """Advance one worm one cycle; True if it completed delivery."""
        last = len(worm.keys) - 1
        moved = False
        blocked_by = recheck = None

        # 1. Head acquisition: one hop per cycle when the next VC is free
        #    *and* the link is up (chaos link outages hold the head in
        #    place exactly like contention, so backpressure — and, if the
        #    outage persists, deadlock — propagates realistically).
        if worm.head < last:
            key = worm.keys[worm.head + 1]
            holder = self._owner.get(key)
            if holder is not None and holder.state == _STREAM:
                # Released in closed form: free once this worm's turn at
                # the release cycle has come, else look again then.
                recheck = self._first_free(holder, holder.keys.index(key),
                                           worm)
                if recheck <= now:
                    holder = None
            if holder is None and (self.chaos is None
                                   or not self.chaos.link_blocked(key, now)):
                self._owner[key] = worm
                worm.head += 1
                if worm.head == 1:
                    # Left the injection port: now "through traffic",
                    # which fixed arbitration favours.
                    worm.akey = (-worm.pri, 0, worm.seq)
                moved = True
            else:
                worm.block_cycles += 1
                self.stats.block_cycles += 1
                if self.probe is not None:
                    self.probe.record_block(key, holder is None)
                # Outages can end any cycle: those heads keep polling.
                blocked_by = holder

        # 2. Delivery: once the ejection port is held, stream phits out.
        if worm.head == last:
            if not worm.reserved:
                message = worm.message
                is_bounce = getattr(message, "bounce_of", None) is not None
                if is_bounce or self.accept_fn(message.dest, message):
                    worm.reserved = True
                elif self.flow_control == "return_to_sender":
                    # Refused: turn the worm around instead of blocking
                    # the network (the critique's proposed protocol).
                    self._bounce(worm, now)
                    return True
                else:
                    self.stats.delivery_stall_cycles += 1
                    if self.probe is not None:
                        self.probe.record_backpressure(message.dest)
            if worm.reserved and worm.delivered < min(worm.total_phits, worm.injected):
                worm.delivered += 1
                moved = True
                if worm.delivered == worm.total_phits:
                    self._complete(worm, now)
                    return True

        # 3. Injection: the source streams one phit per cycle while the
        #    held span has buffer slack.
        if worm.injected < worm.total_phits:
            span = worm.head - worm.released + 1
            if worm.injected - worm.delivered < BUFFER_PHITS * span:
                worm.injected += 1
                moved = True
                if (worm.injected == worm.total_phits and self.on_injected
                        and worm.message.bounce_of is None
                        and not worm.message.injection_reported):
                    worm.message.injection_reported = True
                    self.on_injected(worm.message)

        # 4. Tail release: after full injection the tail advances with the
        #    pipe, freeing channels behind the in-flight span.
        if moved and worm.injected == worm.total_phits:
            in_flight = worm.injected - worm.delivered
            span_needed = max(1, -(-in_flight // BUFFER_PHITS))
            target = worm.head - span_needed + 1
            if worm.released < target:
                self._release_to(worm, target)

        if blocked_by is not None:
            if not moved:
                # Nothing changes for this worm until the owner lets go.
                self._park(worm, blocked_by, key, now, recheck)
        elif worm.head == last and worm.reserved:
            self._stream(worm, now)
        return False

    # ------------------------------------------------- parking and streaming

    def _first_free(self, holder: Worm, index: int, worm: Worm) -> int:
        """First cycle at which ``worm`` finds streaming ``holder``'s
        channel ``index`` free: the release cycle itself if ``worm``
        arbitrates after the holder then, else the cycle after."""
        free_at = self._free_at(holder, index)
        if self.arbitration == "fixed":
            after = worm.akey > holder.akey
        else:
            order = self._sort_key(free_at)
            after = order(worm) > order(holder)
        return free_at if after else free_at + 1

    def _park(self, worm: Worm, holder: Worm, key, now: int,
              recheck: Optional[int]) -> None:
        worm.state = _PARKED
        worm.wait = key
        worm.since = now
        waiting = self._waiters.get(key)
        if waiting is None:
            self._waiters[key] = [worm]
        else:
            waiting.append(worm)
        self._n_parked += 1
        if recheck is not None:  # the holder is streaming
            self._set_timer(worm, recheck)
        else:
            holder.watched = True  # see _stream

    def _unpark(self, worm: Worm, now: int) -> None:
        """Book a parked worm's skipped block cycles; it steps at ``now``."""
        worm.block_cycles += now - 1 - worm.since
        worm.state = _RUN
        worm.wait = None
        worm.wake_at = None
        self._n_parked -= 1

    def _set_timer(self, worm: Worm, when: int) -> None:
        worm.wake_at = when
        heapq.heappush(self._timers, (when, worm.seq, worm))

    def _stream(self, worm: Worm, now: int) -> None:
        """Switch a reserved worm at its ejection port to closed form.

        With the whole path held and delivery reserved nothing can block
        it: ``injected`` and ``delivered`` each gain one phit per cycle
        (capped at ``total_phits``) and the tail releases channels as
        the in-flight span shrinks.  The worm is visited again only when
        ``on_injected`` must fire and when it completes.
        """
        worm.state = _STREAM
        worm.since = now
        self._n_stream += 1
        total = worm.total_phits
        if self.on_injected is not None and worm.injected < total:
            self._set_timer(worm, now + total - worm.injected)
        else:
            self._set_timer(worm, now + total - worm.delivered)
        # Heads parked behind this worm would wait for a release event
        # that streaming never sends: re-check at the closed-form cycle.
        if not worm.watched:
            return
        worm.watched = False
        waiters = self._waiters
        keys = worm.keys
        for index in range(worm.released, len(keys)):
            waiting = waiters.get(keys[index])
            if waiting:
                for other in waiting:
                    if other.wake_at is None:
                        self._set_timer(
                            other, self._first_free(worm, index, other))

    def _free_at(self, worm: Worm, index: int) -> int:
        """Cycle in which streaming ``worm`` releases ``keys[index]``.

        Delivery completes at ``done``; after full injection the tail
        frees channel ``j`` once at most ``2 * (last - j)`` phits remain
        in flight, the last channel at completion.
        """
        total = worm.total_phits
        since = worm.since
        done = since + total - worm.delivered
        injected_at = since + max(1, total - worm.injected)
        return max(injected_at, done - BUFFER_PHITS * (len(worm.keys) - 1 - index))

    def _catch_up(self, worm: Worm, cycle: int) -> None:
        """Write a streaming worm's closed-form state at the end of
        ``cycle`` back into its fields and the owner map."""
        elapsed = cycle - worm.since
        if elapsed <= 0:
            return
        total = worm.total_phits
        worm.injected = min(total, worm.injected + elapsed)
        worm.delivered += elapsed
        worm.since = cycle
        if worm.injected == total:
            in_flight = total - worm.delivered
            target = len(worm.keys) - max(1, -(-in_flight // BUFFER_PHITS))
            if worm.released < target:
                self._release_to(worm, target)

    def _wake(self, run: List[Worm], now: int, pos: Optional[int] = None,
              key=None, releaser=None) -> None:
        """Wake the waiters of every channel in :attr:`_freed`.

        Inside the worm loop (``pos`` set) a waiter arbitrating after the
        releaser acquires in this same cycle, so it joins ``run`` at its
        place; the others saw the channel busy this cycle and re-check
        on the next.  Between worm steps every waiter joins ``run``.
        """
        for channel in self._freed:
            waiting = self._waiters.pop(channel, None)
            if waiting is None:
                continue
            stay = []
            for worm in waiting:
                if pos is None:
                    self._unpark(worm, now)
                    run.append(worm)
                elif key(worm) > releaser:
                    self._unpark(worm, now)
                    # Binary-search its slot in the sorted rest of ``run``.
                    order, lo, hi = key(worm), pos, len(run)
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if order < key(run[mid]):
                            hi = mid
                        else:
                            lo = mid + 1
                    run.insert(lo, worm)
                else:
                    self._set_timer(worm, now + 1)
                    stay.append(worm)
            if stay:
                self._waiters[channel] = stay
        self._freed.clear()

    def _release_to(self, worm: Worm, target: int) -> None:
        """Free the worm's channels ``[released, target)``, noting those
        with waiters in :attr:`_freed`."""
        owner = self._owner
        waiters = self._waiters
        keys = worm.keys
        for index in range(worm.released, target):
            key = keys[index]
            if owner.get(key) is worm:
                del owner[key]
                if key in waiters:
                    self._freed.append(key)
        worm.released = target

    def _complete(self, worm: Worm, now: int) -> None:
        """Tail arrived: free remaining channels, hand the message over."""
        self._release_to(worm, len(worm.keys))
        worm.done = True
        arrival = now + self.eject_latency
        original = getattr(worm.message, "bounce_of", None)
        if original is not None:
            # A returned message reached its sender: retry the original
            # after the interface re-processes it.
            retry_worm = self._make_worm(original, now)
            heapq.heappush(self._staged,
                           (arrival + self.inject_latency, retry_worm.seq,
                            retry_worm))
            return
        if self.chaos is not None:
            verdict = self.chaos.fabric_verdict(worm.message, now)
            if verdict == 1:  # dropped: the message vanishes in transit
                self.stats.drops += 1
                return
            if verdict == 2:  # corrupted: delivered, but checksum-dead
                worm.message.corrupted = True
        worm.message.arrive_time = arrival
        if self.track_channel_load:
            # Every phit crossed every channel of the path exactly once.
            for channel in worm.path:
                if channel[1] < INJECT:  # mesh channels only
                    self.channel_phits[channel] = (
                        self.channel_phits.get(channel, 0) + worm.total_phits
                    )
        if self.probe is not None:
            self.probe.record_completion(worm)
        self.deliver_fn(worm.message.dest, worm.message, arrival)
        self.stats.record_completion(worm, arrival)

    def _bounce(self, worm: Worm, now: int) -> None:
        """Return-to-sender: free the path and send the message back."""
        self._release_to(worm, len(worm.keys))
        worm.done = True
        self.stats.bounces += 1
        original = worm.message
        returned = Message(
            original.words,
            source=original.dest,
            dest=original.source,
            priority=original.priority,
        )
        returned.bounce_of = original
        returned.trace = original.trace  # one span covers the round trip
        returned.inject_time = now
        bounce_worm = self._make_worm(returned, now)
        heapq.heappush(self._staged, (now + 1, bounce_worm.seq, bounce_worm))

    def _raise_stagnation(self, now: int) -> None:
        """Watchdog trip: describe every stuck worm and fail loudly."""
        stuck = sorted(self._in_flight(), key=self._sort_key(now))
        details = []
        for worm in stuck[:8]:
            blocker = None
            if worm.head + 1 < len(worm.keys):
                owner = self._owner.get(worm.keys[worm.head + 1])
                blocker = owner.message if owner else None
            details.append(
                f"{worm.message!r} head={worm.head}/{len(worm.path) - 1} "
                f"blocked_by={blocker!r}"
            )
        if self._events is not None:
            self._events.emit("watchdog", now, -1, name="net-stagnation",
                              worms=len(stuck))
        raise DeadlockError(
            f"network made no progress for {self.watchdog_cycles} cycles "
            f"at t={now}; {len(stuck)} worms stuck:\n  "
            + "\n  ".join(details),
            now=now,
            worms_in_flight=len(stuck),
        )

    # ------------------------------------------------------- snapshot contract

    #: Attributes :meth:`state_dict` deliberately does NOT capture.
    #: Constructor wiring belongs to whoever built the fabric (the
    #: machine or a harness) and is re-established by fresh construction
    #: on restore.  The scheduler's books (parked and streaming worms,
    #: timers, the clock) are derived: a capture records every worm's
    #: per-cycle state and :meth:`load_state` puts all of them back on
    #: the run list, where they re-park or re-stream on their first
    #: step.  tests/snapshot/test_contracts.py asserts that captured
    #: + external covers every instance attribute, so a new attribute
    #: cannot silently vanish from checkpoints.
    EXTERNAL_ATTRS = frozenset({
        "mesh", "accept_fn", "deliver_fn", "costs", "inject_latency",
        "eject_latency", "arbitration", "flow_control", "on_injected",
        "_events", "chaos",
        "_waiters", "_timers", "_freed", "_n_parked", "_n_stream", "_clock",
    })

    def state_dict(self) -> dict:
        """Every run-mutable piece of fabric state, picklable.

        Worms are captured by reference (they pickle via ``__slots__``),
        so the sharing structure — one worm appearing as a channel owner,
        in the active list, and in a pending queue — survives the
        round trip through the snapshot's single pickle.  Parked and
        streaming worms are first brought up to date in place (which
        changes nothing the run will do), so the capture holds exactly
        the per-cycle state and the format predates the scheduler.
        """
        clock = self._clock
        for worm in self._in_flight():
            if worm.state == _STREAM:
                self._catch_up(worm, clock)
            elif worm.state == _PARKED:
                worm.block_cycles += clock - worm.since
                worm.since = clock
        if self._freed:
            self._wake(self._active, clock + 1)
        return {
            "owner": dict(self._owner),
            "active": self._in_flight(),
            "pending": {key: list(queue)
                        for key, queue in self._pending.items()},
            "pending_count": self._pending_count,
            "staged": list(self._staged),
            "route_cache": dict(self._route_cache),
            "route_cache_max": self.route_cache_max,
            "route_cache_hits": self.route_cache_hits,
            "route_cache_misses": self.route_cache_misses,
            "seq": self._seq,
            "stats": self.stats,
            "track_channel_load": self.track_channel_load,
            "channel_phits": dict(self.channel_phits),
            "watchdog_cycles": self.watchdog_cycles,
            "stagnant_cycles": self._stagnant_cycles,
            "probe": self.probe,
        }

    def load_state(self, state: dict) -> None:
        """Install a :meth:`state_dict` capture into this fabric.

        The fabric must have been constructed with the same topology and
        wiring as the captured one; everything in
        :data:`EXTERNAL_ATTRS` is left untouched.  Keys this method does
        not read (left in older captures) are ignored.
        """
        self._owner = dict(state["owner"])
        self._active = list(state["active"])
        self._pending = {key: deque(queue)
                         for key, queue in state["pending"].items() if queue}
        self._pending_count = state["pending_count"]
        self._staged = list(state["staged"])
        for worm in self._active + [w for _, _, w in self._staged] + [
                w for queue in self._pending.values() for w in queue]:
            _reset_schedule(worm)
        self._waiters = {}
        self._timers = []
        self._freed = []
        self._n_parked = self._n_stream = 0
        self._route_cache = dict(state["route_cache"])
        self.route_cache_max = state["route_cache_max"]
        self.route_cache_hits = state["route_cache_hits"]
        self.route_cache_misses = state["route_cache_misses"]
        self._seq = state["seq"]
        self.stats = state["stats"]
        self.stats.mesh = self.mesh
        self.track_channel_load = state["track_channel_load"]
        self.channel_phits = dict(state["channel_phits"])
        self.watchdog_cycles = state["watchdog_cycles"]
        self._stagnant_cycles = state["stagnant_cycles"]
        # Absent in pre-observatory captures: restore to un-probed.
        self.probe = state.get("probe")

    # ---------------------------------------------------------------- helpers

    def drain(self, now: int, max_cycles: int = 1_000_000) -> int:
        """Step until the network is empty; returns the finishing cycle.

        Only valid when message delivery does not trigger new sends (the
        synthetic micro-benchmarks); machines drive :meth:`step` directly.
        """
        cycle = now
        end = now + max_cycles
        while self.active and cycle < end:
            self.step(cycle)
            cycle += 1
        if self.active:
            raise ConfigurationError(f"network failed to drain in {max_cycles} cycles")
        return cycle
