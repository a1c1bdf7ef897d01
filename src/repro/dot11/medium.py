"""The shared radio medium.

Stations register with the medium; a transmission is delivered, after its
airtime, to every registered station inside the sender's transmission
range (disc propagation) — or to the addressed station only, for unicast
frames.  Positions are evaluated lazily via ``position_at(now)`` so moving
stations need no position-update events.

Two fidelity modes share all delivery logic:

* ``frame``  — every probe response in a burst is its own scheduled
  delivery event (used by tests and small runs);
* ``burst``  — one event delivers the whole response burst and the
  receiver applies the same window arithmetic analytically (used by the
  12-hour Fig. 5 sweeps).  An integration test pins the two modes to
  identical hit counts.

Loss comes in two independent flavours.  The uniform ``loss_rate``
drops each frame as an independent coin flip (``1.0`` is a total
blackout).  ``burst_loss`` additionally runs a
:class:`~repro.faults.gilbert.GilbertElliottChannel` whose losses
cluster the way real channel contention clusters them; it draws from a
dedicated ``faults.channel`` RNG stream and counts every drop under the
``faults.frames_lost`` metric, so enabling it never perturbs the
uniform channel's draws and a run without it is byte-identical to one
built before bursty loss existed.  Neither is assigned after
construction, so a lossless channel (``loss_rate`` 0, no chain) is
recognised once there and skips the loss call for every recipient.

Spatial index
-------------

Broadcast recipient resolution historically scanned every attached
station per frame — O(N) per probe, O(N²)-ish per urban-scale run.  The
medium now keeps a :class:`~repro.geo.grid.MutableSpatialGrid` of
station positions and resolves broadcast recipients from the cells
around the sender instead.  The index is *provably a pure accelerator*:

* Stations carrying a finite speed bound (``max_speed_mps``; phones
  derive it from their :meth:`~repro.mobility.base.PathMobility.max_speed`)
  are binned at their last refresh position.  A query at time ``now``
  inflates the search radius by ``v_max * (now - refresh_time)``, so a
  station that walked since the refresh can never be missed; candidates
  are then re-checked with the exact same distance predicate as the
  brute-force scan.  The grid is refreshed lazily, at most once per
  ``index_refresh_s`` of simulated time, rebinning only stations whose
  cell changed.
* Stations without a speed bound live in an always-scanned side set —
  exactness never depends on cooperative station classes.
* Candidates are re-ordered by attach sequence before delivery, so loss
  draws and ``receive`` callbacks happen in the identical order as the
  brute-force path.
* Stochastic propagation models (``propagation.deterministic`` False)
  consume one RNG draw per *candidate*, so the index automatically
  falls back to the brute-force scan for them.

Probe-request listeners
-----------------------

Most stations drop every probe request they hear: phones, detectors,
alias BSSIDs and the deauth emitter declare so with the class attribute
``hears_probe_requests = False``; stations without it hear them.  The
index keeps two populations, listeners and the rest, each with its own
grid, side set and refresh clock.  A broadcast ``ProbeRequest`` is
resolved against the listeners alone whenever the channel draws no
randomness per recipient (deterministic propagation, ``loss_rate`` 0,
no Gilbert–Elliott chain): then the stations it skips would only have
dropped the frame, so every receive that does something, every RNG draw
and every metric is unchanged.  On a lossy or stochastic channel each
recipient takes its loss or propagation draw whether or not it listens,
so skipping one would shift every later draw; there, and for every
other broadcast frame, both populations are merged in attach order.
Skipped deliveries are not counted in ``frames_delivered`` and leave no
lineage record.

``REPRO_MEDIUM_INDEX=off`` (or the ``index=False`` argument) forces the
brute-force path, which hands every probe request to every station in
range; the differential test suite pins the two paths to bit-identical
deliveries to every station that acts on them, loss draws and run
metrics.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import ContextManager, Dict, List, Optional, Protocol, Sequence

from repro.dot11.frames import Frame, ProbeRequest, ProbeResponse
from repro.dot11.mac import BROADCAST_MAC, MacAddress
from repro.dot11.propagation import DiscPropagation, Propagation
from repro.faults.gilbert import GilbertElliottChannel
from repro.faults.plan import GilbertElliottParams
from repro.geo.grid import MutableSpatialGrid
from repro.geo.point import Point
from repro.sim.simulation import Simulation
from repro.util.rng import BufferedUniform
from repro.util.settings import resolve_bool_env
from repro.util.units import MANAGEMENT_FRAME_AIRTIME_S, PROBE_RESPONSE_AIRTIME_S

MEDIUM_INDEX_ENV = "REPRO_MEDIUM_INDEX"

DEFAULT_INDEX_CELL_M = 60.0
"""Grid cell edge — about one attacker radio range, so a broadcast
query touches a 3×3 block of cells."""

DEFAULT_INDEX_REFRESH_S = 0.5
"""Maximum staleness of cached station positions.  At walking speeds
(≤ 3 m/s) this costs at most 1.5 m of query-radius inflation."""


def resolve_medium_index(index: Optional[bool] = None) -> bool:
    """Whether the spatial index is enabled: explicit argument, else
    ``REPRO_MEDIUM_INDEX`` (default on; ``0/off/false/no`` disable)."""
    if index is not None:
        return index
    return resolve_bool_env(MEDIUM_INDEX_ENV, True)


def reach_with_motion(reach: float, v_max: float, dt: float) -> float:
    """Radio reach inflated by the worst-case motion over ``dt`` seconds.

    A station binned (or bounded) ``dt`` seconds ago can have moved at
    most ``v_max * dt`` metres, so any query within this inflated radius
    is a guaranteed superset of the stations truly within ``reach`` —
    the invariant behind both the medium's lazy index refresh and the
    shard engine's candidate-sensor stripes
    (:mod:`repro.sim.shards.shard`).
    """
    if dt <= 0:
        return reach
    return reach + v_max * dt


class Station(Protocol):
    """What the medium requires of anything attached to it.

    Stations *may* additionally expose ``max_speed_mps`` (metres per
    second, or None when unbounded); the spatial index only bins
    stations whose displacement it can bound, and scans the rest.
    They *may* also set ``hears_probe_requests = False`` when their
    ``receive`` drops every :class:`~repro.dot11.frames.ProbeRequest`;
    the index then skips them for broadcast probe requests on channels
    that draw no randomness per recipient (see the module docstring).
    """

    mac: MacAddress

    def position_at(self, time: float) -> Point:
        """Location of the station at simulation time ``time``."""
        ...

    def receive(self, frame: Frame, time: float) -> None:
        """Handle one delivered frame."""
        ...


def _speed_bound(station: Station) -> Optional[float]:
    bound = getattr(station, "max_speed_mps", None)
    if bound is None:
        return None
    bound = float(bound)
    if bound < 0 or bound != bound or bound == float("inf"):
        return None
    return bound


class _Population:
    """Attached stations binned in one spatial grid with its own clock.

    Stations with a speed bound are binned at their position at the last
    refresh; the rest live in an always-scanned side set.
    """

    __slots__ = ("grid", "speeds", "unindexed", "vmax", "grid_time")

    def __init__(self, cell_m: float):
        self.grid: MutableSpatialGrid[MacAddress] = MutableSpatialGrid(cell_m)
        self.speeds: Dict[MacAddress, float] = {}
        self.unindexed: Dict[MacAddress, Station] = {}
        self.vmax = 0.0
        self.grid_time = float("-inf")

    def add(self, station: Station, now: float) -> None:
        bound = _speed_bound(station)
        if bound is None:
            self.unindexed[station.mac] = station
            return
        self.speeds[station.mac] = bound
        if bound > self.vmax:
            self.vmax = bound
        # Binned at now (>= the last refresh time), so the refresh-based
        # radius inflation also covers stations binned between sweeps.
        self.grid.insert(station.mac, station.position_at(now))

    def discard(self, mac: MacAddress) -> None:
        self.unindexed.pop(mac, None)
        if self.speeds.pop(mac, None) is not None:
            self.grid.remove(mac)
        # vmax stays conservative until the next refresh recomputes it.

    def refresh(
        self, stations: Dict[MacAddress, Station], now: float, every_s: float
    ) -> bool:
        """Rebin moving stations unless the last sweep is under
        ``every_s`` old; True when it swept."""
        if now - self.grid_time < every_s:
            return False
        grid = self.grid
        vmax = 0.0
        for mac, bound in self.speeds.items():
            if bound > 0.0:
                grid.move(mac, stations[mac].position_at(now))
                if bound > vmax:
                    vmax = bound
        self.vmax = vmax
        self.grid_time = now
        return True

    def candidates(self, pos: Point, reach: float, now: float) -> List[MacAddress]:
        """A superset of the members within ``reach`` of ``pos`` at ``now``."""
        radius = reach_with_motion(reach, self.vmax, now - self.grid_time)
        macs = self.grid.candidates(pos, radius)
        if self.unindexed:
            macs.extend(self.unindexed)
        return macs


class Medium:
    """Disc-propagation broadcast medium with per-station TX range."""

    def __init__(
        self,
        sim: Simulation,
        fidelity: str = "frame",
        loss_rate: float = 0.0,
        propagation: Optional[Propagation] = None,
        burst_loss: Optional[GilbertElliottParams] = None,
        index: Optional[bool] = None,
        index_cell_m: float = DEFAULT_INDEX_CELL_M,
        index_refresh_s: float = DEFAULT_INDEX_REFRESH_S,
    ):
        if fidelity not in ("frame", "burst"):
            raise ValueError("fidelity must be 'frame' or 'burst', got %r" % fidelity)
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1], got %r" % loss_rate)
        if index_refresh_s < 0:
            raise ValueError(
                "index_refresh_s must be non-negative, got %r" % index_refresh_s
            )
        self.sim = sim
        self.fidelity = fidelity
        self.loss_rate = loss_rate
        self.propagation = propagation if propagation is not None else DiscPropagation()
        self._stations: Dict[MacAddress, Station] = {}
        self._ranges: Dict[MacAddress, float] = {}
        self._monitors: Dict[MacAddress, Station] = {}
        self._rng = sim.rngs.stream("medium")
        self.frames_delivered = 0
        self.fault_frames_lost = 0
        # Cached once: the lineage branch must cost a single falsy check
        # on the hot path when tracing is off.
        self._lineage = sim.lineage if sim.lineage.enabled else None
        self._burst_loss: Optional[GilbertElliottChannel] = None
        if burst_loss is not None:
            self._burst_loss = GilbertElliottChannel(
                burst_loss, sim.rngs.stream("faults.channel")
            )
        self._lossless = loss_rate <= 0.0 and self._burst_loss is None
        deterministic = bool(getattr(self.propagation, "deterministic", False))
        # With deterministic propagation the "medium" stream's only
        # consumer is the uniform loss draw, so it can be served from a
        # bit-identical batched buffer; a stochastic model interleaves
        # its own draws on the same stream and forbids read-ahead.
        self._uniform: Optional[BufferedUniform] = (
            BufferedUniform(self._rng) if deterministic else None
        )
        self._index_on = resolve_medium_index(index) and deterministic
        self._seq: Dict[MacAddress, int] = {}
        self._seq_next = 0
        self._refresh_s = index_refresh_s
        # Probe-request listeners, and every other station.
        self._listeners = _Population(index_cell_m)
        self._others = _Population(index_cell_m)
        self.index_queries = 0
        self.index_candidates = 0
        self.index_refreshes = 0

    @property
    def burst_loss(self) -> Optional[GilbertElliottChannel]:
        """The live Gilbert–Elliott chain (None without channel faults)."""
        return self._burst_loss

    @property
    def index_active(self) -> bool:
        """Whether broadcast recipients are resolved through the grid."""
        return self._index_on

    # -- membership -------------------------------------------------------

    def attach(
        self, station: Station, tx_range: float, promiscuous: bool = False
    ) -> None:
        """Register ``station`` with transmission range ``tx_range`` metres.

        ``promiscuous`` stations additionally overhear every frame in
        radio range regardless of its destination address — monitor mode,
        as used by the evil-twin detectors.
        """
        if tx_range <= 0:
            raise ValueError("tx_range must be positive, got %r" % tx_range)
        mac = station.mac
        if mac not in self._seq:
            # Dict insertion order is delivery order; a re-attach keeps
            # its original dict slot, so it keeps its sequence too.
            self._seq[mac] = self._seq_next
            self._seq_next += 1
        self._stations[mac] = station
        self._ranges[mac] = tx_range
        if promiscuous:
            self._monitors[mac] = station
        if self._index_on:
            self._listeners.discard(mac)
            self._others.discard(mac)
            if getattr(station, "hears_probe_requests", True):
                self._listeners.add(station, self.sim.now)
            else:
                self._others.add(station, self.sim.now)

    def detach(self, mac: MacAddress) -> None:
        """Remove a station; unknown MACs are ignored (already gone)."""
        self._stations.pop(mac, None)
        self._ranges.pop(mac, None)
        self._monitors.pop(mac, None)
        self._seq.pop(mac, None)
        if self._index_on:
            self._listeners.discard(mac)
            self._others.discard(mac)

    def is_attached(self, mac: MacAddress) -> bool:
        """Whether a station with this MAC is currently registered."""
        return mac in self._stations

    @property
    def station_count(self) -> int:
        """Number of attached stations."""
        return len(self._stations)

    # -- propagation ------------------------------------------------------

    def _in_range(self, sender: Station, receiver: Station, time: float) -> bool:
        reach = self._ranges[sender.mac]
        distance = sender.position_at(time).distance_to(
            receiver.position_at(time)
        )
        return self.propagation.delivered(distance, reach, self._rng)

    def _fault_lost(self) -> bool:
        """One Gilbert–Elliott step; counts the drop when it happens."""
        if self._burst_loss is None or not self._burst_loss.lost():
            return False
        self.fault_frames_lost += 1
        self.sim.metrics.inc("faults.frames_lost", model="gilbert-elliott")
        return True

    def _lost(self) -> bool:
        if self._lossless:
            return False
        if self._fault_lost():
            return True
        if self.loss_rate <= 0.0:
            return False
        if self._uniform is not None:
            return self._uniform.next() < self.loss_rate
        return self._rng.random() < self.loss_rate

    def _candidates(
        self, population: _Population, pos: Point, reach: float, now: float
    ) -> List[MacAddress]:
        if population.refresh(self._stations, now, self._refresh_s):
            self.index_refreshes += 1
        return population.candidates(pos, reach, now)

    def _broadcast_recipients(
        self, sender: Station, frame: Frame, time: float
    ) -> List[Station]:
        """Every station (sender excluded) in range, in attach order."""
        sender_mac = sender.mac
        reach = self._ranges[sender_mac]
        pos = sender.position_at(time)
        delivered = self.propagation.delivered
        rng = self._rng
        stations = self._stations
        if not self._index_on:
            return [
                st
                for mac, st in stations.items()
                if mac != sender_mac
                and delivered(pos.distance_to(st.position_at(time)), reach, rng)
            ]
        macs = self._candidates(self._listeners, pos, reach, time)
        if not (self._lossless and isinstance(frame, ProbeRequest)):
            # Every recipient takes a loss draw here, or may act on the
            # frame, so the stations that drop probe requests count too.
            macs.extend(self._candidates(self._others, pos, reach, time))
        # Re-establish attach order so loss draws and receive callbacks
        # fire in the exact sequence of the brute-force scan.
        macs.sort(key=self._seq.__getitem__)
        self.index_queries += 1
        self.index_candidates += len(macs)
        out: List[Station] = []
        for mac in macs:
            if mac == sender_mac:
                continue
            st = stations[mac]
            if delivered(pos.distance_to(st.position_at(time)), reach, rng):
                out.append(st)
        return out

    def _recipients(self, sender: Station, frame: Frame, time: float) -> List[Station]:
        if frame.dst != BROADCAST_MAC:
            # No station code runs while we resolve recipients, so the
            # live dict views are safe to iterate — the returned list is
            # the snapshot delivery works from.
            out = []
            target = self._stations.get(frame.dst)
            if target is not None and self._in_range(sender, target, time):
                out.append(target)
            for mac, monitor in self._monitors.items():
                if (
                    mac != sender.mac
                    and mac != frame.dst
                    and self._in_range(sender, monitor, time)
                ):
                    out.append(monitor)
            return out
        return self._broadcast_recipients(sender, frame, time)

    def transmit(
        self,
        sender: Station,
        frame: Frame,
        airtime: float = MANAGEMENT_FRAME_AIRTIME_S,
    ) -> None:
        """Send one frame; delivery happens ``airtime`` seconds from now.

        Recipients are resolved at *delivery* time so a walker that left
        range mid-flight genuinely misses the frame.
        """
        if self._lineage is not None:
            self._lineage.frame_sent(self.sim.now, frame, sender.mac)
        self.sim.at(airtime, self._deliver, sender, frame)

    def _deliver(self, sender: Station, frame: Frame) -> None:
        now = self.sim.now
        if sender.mac not in self._stations:
            return  # sender departed while the frame was in flight
        lineage = self._lineage
        for station in self._recipients(sender, frame, now):
            # The loss draw must stay first so the RNG sequence is
            # byte-identical with lineage on or off.
            if self._lost():
                if lineage is not None:
                    lineage.event(
                        now,
                        "lost",
                        station.mac,
                        parent=lineage.frame_ctx(frame),
                    )
                continue
            self.frames_delivered += 1
            if lineage is None:
                station.receive(frame, now)
            else:
                ctx = lineage.delivered(now, frame, station.mac)
                with lineage.push(ctx):
                    station.receive(frame, now)

    # -- probe-response bursts -------------------------------------------

    def transmit_response_burst(
        self,
        sender: Station,
        responses: Sequence[ProbeResponse],
        spacing: float = PROBE_RESPONSE_AIRTIME_S,
    ) -> None:
        """Send back-to-back probe responses, one every ``spacing`` seconds.

        In ``frame`` fidelity each response is its own delivery event at
        ``(i + 1) * spacing``; in ``burst`` fidelity one event carries the
        whole sequence and receivers that implement ``receive_burst``
        apply the scan-window arithmetic analytically.
        """
        if not responses:
            return
        if self._lineage is not None:
            now = self.sim.now
            for resp in responses:
                self._lineage.frame_sent(now, resp, sender.mac)
        if self.fidelity == "frame":
            for i, resp in enumerate(responses):
                self.sim.at((i + 1) * spacing, self._deliver, sender, resp)
            return
        self.sim.at(spacing, self._deliver_burst, sender, list(responses), spacing)

    def _deliver_burst(
        self, sender: Station, responses: List[ProbeResponse], spacing: float
    ) -> None:
        now = self.sim.now
        if sender.mac not in self._stations:
            return
        first = responses[0]
        # Monitors receive *during* iteration and may detach themselves,
        # so this loop genuinely needs a snapshot of the dict.
        for mac, monitor in list(self._monitors.items()):
            if (
                mac != sender.mac
                and mac != first.dst
                and self._in_range(sender, monitor, now)
            ):
                for resp in responses:
                    monitor.receive(resp, now)
        target: Optional[Station] = self._stations.get(first.dst)
        if target is None or not self._in_range(sender, target, now):
            return
        if self._burst_loss is not None:
            # One chain step per response keeps frame and burst fidelity
            # statistically aligned under channel faults (monitors, like
            # the uniform channel in this path, observe pre-loss).
            responses = [r for r in responses if not self._fault_lost()]
            if not responses:
                return
        lineage = self._lineage
        if lineage is None:
            scope: ContextManager = nullcontext()
        else:
            # One record per burst, not per response, keeps overhead flat;
            # the chain still closes because it parents to the first
            # response's transmission.
            scope = lineage.push(
                lineage.event(
                    now,
                    "rx:burst",
                    target.mac,
                    parent=lineage.frame_ctx(first),
                    size=len(responses),
                )
            )
        receive_burst = getattr(target, "receive_burst", None)
        with scope:
            if receive_burst is not None:
                self.frames_delivered += len(responses)
                receive_burst(responses, now, spacing)
                return
            for resp in responses:  # fall back to per-frame delivery
                self.frames_delivered += 1
                target.receive(resp, now)
