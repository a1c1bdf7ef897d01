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

Broadcast recipients
--------------------

A broadcast is checked against the attached stations in attach order,
with the same ``propagation.delivered`` predicate for each; the ones it
reaches are its recipients, in that order.

Most stations drop every probe request they hear: phones, detectors,
alias BSSIDs and the deauth emitter declare so with the class attribute
``hears_probe_requests = False``; stations without it hear them and are
the medium's *listeners*.  A broadcast ``ProbeRequest`` is checked
against the listeners alone whenever the channel draws no randomness
per recipient (deterministic propagation, ``loss_rate`` 0, no
Gilbert–Elliott chain): then the stations it skips would only have
dropped the frame, so every receive that does something, every RNG draw
and every metric is unchanged.  On a lossy or stochastic channel each
recipient takes its loss or propagation draw whether or not it listens,
so skipping one would shift every later draw; there, and for every
other broadcast frame, every attached station is checked.  Skipped
deliveries are not counted in ``frames_delivered`` and leave no lineage
record.

In a venue the listeners are the attacker and any access points, a
handful of stations against the hundred or more phones that send the
probes, so that scan is short.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import ContextManager, Dict, List, Optional, Protocol, Sequence

from repro.dot11.frames import Frame, ProbeRequest, ProbeResponse
from repro.dot11.mac import BROADCAST_MAC, MacAddress
from repro.dot11.propagation import DiscPropagation, Propagation
from repro.faults.gilbert import GilbertElliottChannel
from repro.faults.plan import GilbertElliottParams
from repro.geo.point import Point
from repro.sim.simulation import Simulation
from repro.util.rng import BufferedUniform
from repro.util.units import MANAGEMENT_FRAME_AIRTIME_S, PROBE_RESPONSE_AIRTIME_S


class Station(Protocol):
    """What the medium requires of anything attached to it.

    Stations *may* also set ``hears_probe_requests = False`` when their
    ``receive`` drops every :class:`~repro.dot11.frames.ProbeRequest`;
    the medium then skips them for broadcast probe requests on channels
    that draw no randomness per recipient (see the module docstring).
    """

    mac: MacAddress

    def position_at(self, time: float) -> Point:
        """Location of the station at simulation time ``time``."""
        ...

    def receive(self, frame: Frame, time: float) -> None:
        """Handle one delivered frame."""
        ...


class Medium:
    """Disc-propagation broadcast medium with per-station TX range."""

    def __init__(
        self,
        sim: Simulation,
        fidelity: str = "frame",
        loss_rate: float = 0.0,
        propagation: Optional[Propagation] = None,
        burst_loss: Optional[GilbertElliottParams] = None,
    ):
        if fidelity not in ("frame", "burst"):
            raise ValueError("fidelity must be 'frame' or 'burst', got %r" % fidelity)
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1], got %r" % loss_rate)
        self.sim = sim
        self.fidelity = fidelity
        self.loss_rate = loss_rate
        self.propagation = propagation if propagation is not None else DiscPropagation()
        self._stations: Dict[MacAddress, Station] = {}
        # The stations that hear probe requests, also in attach order.
        self._listeners: Dict[MacAddress, Station] = {}
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
        self._probes_to_listeners = self._lossless and deterministic
        # Stations examined by broadcast resolution; perfbench's tracer
        # reads it under this name.
        self.index_candidates = 0

    @property
    def burst_loss(self) -> Optional[GilbertElliottChannel]:
        """The live Gilbert–Elliott chain (None without channel faults)."""
        return self._burst_loss

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
        # Dict insertion order is delivery order; a re-attach keeps its
        # original dict slot.
        self._stations[mac] = station
        self._ranges[mac] = tx_range
        if promiscuous:
            self._monitors[mac] = station
        if getattr(station, "hears_probe_requests", True):
            self._listeners[mac] = station
        else:
            self._listeners.pop(mac, None)

    def detach(self, mac: MacAddress) -> None:
        """Remove a station; unknown MACs are ignored (already gone)."""
        self._stations.pop(mac, None)
        self._ranges.pop(mac, None)
        self._monitors.pop(mac, None)
        self._listeners.pop(mac, None)

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

    def _broadcast_recipients(
        self, sender: Station, frame: Frame, time: float
    ) -> List[Station]:
        """Every station (sender excluded) in range, in attach order; for
        a probe request on a channel that draws nothing per recipient,
        every listener in range."""
        if self._probes_to_listeners and isinstance(frame, ProbeRequest):
            pool = self._listeners
        else:
            pool = self._stations
        self.index_candidates += len(pool)
        sender_mac = sender.mac
        reach = self._ranges[sender_mac]
        pos = sender.position_at(time)
        delivered = self.propagation.delivered
        rng = self._rng
        return [
            st
            for mac, st in pool.items()
            if mac != sender_mac
            and delivered(pos.distance_to(st.position_at(time)), reach, rng)
        ]

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
