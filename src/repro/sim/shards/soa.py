"""Struct-of-arrays walker state for one shard.

The event-driven simulator keeps one :class:`~repro.devices.phone.Phone`
object per station; at district scale that representation is the
bottleneck (object headers, per-phone scheduler events, per-call
position math).  :class:`WalkerBatch` flips the layout: every per-walker
quantity is one numpy column, so a shard steps thousands of walkers per
phase call with vector arithmetic.

The engine has one backend, numpy.  Only elementwise float operations
are used, so any shard partition of the population produces
bit-identical results; the tests pin that against a scalar reference
that derives and steps one walker at a time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

NO_SENSOR = -1
NO_SSID = -1

#: Rows of :attr:`WalkerBatch.static`: first scan time (entry time plus
#: scan phase), scan period, exit time, entry time, entry point and
#: velocity.
START, PERIOD, T_EXIT, T0, X0, Y0, VX, VY = range(8)

#: One walker's transferable dynamic state, as plain picklable scalars:
#: (connected, conn_time, conn_sensor, conn_ssid, scans, probes, offers).
DynamicRow = Tuple[bool, float, int, int, int, int, int]


class WalkerBatch:
    """Column store of every walker's static parameters + dynamic state.

    Static columns are derived for the *full* population in every shard
    (they are pure functions of the scenario, see
    :mod:`repro.sim.shards.srng`), so any shard can route records for
    any walker.  They sit in one ``(8, n)`` float64 matrix, rows
    :data:`START` .. :data:`VY`, so a shard gathers every static column
    of a set of walkers with one index.  Dynamic columns are only
    authoritative for the rows a shard currently *owns*; ownership
    transfers carry :data:`DynamicRow` tuples through the handoff
    protocol.
    """

    __slots__ = (
        "n",
        "static",
        "pnl_open",
        "connected",
        "conn_time",
        "conn_sensor",
        "conn_ssid",
        "scans",
        "probes",
        "offers",
    )

    def __init__(self, static, pnl_open: Tuple[frozenset, ...]):
        self.n = len(pnl_open)
        self.static = static
        self.pnl_open = pnl_open
        self.connected = np.zeros(self.n, dtype=bool)
        self.conn_time = np.full(self.n, -1.0, dtype=np.float64)
        self.conn_sensor = np.full(self.n, NO_SENSOR, dtype=np.int64)
        self.conn_ssid = np.full(self.n, NO_SSID, dtype=np.int64)
        self.scans = np.zeros(self.n, dtype=np.int64)
        self.probes = np.zeros(self.n, dtype=np.int64)
        self.offers = np.zeros(self.n, dtype=np.int64)

    # -- dynamic-state transfer ------------------------------------------

    def dynamic_row(self, i: int) -> DynamicRow:
        """Walker ``i``'s dynamic state as plain picklable scalars."""
        return (
            bool(self.connected[i]),
            float(self.conn_time[i]),
            int(self.conn_sensor[i]),
            int(self.conn_ssid[i]),
            int(self.scans[i]),
            int(self.probes[i]),
            int(self.offers[i]),
        )

    def apply_row(self, i: int, row: DynamicRow) -> None:
        """Install a handed-off dynamic row for newly-owned walker ``i``."""
        (
            self.connected[i],
            self.conn_time[i],
            self.conn_sensor[i],
            self.conn_ssid[i],
            self.scans[i],
            self.probes[i],
            self.offers[i],
        ) = row

    def connect(self, i: int, t: float, sensor: int, ssid: int) -> None:
        """Mark walker ``i`` lured by ``sensor`` on ``ssid`` at time ``t``."""
        self.connected[i] = True
        self.conn_time[i] = t
        self.conn_sensor[i] = sensor
        self.conn_ssid[i] = ssid
