"""Batched corridor kinematics for struct-of-arrays walkers.

:class:`~repro.mobility.base.PathMobility` answers *where is this one
person at time t* through per-object knot interpolation; the sharded
city (:mod:`repro.sim.shards`) needs the same answer for thousands of
walkers per call.  Shard walkers are straight-line corridor crossers
(the subway-passage pattern scaled city-wide), so their position has a
closed form — entry point plus velocity times clamped elapsed time —
and the whole population can be evaluated as arrays.

Only *elementwise* float arithmetic is used (no reductions), so any
partition of the population into shards produces bit-identical
coordinates.
"""

from __future__ import annotations

import numpy as np


def positions_vec(t, t_enter, t_exit, x0, y0, vx, vy):
    """Closed-form positions at time ``t`` (a scalar, or one time per
    walker), elementwise over numpy arrays.

    Before entry a walker waits at its entry point and after exit it is
    parked at its exit point — the same end-point clamping
    :meth:`~repro.mobility.base.PathMobility.position_at` applies.  The
    clamp is ``np.minimum(np.maximum(...))`` rather than ``np.clip``,
    whose Python wrapper costs more than the arithmetic at shard sizes.
    """
    dt = np.minimum(np.maximum(t, t_enter), t_exit) - t_enter
    return x0 + vx * dt, y0 + vy * dt
