"""Crowd mobility: how people move through the attack venue.

Three patterns cover the paper's venues: static dwellers (canteen
diners), constant-velocity corridor walkers (subway passage), and
waypoint wanderers (shopping centre / railway station, where the paper
describes a *hybrid* crowd — some sitting, some passing through).
Arrivals follow a time-inhomogeneous Poisson process with per-venue
hour-of-day rate profiles (rush hours, mealtimes).
"""

from repro.mobility.arrivals import ArrivalProcess, HourlyRates
from repro.mobility.base import PathMobility, MobilityModel
from repro.mobility.batch import positions_vec
from repro.mobility.corridor import corridor_walk
from repro.mobility.static import static_dwell
from repro.mobility.waypoints import waypoint_wander

__all__ = [
    "ArrivalProcess",
    "HourlyRates",
    "PathMobility",
    "MobilityModel",
    "corridor_walk",
    "positions_vec",
    "static_dwell",
    "waypoint_wander",
]
