"""Derived registry queries: count ranking and heat ranking.

These implement the two columns of the paper's Table IV.  The heat value
of an SSID is the sum, over all its (free) APs, of the photo heat at the
AP's location (Section IV-B).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.city.heatmap import HeatMap
from repro.wigle.database import WigleDatabase


def top_ssids_by_count(db: WigleDatabase, count: int) -> List[Tuple[str, int]]:
    """Free SSIDs ranked by number of APs, descending; ties keep
    first-free-record order."""
    if count < 0:
        raise ValueError("count must be non-negative, got %r" % count)
    return list(db.free_count_ranking()[:count])


def ssid_heat_values(db: WigleDatabase, heatmap: HeatMap) -> Dict[str, float]:
    """Heat value per free SSID: sum of cell heat over its AP locations.

    Keys are in first-free-record order.  Cell heats are integer photo
    counts, so the float sums are exact in any order.
    """
    ssids, codes, xs, ys = db.free_columns()
    sums = np.bincount(codes, weights=heatmap.heat_of(xs, ys), minlength=len(ssids))
    return dict(zip(ssids, sums.tolist()))


def top_ssids_by_heat(
    db: WigleDatabase, heatmap: HeatMap, count: int
) -> List[Tuple[str, float]]:
    """Free SSIDs ranked by heat value, descending (Table IV, right)."""
    if count < 0:
        raise ValueError("count must be non-negative, got %r" % count)
    heats = ssid_heat_values(db, heatmap)
    ranked = sorted(heats.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:count]
