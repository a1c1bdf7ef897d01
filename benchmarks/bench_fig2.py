"""Fig. 2: how many SSIDs each client actually receives.

Paper shapes: (a) connected canteen clients were sent 20-250 SSIDs
(mean ~130) before hitting — far beyond MANA's 40-ceiling; (b) in the
passage ~70 % of clients received exactly one 40-burst and ~22 % two.
"""

from _shared import emit

from repro.analysis.validation import targets
from repro.experiments.figures import fig2


def _inside(key: str, measured: float) -> bool:
    """Strictly inside the registered band of ``key``."""
    band = targets()[key]
    return band.low < measured < band.high


def test_fig2(benchmark):
    result = benchmark.pedantic(fig2, rounds=1, iterations=1)
    emit("fig2", result.render())

    positions = result.canteen_hit_positions
    assert max(positions) > 150  # untried lists reach deep
    assert min(positions) < 40
    assert _inside("fig2a.mean_hit_position", result.mean_hit_position)

    hist = result.passage_sent_histogram
    assert _inside("fig2b.single_burst_share", hist.fraction(40))
    assert _inside("fig2b.two_burst_share", hist.fraction(80))
