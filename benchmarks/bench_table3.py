"""Table III: preliminary City-Hunter in the subway passage.

Paper shape: the same attacker that reaches h_b ~16 % in the canteen
collapses to ~4 % among fast walkers, because only the (locally useless)
head of its flat database ever gets received.
"""

from _shared import emit

from repro.analysis.validation import targets
from repro.experiments.tables import table3


def test_table3(benchmark):
    result = benchmark.pedantic(table3, rounds=1, iterations=1)
    emit("table3", result.render())
    passage = result.summaries()[0]
    assert targets()["basic.passage.h_b"].check(passage.broadcast_hit_rate)
    assert passage.total_clients > 1000  # paper: 1356
