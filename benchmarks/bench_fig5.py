"""Fig. 5: advanced City-Hunter, hourly 8am-8pm, four venues.

Paper shapes: client volume shows each venue's temporal pattern (rush
peaks in the passage/station, mealtimes in the canteen); h > h_b in
every slot; venue-average h_b ~12 % (passage), ~17.9 % (canteen),
~14 % (shopping centre), ~16.6 % (railway station); rates peak with the
crowds.

This is the heavyweight benchmark (48 one-hour simulated deployments,
a few minutes of wall clock); Fig. 6 reuses the same runs via the
shared cache.
"""

import numpy as np
from _shared import emit, fig5_results

from repro.analysis.validation import targets


def test_fig5(benchmark):
    results = benchmark.pedantic(fig5_results, rounds=1, iterations=1)
    text = "\n\n".join(results[key].render() for key in results)
    emit("fig5", text)

    avg = {key: res.average_h_b() for key, res in results.items()}

    # Venue bands (paper: 12 / 17.9 / 14 / 16.6 %).
    for venue in ("passage", "canteen", "shopping_center", "railway_station"):
        band = targets()["adv.%s.h_b" % venue]
        assert band.check(avg[venue]), band.report(avg[venue])

    # Mobility ordering: sitting crowds beat walking crowds.
    assert avg["canteen"] > avg["passage"]

    for res in results.values():
        for slot in res.slots:
            # h >= h_b in every single test (direct probers are easier).
            assert slot.h >= slot.h_b

    # Temporal pattern: passage rush slots carry more clients than the
    # midday trough, and their h_b is at least comparable.
    passage = results["passage"].slots
    rush = [s for s in passage if s.rush]
    calm = [s for s in passage if not s.rush]
    assert min(s.summary.total_clients for s in rush) > max(
        s.summary.total_clients for s in calm
    )
    assert np.mean([s.h_b for s in rush]) > np.mean([s.h_b for s in calm]) - 0.02
