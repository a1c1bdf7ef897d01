"""Tests for attacker-side bookkeeping and metrics (repro.analysis)."""

import pytest

from repro.analysis.breakdown import breakdown_hits
from repro.analysis.metrics import summarize
from repro.analysis.session import AttackSession
from repro.analysis.timeseries import (
    cumulative_broadcast_connections,
    db_size_at_steps,
    windowed_broadcast_hit_rate,
)


def _session_with_traffic():
    s = AttackSession()
    # Broadcast client hit via a wigle PB ssid.
    s.observe_probe("mac-a", 10.0, direct=False)
    s.record_sent("mac-a", 10.0, [("pop", "wigle", "pb"),
                                  ("fresh", "direct", "fb")])
    s.record_hit("mac-a", 11.0, "pop")
    # Direct client hit via mimic.
    s.observe_probe("mac-b", 20.0, direct=True)
    s.record_mimic("mac-b", 20.0, "HomeNet")
    s.record_hit("mac-b", 21.0, "HomeNet")
    # Broadcast client, never hit.
    s.observe_probe("mac-c", 30.0, direct=False)
    s.record_sent("mac-c", 30.0, [("pop", "wigle", "pb")])
    # Broadcast client hit via freshness, direct origin.
    s.observe_probe("mac-d", 40.0, direct=False)
    s.record_sent("mac-d", 40.0, [("fresh", "direct", "fb")])
    s.record_hit("mac-d", 41.0, "fresh")
    return s


class TestSession:
    def test_client_classification(self):
        s = _session_with_traffic()
        assert {r.mac for r in s.direct_clients()} == {"mac-b"}
        assert {r.mac for r in s.broadcast_clients()} == {"mac-a", "mac-c", "mac-d"}

    def test_hit_provenance(self):
        s = _session_with_traffic()
        a = s.clients["mac-a"]
        assert a.hit_origin == "wigle" and a.hit_bucket == "pb"
        assert a.hit_position == 1
        assert a.connected_via_broadcast and not a.connected_via_direct
        b = s.clients["mac-b"]
        assert b.connected_via_direct
        assert b.hit_position is None

    def test_duplicate_hit_keeps_first(self):
        s = _session_with_traffic()
        s.record_hit("mac-a", 99.0, "fresh")
        assert s.clients["mac-a"].hit_ssid == "pop"
        assert s.clients["mac-a"].hit_time == 11.0

    def test_hit_on_unadvertised_ssid_marked_unknown(self):
        s = AttackSession()
        s.observe_probe("m", 0.0, direct=False)
        rec = s.record_hit("m", 1.0, "mystery")
        assert rec.hit_origin == "unknown"

    def test_tried_count(self):
        s = _session_with_traffic()
        assert s.tried_count("mac-a") == 2
        assert s.tried_count("nobody") == 0

    def test_records_sorted_by_first_seen(self):
        s = _session_with_traffic()
        times = [r.first_seen for r in s.records()]
        assert times == sorted(times)

    def test_probe_counter(self):
        s = AttackSession()
        s.observe_probe("m", 0.0, direct=False)
        s.observe_probe("m", 1.0, direct=True)
        assert s.clients["m"].probes_seen == 2
        assert s.clients["m"].direct_prober


class TestSummary:
    def test_counts_and_rates(self):
        summary = summarize(_session_with_traffic())
        assert summary.total_clients == 4
        assert summary.direct_clients == 1
        assert summary.broadcast_clients == 3
        assert summary.connected_direct == 1
        assert summary.connected_broadcast == 2
        assert summary.hit_rate == pytest.approx(3 / 4)
        assert summary.broadcast_hit_rate == pytest.approx(2 / 3)

    def test_empty_session(self):
        summary = summarize(AttackSession())
        assert summary.hit_rate == 0.0
        assert summary.broadcast_hit_rate == 0.0

    def test_table_row_formatting(self):
        row = summarize(_session_with_traffic()).as_table_row("X")
        assert row[0] == "X"
        assert row[2] == "1/3"
        assert "75.0%" in row[4]

    def test_direct_prober_hit_via_broadcast_counts_as_direct_client(self):
        s = AttackSession()
        s.observe_probe("m", 0.0, direct=True)
        s.record_sent("m", 0.0, [("pop", "wigle", "pb")])
        s.record_hit("m", 1.0, "pop")
        summary = summarize(s)
        # Client class wins: it is a direct client even though the hit
        # came through the broadcast machinery.
        assert summary.connected_direct == 1
        assert summary.connected_broadcast == 0


class TestBreakdown:
    def test_source_and_buffer_split(self):
        src, buf = breakdown_hits(_session_with_traffic())
        assert src.from_wigle == 1
        assert src.from_direct == 1
        assert buf.from_popularity == 1
        assert buf.from_freshness == 1

    def test_mimic_hits_excluded(self):
        s = _session_with_traffic()
        src, buf = breakdown_hits(s)
        assert src.from_wigle + src.from_direct + src.from_other == 2

    def test_ratios(self):
        src, _ = breakdown_hits(_session_with_traffic())
        assert src.ratio == pytest.approx(1.0)

    def test_ratio_zero_denominator(self):
        from repro.analysis.breakdown import BufferBreakdown, SourceBreakdown

        assert SourceBreakdown(5, 0).ratio == float("inf")
        assert SourceBreakdown(0, 0).ratio == 0.0
        assert BufferBreakdown(3, 0).ratio == float("inf")


class TestTimeseries:
    def test_windowed_rate(self):
        s = _session_with_traffic()
        windows = windowed_broadcast_hit_rate(s, duration=60.0, window=20.0)
        assert len(windows) == 3
        # mac-a (hit) lands in window 0; mac-c (miss) + mac-d (hit) in 1-2.
        assert windows[0].broadcast_clients == 1
        assert windows[0].connected == 1
        assert windows[0].rate == 1.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            windowed_broadcast_hit_rate(AttackSession(), duration=0.0, window=1.0)

    def test_clients_outside_duration_ignored(self):
        s = AttackSession()
        s.observe_probe("late", 1000.0, direct=False)
        windows = windowed_broadcast_hit_rate(s, duration=60.0, window=20.0)
        assert sum(w.broadcast_clients for w in windows) == 0

    def test_cumulative_connections_monotone(self):
        s = _session_with_traffic()
        series = cumulative_broadcast_connections(s, duration=60.0, step=10.0)
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] == 2

    def test_db_size_steps(self):
        s = AttackSession()
        s.record_db_size(0.0, 10)
        s.record_db_size(25.0, 20)
        series = db_size_at_steps(s, duration=40.0, step=10.0)
        assert series == [(10.0, 10), (20.0, 10), (30.0, 20), (40.0, 20)]

    def test_db_size_empty_session(self):
        series = db_size_at_steps(AttackSession(), duration=20.0, step=10.0)
        assert series == [(10.0, 0), (20.0, 0)]
