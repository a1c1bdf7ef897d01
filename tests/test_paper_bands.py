"""Integration tests pinning the paper's headline shapes.

These run the real 30-minute deployments (same code path as the
benchmarks) and assert the *relationships* the paper reports — who wins,
by roughly what factor, where the venues differ.  Each h and h_b band
is the one registered in :mod:`repro.analysis.validation`, the only copy
of the paper's numbers; the bands are deliberately wide: the substrate
is synthetic and seeds vary, but the orderings must hold or the
reproduction is broken.
"""

import pytest

from repro.analysis.breakdown import breakdown_hits
from repro.analysis.validation import targets
from repro.experiments.attackers import (
    make_cityhunter,
    make_cityhunter_basic,
    make_karma,
    make_mana,
)
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import run_experiment

SEED = 7
DURATION = 1800.0
BANDS = targets()


@pytest.fixture(scope="module")
def karma_canteen(city, wigle):
    return run_experiment(
        city, wigle, make_karma(), venue_profile("canteen"), DURATION, seed=SEED
    )


@pytest.fixture(scope="module")
def mana_canteen(city, wigle):
    return run_experiment(
        city, wigle, make_mana(), venue_profile("canteen"), DURATION, seed=SEED
    )


@pytest.fixture(scope="module")
def basic_canteen(city, wigle):
    return run_experiment(
        city, wigle, make_cityhunter_basic(wigle), venue_profile("canteen"),
        DURATION, seed=SEED,
    )


@pytest.fixture(scope="module")
def basic_passage(city, wigle):
    return run_experiment(
        city, wigle, make_cityhunter_basic(wigle), venue_profile("passage"),
        DURATION, seed=SEED,
    )


@pytest.fixture(scope="module")
def adv_canteen(city, wigle):
    return run_experiment(
        city, wigle, make_cityhunter(wigle, city.heatmap),
        venue_profile("canteen"), DURATION, seed=SEED,
    )


@pytest.fixture(scope="module")
def adv_passage(city, wigle):
    return run_experiment(
        city, wigle, make_cityhunter(wigle, city.heatmap),
        venue_profile("passage"), DURATION, seed=SEED,
    )


class TestTable1Shapes:
    def test_karma_broadcast_rate_is_zero(self, karma_canteen):
        assert karma_canteen.summary.connected_broadcast == 0
        assert BANDS["karma.h_b"].check(karma_canteen.h_b)

    def test_karma_still_lures_direct_probers(self, karma_canteen):
        s = karma_canteen.summary
        assert s.connected_direct > 0
        assert 0.15 < s.connected_direct / s.direct_clients < 0.55

    def test_karma_overall_h_band(self, karma_canteen):
        assert BANDS["karma.h"].check(karma_canteen.h)

    def test_mana_broadcast_rate_band(self, mana_canteen):
        assert BANDS["mana.h_b"].check(mana_canteen.h_b)

    def test_mana_beats_karma(self, mana_canteen, karma_canteen):
        assert mana_canteen.h > karma_canteen.h

    def test_canteen_client_volume(self, karma_canteen):
        assert 450 < karma_canteen.summary.total_clients < 850  # paper: 614

    def test_direct_prober_share(self, karma_canteen):
        s = karma_canteen.summary
        share = s.direct_clients / s.total_clients
        assert 0.10 < share < 0.20  # paper: 85/614 ~ 14 %


class TestTable2And3Shapes:
    def test_basic_cityhunter_crushes_mana_in_canteen(
        self, basic_canteen, mana_canteen
    ):
        assert basic_canteen.h_b > 3 * mana_canteen.h_b  # paper: 15.9 vs 3

    def test_basic_canteen_band(self, basic_canteen):
        assert BANDS["basic.canteen.h_b"].check(basic_canteen.h_b)

    def test_wigle_seeds_dominate_basic_hits(self, basic_canteen):
        source, _ = breakdown_hits(basic_canteen.session)
        total = source.from_wigle + source.from_direct
        assert source.from_wigle / total > 0.6  # paper: ~74 %

    def test_basic_collapses_in_passage(self, basic_passage, basic_canteen):
        assert basic_passage.h_b < basic_canteen.h_b / 2.5
        assert BANDS["basic.passage.h_b"].check(basic_passage.h_b)

    def test_passage_client_volume(self, basic_passage):
        assert 1000 < basic_passage.summary.total_clients < 1800  # paper: 1356


class TestAdvancedShapes:
    def test_advanced_fixes_the_passage(self, adv_passage, basic_passage):
        """The whole point of Section IV."""
        assert adv_passage.h_b > 2 * basic_passage.h_b

    def test_advanced_passage_band(self, adv_passage):
        assert BANDS["adv.passage.h_b"].check(adv_passage.h_b)

    def test_advanced_canteen_band(self, adv_canteen):
        assert BANDS["adv.canteen.h_b"].check(adv_canteen.h_b)

    def test_canteen_beats_passage(self, adv_canteen, adv_passage):
        assert adv_canteen.h_b > adv_passage.h_b

    def test_headline_improvement_over_mana(self, adv_canteen, mana_canteen):
        # Paper: 4-8x improvement; allow 3-20x for seed noise.
        ratio = adv_canteen.h_b / max(mana_canteen.h_b, 1e-9)
        assert ratio > 3

    def test_h_always_at_least_h_b(self, adv_canteen, adv_passage):
        # Direct probers are easier prey, so h >= h_b in every run.
        for result in (adv_canteen, adv_passage):
            assert result.h >= result.h_b

    def test_popularity_dominates_freshness(self, adv_canteen, adv_passage):
        for result in (adv_canteen, adv_passage):
            _, buffers = breakdown_hits(result.session)
            assert buffers.from_popularity > buffers.from_freshness

    def test_freshness_matters_more_where_people_sit_together(
        self, adv_canteen, adv_passage
    ):
        _, canteen_buf = breakdown_hits(adv_canteen.session)
        _, passage_buf = breakdown_hits(adv_passage.session)
        canteen_share = canteen_buf.from_freshness / max(
            1, canteen_buf.from_popularity + canteen_buf.from_freshness
        )
        passage_share = passage_buf.from_freshness / max(
            1, passage_buf.from_popularity + passage_buf.from_freshness
        )
        assert canteen_share > passage_share

    def test_wigle_dominates_direct_in_advanced_hits(self, adv_passage):
        source, _ = breakdown_hits(adv_passage.session)
        assert source.ratio > 2.0  # paper: 3.5-5.1

    def test_tried_counts_larger_in_canteen(self, adv_canteen, adv_passage):
        import numpy as np

        canteen_sent = np.mean(
            [r.ssids_sent for r in adv_canteen.session.broadcast_clients()]
        )
        passage_sent = np.mean(
            [r.ssids_sent for r in adv_passage.session.broadcast_clients()]
        )
        assert canteen_sent > 1.5 * passage_sent
