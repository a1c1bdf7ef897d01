"""Tests for SSID name generation (repro.util.textgen)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dot11.ssid import validate_ssid
from repro.util import textgen


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMakers:
    def test_home_router_shape(self, rng):
        name = textgen.home_router_ssid(rng)
        vendor, _, suffix = name.partition("_")
        assert vendor  # known vendor prefix
        assert len(suffix) == 4
        assert all(c in "0123456789ABCDEF" for c in suffix)

    def test_all_makers_emit_valid_ssids(self, rng):
        for maker in (
            textgen.home_router_ssid,
            textgen.shop_ssid,
            textgen.corporate_ssid,
        ):
            for _ in range(200):
                validate_ssid(maker(rng))

    def test_makers_deterministic_per_seed(self):
        a = [textgen.shop_ssid(np.random.default_rng(5)) for _ in range(1)]
        b = [textgen.shop_ssid(np.random.default_rng(5)) for _ in range(1)]
        assert a == b


class TestUniqueNames:
    def test_exact_count_and_distinct(self, rng):
        names = textgen.unique_names(500, textgen.shop_ssid, rng)
        assert len(names) == 500
        assert len(set(names)) == 500

    def test_all_results_are_valid_ssids(self, rng):
        # Collision suffixes must not push names past 32 bytes.
        for name in textgen.unique_names(3000, textgen.shop_ssid, rng):
            validate_ssid(name)

    def test_zero_count(self, rng):
        assert textgen.unique_names(0, textgen.shop_ssid, rng) == []

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            textgen.unique_names(-1, textgen.shop_ssid, rng)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_count_and_validity(self, count, seed):
        rng = np.random.default_rng(seed)
        names = textgen.unique_names(count, textgen.home_router_ssid, rng)
        assert len(names) == count == len(set(names))
        for name in names:
            validate_ssid(name)


# -- scalar-draw references: one ``rng.integers`` call per bound -------------


def _scalar_home_router(rng):
    vendors = textgen._ROUTER_VENDORS
    vendor = vendors[int(rng.integers(len(vendors)))]
    suffix = "".join(
        "0123456789ABCDEF"[d] for d in rng.integers(0, 16, size=4).tolist()
    )
    return f"{vendor}_{suffix}"


def _scalar_shop(rng):
    a = textgen._SHOP_WORDS_A[int(rng.integers(len(textgen._SHOP_WORDS_A)))]
    b = textgen._SHOP_WORDS_B[int(rng.integers(len(textgen._SHOP_WORDS_B)))]
    style = int(rng.integers(3))
    if style == 0:
        return f"{a} {b} WiFi"
    if style == 1:
        return f"{a}{b}"
    return f"{a} {b} Free WiFi"


def _scalar_unique_names(count, maker, rng):
    seen = set()
    out = []
    attempts = 0
    while len(out) < count:
        name = maker(rng)
        attempts += 1
        if name in seen and attempts > 2 * count:
            suffix = f"-{len(out)}"
            name = name[: 32 - len(suffix)] + suffix
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


_MAKERS = [
    pytest.param(textgen.home_router_ssid, _scalar_home_router, id="router"),
    pytest.param(textgen.shop_ssid, _scalar_shop, id="shop"),
]


class TestBlockDrawsMatchScalarDraws:
    """One ``rng.integers(0, bounds)`` call per name or per block gives
    the names and leaves the generator where one scalar call per bound
    does."""

    @pytest.mark.parametrize("maker, reference", _MAKERS)
    def test_single_names_between_other_draws(self, maker, reference):
        # The city's per-AP loops interleave a name with doubles.
        for seed in range(5):
            ours, ref = _pair(seed)
            for _ in range(300):
                assert maker(ours) == reference(ref)
                assert ours.random() == ref.random()
            assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("maker, reference", _MAKERS)
    def test_block_of_names(self, maker, reference):
        for n in (1, 2, 675, 2000):
            ours, ref = _pair(n)
            assert maker.draw(ours, n) == [reference(ref) for _ in range(n)]
            assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("count", [0, 1, 130, 675, 676, 9000])
    def test_unique_shop_names(self, count):
        # 15 x 15 x 3 = 675 distinct shop names: 676 and 9,000 need the
        # collision suffix, 9,000 after several blocks of attempts.
        ours, ref = _pair(count)
        names = textgen.unique_names(count, textgen.shop_ssid, ours)
        assert names == _scalar_unique_names(count, _scalar_shop, ref)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_unique_router_names(self):
        ours, ref = _pair(11)
        names = textgen.unique_names(2000, textgen.home_router_ssid, ours)
        assert names == _scalar_unique_names(2000, _scalar_home_router, ref)
        assert ours.bit_generator.state == ref.bit_generator.state
