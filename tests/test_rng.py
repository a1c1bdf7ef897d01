"""Tests for deterministic RNG management (repro.util.rng)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.rng import RngRegistry, choice_cdf, derive_seed, draw_index


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "population") == derive_seed(42, "population")

    def test_name_sensitivity(self):
        assert derive_seed(42, "population") != derive_seed(42, "mobility")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "population") != derive_seed(2, "population")

    @given(st.integers(min_value=-(2**62), max_value=2**62), st.text(max_size=40))
    def test_result_fits_64_bits(self, seed, name):
        child = derive_seed(seed, name)
        assert 0 <= child < 2**64


class TestRngRegistry:
    def test_same_name_same_generator_instance(self):
        rngs = RngRegistry(7)
        assert rngs.stream("a") is rngs.stream("a")

    def test_different_names_different_draws(self):
        rngs = RngRegistry(7)
        a = rngs.stream("a").random(8)
        b = rngs.stream("b").random(8)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        one = RngRegistry(7).stream("x").random(8)
        two = RngRegistry(7).stream("x").random(8)
        assert np.allclose(one, two)

    def test_stream_isolation(self):
        """Consuming one stream must not perturb another."""
        plain = RngRegistry(7)
        expected = plain.stream("target").random(4)

        noisy = RngRegistry(7)
        noisy.stream("other").random(1000)  # burn a different stream
        observed = noisy.stream("target").random(4)
        assert np.allclose(expected, observed)

    def test_fresh_resets_stream(self):
        rngs = RngRegistry(7)
        first = rngs.stream("x").random(4)
        rngs.stream("x").random(100)
        replay = rngs.fresh("x").random(4)
        assert np.allclose(first, replay)

    def test_child_registry_differs_from_parent(self):
        parent = RngRegistry(7)
        child = parent.child("trial-0")
        assert child.seed != parent.seed
        assert not np.allclose(
            parent.stream("x").random(4), child.stream("x").random(4)
        )

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("42")  # type: ignore[arg-type]

    def test_seed_property(self):
        assert RngRegistry(99).seed == 99


class TestChoiceCdf:
    @pytest.mark.parametrize("probs", [
        (0.62, 0.24, 0.10, 0.04),
        (0.35, 0.25, 0.20, 0.20),
        (0.0, 2.0, 0.0, 1.0),
        (1.0,),
    ])
    def test_draw_index_is_generator_choice(self, probs):
        """The bisection takes the double ``Generator.choice`` takes and
        returns its index, zero weights included."""
        cdf = choice_cdf(probs, "probs")
        p = np.asarray(probs, dtype=float)
        p = p / p.sum()
        ours, numpys = np.random.default_rng(9), np.random.default_rng(9)
        assert [draw_index(cdf, ours) for _ in range(3000)] == [
            int(numpys.choice(len(p), p=p)) for _ in range(3000)
        ]
        assert ours.random() == numpys.random()

    def test_bad_weights_name_the_argument(self):
        with pytest.raises(ValueError, match="weights"):
            choice_cdf((0.0, float("nan")), "weights")
