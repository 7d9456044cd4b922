"""Architecture: constructors, counts, decode, serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Architecture, Method, METHOD_ORDER


class TestConstructors:
    def test_uniform_architectures(self):
        assert Architecture.all_memorize(5).counts() == [5, 0, 0]
        assert Architecture.all_factorize(5).counts() == [0, 5, 0]
        assert Architecture.all_naive(5).counts() == [0, 0, 5]

    def test_random_covers_all_pairs(self, rng):
        arch = Architecture.random(50, rng)
        assert arch.num_pairs == 50
        assert sum(arch.counts()) == 50

    def test_random_mixes_methods(self):
        arch = Architecture.random(200, np.random.default_rng(0))
        assert all(c > 0 for c in arch.counts())

    def test_from_assignment(self):
        arch = Architecture.from_assignment(["memorize", "naive"])
        assert arch[0] is Method.MEMORIZE
        assert arch[1] is Method.NAIVE

    def test_type_validation(self):
        with pytest.raises(TypeError):
            Architecture(methods=("memorize",))


class TestFromAlpha:
    def test_argmax_decode(self):
        alpha = np.array([[3.0, 1.0, 0.0],
                          [0.0, 2.0, 1.0],
                          [0.0, 1.0, 5.0]])
        arch = Architecture.from_alpha(alpha)
        assert list(arch) == [Method.MEMORIZE, Method.FACTORIZE, Method.NAIVE]

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Architecture.from_alpha(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Architecture.from_alpha(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, bad):
        # A diverged search must not decode as "memorize everywhere".
        alpha = np.zeros((3, 3))
        alpha[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Architecture.from_alpha(alpha)


class TestQueries:
    def test_pairs_with(self):
        arch = Architecture.from_assignment(
            ["memorize", "naive", "memorize", "factorize"])
        assert arch.pairs_with(Method.MEMORIZE) == [0, 2]
        assert arch.pairs_with(Method.FACTORIZE) == [3]
        assert arch.pairs_with(Method.NAIVE) == [1]

    def test_counts_order_matches_paper(self):
        arch = Architecture.from_assignment(
            ["memorize", "memorize", "factorize", "naive"])
        assert arch.counts() == [2, 1, 1]

    def test_summary(self):
        arch = Architecture.all_memorize(3)
        assert arch.summary() == {"memorize": 3, "factorize": 0, "naive": 0}


class TestSerialisation:
    def test_json_roundtrip(self, rng):
        arch = Architecture.random(20, rng)
        restored = Architecture.from_json(arch.to_json())
        assert list(restored) == list(arch)

    @given(st.lists(st.sampled_from([m.value for m in METHOD_ORDER]),
                    min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, names):
        arch = Architecture.from_assignment(names)
        assert Architecture.from_json(arch.to_json()) == arch
        assert sum(arch.counts()) == len(names)
