"""Codec tests: pattern ranking, bit mapping and their documented examples.

The independent oracle for the ranking order is a plain enumeration:
``itertools.combinations`` sorted colexicographically (by largest element
first). The arithmetic unranker must agree with it everywhere.
"""
import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcim.index_codec import (
    ApSpace,
    bits_to_int,
    combo_to_rank,
    decode_to_bits,
    encode_bits,
    int_to_bits,
    rank_to_combo,
    symbol_rows,
)

from oracles import reference_rank_to_combo


def colex_combinations(m: int, k: int) -> list[tuple[int, ...]]:
    """All K-of-M combinations (1-based) in colexicographic order."""
    combos = itertools.combinations(range(1, m + 1), k)
    return sorted(combos, key=lambda t: tuple(reversed(t)))


REFERENCE_MAP_M4_K2 = [
    # word bits, rank d, indices, extended flag
    ((0, 0, 0), 0, (1, 2), False),
    ((0, 0, 1), 1, (1, 3), False),
    ((0, 1, 0), 2, (2, 3), False),
    ((0, 1, 1), 3, (1, 4), False),
    ((1, 0, 0), 4, (2, 4), False),
    ((1, 0, 1), 5, (3, 4), False),
    ((1, 1, 0), 6, (1, 2), True),
    ((1, 1, 1), 7, (1, 3), True),
]


class TestApSpace:
    def test_m4_k2_sizes(self):
        space = ApSpace(M=4, K=2)
        assert space.n_combos == 6
        assert space.m_bits - 1 == 2  # floor(log2 C(M, K)): bits without reuse
        assert space.m_bits == 3
        assert space.n_reused == 2

    def test_power_of_two_pattern_count_has_no_reuse(self):
        # C(6, 2) = 15 -> 3+1 bits, one reused; C(5, 2) = 10 -> 3+1, 6 reused
        assert ApSpace(M=6, K=2).n_reused == 1
        assert ApSpace(M=5, K=2).n_reused == 6

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=6))
    def test_size_invariants(self, m, k):
        if k >= m:
            with pytest.raises(ValueError):
                ApSpace(M=m, K=k)
            return
        space = ApSpace(M=m, K=k)
        assert 2 ** (space.m_bits - 1) <= space.n_combos < 2 ** space.m_bits
        assert 0 <= space.n_reused <= space.n_combos

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ApSpace(M=4, K=0)
        with pytest.raises(ValueError):
            ApSpace(M=4, K=4)


class TestRanking:
    def test_reference_rows(self):
        space = ApSpace(M=4, K=2)
        assert rank_to_combo(0, space) == (1, 2)
        assert rank_to_combo(5, space) == (3, 4)

    def test_maximal_rank_is_last_combination(self):
        space = ApSpace(M=8, K=2)
        assert rank_to_combo(comb(8, 2) - 1, space) == (7, 8)

    def test_matches_colex_enumeration(self):
        for m, k in [(4, 2), (8, 2), (8, 3), (10, 4), (6, 5)]:
            space = ApSpace(M=m, K=k)
            expected = colex_combinations(m, k)
            got = [rank_to_combo(d, space) for d in range(space.n_combos)]
            assert got == expected

    @pytest.mark.parametrize("m,k", [(2, 1), (5, 1), (4, 2), (9, 2), (8, 3), (10, 4), (12, 6),
                                     (7, 6), (32, 2), (16, 3)])
    def test_bisection_equals_linear_scan_on_every_rank(self, m, k):
        space = ApSpace(M=m, K=k)
        for d in range(space.n_combos):
            assert rank_to_combo(d, space) == reference_rank_to_combo(d, space)

    @pytest.mark.parametrize("m,k", [(128, 2), (64, 4)])
    def test_bisection_equals_linear_scan_on_random_ranks(self, m, k):
        space = ApSpace(M=m, K=k)
        rng = random.Random(m * 100 + k)
        ranks = [0, space.n_combos - 1] + [rng.randrange(space.n_combos) for _ in range(20_000)]
        for d in ranks:
            assert rank_to_combo(d, space) == reference_rank_to_combo(d, space)

    def test_rank_examples(self):
        space = ApSpace(M=4, K=2)
        assert combo_to_rank((1, 3), space) == 1
        assert combo_to_rank((2, 4), space) == 4

    def test_roundtrip_exhaustive_m8(self):
        space = ApSpace(M=8, K=2)
        for d in range(comb(8, 2)):
            assert combo_to_rank(rank_to_combo(d, space), space) == d

    @given(st.data())
    @settings(max_examples=200)
    def test_roundtrip_random_spaces(self, data):
        m = data.draw(st.integers(min_value=3, max_value=64))
        k = data.draw(st.integers(min_value=1, max_value=min(m - 1, 4)))
        space = ApSpace(M=m, K=k)
        d = data.draw(st.integers(min_value=0, max_value=space.n_combos - 1))
        assert combo_to_rank(rank_to_combo(d, space), space) == d

    def test_out_of_range_rank(self):
        space = ApSpace(M=4, K=2)
        with pytest.raises(ValueError):
            rank_to_combo(6, space)
        with pytest.raises(ValueError):
            rank_to_combo(-1, space)

    def test_malformed_index_lists(self):
        space = ApSpace(M=4, K=2)
        with pytest.raises(ValueError):
            combo_to_rank((3, 2), space)  # not increasing
        with pytest.raises(ValueError):
            combo_to_rank((2, 2), space)  # repeated
        with pytest.raises(ValueError):
            combo_to_rank((0, 2), space)  # below range
        with pytest.raises(ValueError):
            combo_to_rank((1, 5), space)  # above range
        with pytest.raises(ValueError):
            combo_to_rank((1, 2, 3), space)  # wrong length


class TestBitMapping:
    def test_full_reference_map(self):
        space = ApSpace(M=4, K=2)
        for bits, word, indices, extended in REFERENCE_MAP_M4_K2:
            expected_rank = word - space.n_combos if extended else word
            msg = encode_bits(bits, space)
            assert (msg.d, msg.indices, msg.extended) == (expected_rank, indices, extended)
            assert decode_to_bits(msg.d, msg.extended, space) == bits

    def test_documented_words(self):
        space = ApSpace(M=4, K=2)
        msg = encode_bits((1, 0, 1), space)
        assert msg.indices == (3, 4) and not msg.extended
        msg = encode_bits((1, 1, 0), space)
        assert msg.indices == (1, 2) and msg.extended
        msg = encode_bits((0, 0, 0), space)
        assert msg.indices == (1, 2) and not msg.extended

    def test_decode_examples(self):
        space = ApSpace(M=4, K=2)
        assert decode_to_bits(1, True, space) == (1, 1, 1)
        # rank 4 is never reused: flag must be ignored
        assert decode_to_bits(4, True, space) == (1, 0, 0)
        assert decode_to_bits(4, False, space) == (1, 0, 0)

    def test_wrong_word_length(self):
        space = ApSpace(M=4, K=2)
        with pytest.raises(ValueError):
            encode_bits((0, 1), space)
        with pytest.raises(ValueError):
            encode_bits((0, 1, 0, 1), space)

    def test_decode_rank_out_of_range(self):
        space = ApSpace(M=4, K=2)
        with pytest.raises(ValueError):
            decode_to_bits(6, False, space)

    @pytest.mark.parametrize("m", range(4, 17))
    def test_loopback_all_words(self, m):
        space = ApSpace(M=m, K=2)
        seen = set()
        for value in range(2 ** space.m_bits):
            bits = int_to_bits(value, space.m_bits)
            msg = encode_bits(bits, space)
            # legality: every word lands on a valid pattern
            assert combo_to_rank(msg.indices, space) == msg.d
            seen.add((msg.indices, msg.extended))
            assert decode_to_bits(msg.d, msg.extended, space) == bits
        # injectivity over the full word set
        assert len(seen) == 2 ** space.m_bits

    def test_extended_flag_population(self):
        # reuse happens for exactly 2^m - C(M,K) words, all at the low ranks
        space = ApSpace(M=8, K=2)
        extended_words = [
            value for value in range(2 ** space.m_bits)
            if encode_bits(int_to_bits(value, space.m_bits), space).extended
        ]
        assert len(extended_words) == 2 ** space.m_bits - space.n_combos
        assert extended_words == list(range(space.n_combos, 2 ** space.m_bits))
        for value in extended_words:
            msg = encode_bits(int_to_bits(value, space.m_bits), space)
            assert msg.d < space.n_reused

    @given(st.data())
    @settings(max_examples=200)
    def test_loopback_random_spaces(self, data):
        m = data.draw(st.integers(min_value=3, max_value=128))
        k = data.draw(st.integers(min_value=1, max_value=min(m - 1, 3)))
        space = ApSpace(M=m, K=k)
        value = data.draw(st.integers(min_value=0, max_value=2 ** space.m_bits - 1))
        bits = int_to_bits(value, space.m_bits)
        msg = encode_bits(bits, space)
        assert decode_to_bits(msg.d, msg.extended, space) == bits


class TestBitWords:
    @given(st.integers(min_value=0, max_value=2**20 - 1), st.integers(min_value=20, max_value=24))
    def test_int_bits_roundtrip(self, value, width):
        assert bits_to_int(int_to_bits(value, width)) == value

    def test_msb_first(self):
        assert bits_to_int((1, 1, 0)) == 6
        assert int_to_bits(6, 3) == (1, 1, 0)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits_to_int((0, 2, 1))


class TestSymbolSets:
    def test_default_k2(self):
        rows = symbol_rows(2)
        assert rows.tolist() == [[1, 1j], [-1, -1j]]

    def test_rows_stack_the_sets_read_only(self):
        rows = symbol_rows(3)
        assert rows.shape == (2, 3) and rows.dtype == np.complex128
        assert rows.tolist() == [[1, 1j, 1], [-1, -1j, -1]]
        assert not rows.flags.writeable

    @pytest.mark.parametrize("k", range(1, 9))
    def test_one_owner_per_k(self, k):
        rows = symbol_rows(k)
        assert rows.shape == (2, k) and rows.dtype == np.complex128
        assert rows[0].tolist() == [1j ** (i % 2) for i in range(k)]
        assert np.array_equal(rows[1], -rows[0])
        assert np.all(np.abs(rows) == 1.0)
        assert np.all(rows[0] != rows[1])
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 2
        assert symbol_rows(k) is rows  # built once per k
