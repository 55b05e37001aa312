"""Codebook generation: determinism, entry statistics, coherence, file I/O."""
import io

import numpy as np
import pytest

from svcim.codebook import (
    Codebook,
    CodebookSet,
    column_coherence,
    generate_codebook,
    generate_set,
    load_codebook_set,
    save_codebook_set,
)


class TestGeneration:
    def test_single_book_deterministic(self):
        a = generate_set(seed=1234, G=1, n=4, m=4)
        b = generate_set(seed=1234, G=1, n=4, m=4)
        assert np.array_equal(a[1].entries, b[1].entries)
        assert set(np.unique(a[1].entries)) <= {-1.0, 1.0}

    def test_entries_balanced(self):
        # binomial std of the mean is 1/sqrt(N*M) = 1/128; 0.05 is > 5 sigma
        book = generate_codebook(seed=9, book_id=1, n=128, m=128)
        assert abs(book.entries.mean()) < 0.05

    def test_books_distinct(self):
        cbs = generate_set(seed=5, G=4, n=16, m=16)
        assert not np.array_equal(cbs[1].entries, cbs[2].entries)

    def test_book_independent_of_set_size(self):
        small = generate_set(seed=11, G=2, n=8, m=8)
        large = generate_set(seed=11, G=8, n=8, m=8)
        for g in (1, 2):
            assert np.array_equal(small[g].entries, large[g].entries)

    def test_g_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            generate_set(seed=0, G=3, n=4, m=4)
        with pytest.raises(ValueError):
            generate_set(seed=0, G=0, n=4, m=4)

    def test_entries_frozen(self):
        book = generate_codebook(seed=0, book_id=1, n=4, m=4)
        with pytest.raises(ValueError):
            book.entries[0, 0] = -book.entries[0, 0]

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            Codebook(id=1, entries=np.zeros((2, 2)), seed=0)

    def test_set_index_bounds(self):
        cbs = generate_set(seed=0, G=2, n=4, m=4)
        with pytest.raises(ValueError):
            cbs[0]
        with pytest.raises(ValueError):
            cbs[3]


class TestCoherence:
    def test_orthogonal_columns(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert column_coherence(Codebook(id=1, entries=hadamard, seed=0)) == 0.0

    def test_duplicate_columns(self):
        dup = np.ones((4, 3))
        assert column_coherence(Codebook(id=1, entries=dup, seed=0)) == 1.0

    def test_single_column(self):
        one = np.ones((4, 1))
        assert column_coherence(Codebook(id=1, entries=one, seed=0)) == 0.0

    def test_taller_books_less_coherent(self):
        # direct computation, 20 seeds: more rows decorrelate the columns
        short = np.mean(
            [column_coherence(generate_codebook(s, 1, 32, 128)) for s in range(20)]
        )
        tall = np.mean(
            [column_coherence(generate_codebook(s, 1, 512, 128)) for s in range(20)]
        )
        assert short > tall

    def test_mean_coherence_monotone_in_rows(self):
        means = []
        for n in (32, 64, 128, 256, 512):
            means.append(
                np.mean([column_coherence(generate_codebook(s, 1, n, 128)) for s in range(20)])
            )
        assert all(a >= b for a, b in zip(means, means[1:]))


class TestFileFormat:
    def test_set_roundtrip_bit_exact(self, tmp_path):
        cbs = generate_set(seed=42, G=4, n=16, m=8)
        path = tmp_path / "books.txt"
        save_codebook_set(cbs, path)
        loaded = load_codebook_set(path)
        assert loaded.G == cbs.G
        for g in range(1, cbs.G + 1):
            assert loaded[g].id == cbs[g].id
            assert loaded[g].seed == cbs[g].seed
            assert np.array_equal(loaded[g].entries, cbs[g].entries)

    def test_malformed_row_rejected(self):
        text = "N=2 M=2 id=1 seed=0\n+-\n+x\n"
        from svcim.codebook import read_codebook

        with pytest.raises(ValueError):
            read_codebook(io.StringIO(text))

    def test_header_missing_key_rejected(self):
        from svcim.codebook import read_codebook

        with pytest.raises(ValueError, match="lacks N"):
            read_codebook(io.StringIO("M=4 id=1 seed=0\n"))

    def test_set_invariants(self):
        b1 = generate_codebook(0, 1, 4, 4)
        b2 = generate_codebook(0, 1, 4, 4)  # same id
        with pytest.raises(ValueError):
            CodebookSet(books=(b1, b2))
        b3 = generate_codebook(0, 2, 8, 4)  # different shape
        with pytest.raises(ValueError):
            CodebookSet(books=(b1, b3))
