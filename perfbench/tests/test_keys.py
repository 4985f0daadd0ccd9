from collections import Counter

from perfbench.keys import SequentialChooser, ZipfianChooser


def test_zipfian_is_deterministic_for_a_seed():
    first = ZipfianChooser(1000, 0.99, seed=7)
    second = ZipfianChooser(1000, 0.99, seed=7)
    assert [first.next() for _ in range(500)] == [second.next() for _ in range(500)]


def test_zipfian_differs_across_seeds():
    first = ZipfianChooser(1000, 0.99, seed=7)
    second = ZipfianChooser(1000, 0.99, seed=8)
    assert [first.next() for _ in range(200)] != [second.next() for _ in range(200)]


def test_zipfian_is_skewed_and_in_range():
    chooser = ZipfianChooser(1000, 0.99, seed=3)
    draws = [chooser.next() for _ in range(20_000)]
    assert all(0 <= draw < 1000 for draw in draws)
    counts = Counter(draws).most_common()
    # Rank 1 of a theta=0.99 zipfian over 1000 keys carries about 13% of draws.
    assert counts[0][1] > 0.08 * len(draws)
    assert counts[0][1] > 20 * counts[len(counts) // 2][1]


def test_sequential_chooser_is_deterministic():
    chooser = SequentialChooser(start=5)
    assert [chooser.next() for _ in range(4)] == [5, 6, 7, 8]
