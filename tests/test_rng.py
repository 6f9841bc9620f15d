import numpy as np

from familykit.rng import SplitRng


def test_same_seed_bit_identical():
    a = SplitRng(123).gaussian((4, 5), std=0.02)
    b = SplitRng(123).gaussian((4, 5), std=0.02)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(SplitRng(1).gaussian(16), SplitRng(2).gaussian(16))


def test_split_streams_are_independent_of_draw_order():
    root = SplitRng(7)
    a_first = root.split("a").gaussian(8)
    # drawing from another child must not shift "a"
    root2 = SplitRng(7)
    root2.split("b").gaussian(100)
    a_second = root2.split("a").gaussian(8)
    assert np.array_equal(a_first, a_second)


def test_split_labels_distinguish():
    root = SplitRng(7)
    assert not np.array_equal(root.split("x").gaussian(8), root.split("y").gaussian(8))


def test_nested_splits():
    a = SplitRng(3).split("init").split("backbone.0").gaussian(4)
    b = SplitRng(3).split("init").split("backbone.0").gaussian(4)
    assert np.array_equal(a, b)


def test_gaussian_moments_and_dtype():
    z = SplitRng(11).gaussian((200, 200), std=2.0)
    assert z.dtype == np.float32
    assert abs(float(z.mean())) < 0.02
    assert abs(float(z.std()) - 2.0) < 0.02


def test_gaussian_odd_count():
    assert SplitRng(5).gaussian(7).shape == (7,)
    assert SplitRng(5).gaussian((3, 5)).shape == (3, 5)


def test_permutation_deterministic():
    p1 = SplitRng(9).split("perm").permutation(50)
    p2 = SplitRng(9).split("perm").permutation(50)
    assert np.array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(50))


def test_scalar_uniform_deterministic():
    # sampling decode draws one scalar uniform per step
    a, b = SplitRng(4).split("s"), SplitRng(4).split("s")
    draws = [float(a.uniform(())) for _ in range(5)]
    assert draws == [float(b.uniform(())) for _ in range(5)]
    assert all(0.0 <= u < 1.0 for u in draws) and len(set(draws)) == 5
