"""Ordered trees, contour duality, fringe statistics, and the exact
expectation formulas."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pav
from pav import trees
from pav.errors import DomainError, RangeError, TooLarge
from pav.rng import substream


def random_tree(n, seed):
    return trees.from_contour(pav.sample_uniform(n, substream(seed)))


def contour_parents(path):
    """Oracle: the parent list of the tree whose contour is the path, by
    one stack pass over the steps."""
    parent = [-1] * (path.n + 1)
    stack = [0]
    label = 0
    for s in path.steps.tolist():
        if s == 1:
            label += 1
            parent[label] = stack[-1]
            stack.append(label)
        else:
            stack.pop()
    return parent


def preorder_error(parent):
    """Oracle: the message rejecting a parent list with parent[0] = -1 and
    0 <= parent[j] < j, or None.  Replays the walk with a stack: each new
    vertex must attach to the current rightmost path."""
    stack = [0]
    for j, pj in enumerate(parent[1:], start=1):
        while stack and stack[-1] != pj:
            stack.pop()
        if not stack:
            return f"vertex {j} attaches off the rightmost path"
        stack.append(j)
    return None


def depths_and_sizes(parent):
    """Oracle: depth and fringe-subtree size of every vertex of a
    preorder parent list, by one pass each way."""
    depth = [0] * len(parent)
    size = [1] * len(parent)
    for j in range(1, len(parent)):
        depth[j] = depth[parent[j]] + 1
    for j in range(len(parent) - 1, 0, -1):
        size[parent[j]] += size[j]
    return depth, size


class TestContour:
    def test_single_edge(self):
        t = trees.from_contour(pav.from_text("UD"))
        assert t.size == 2 and t.children() == [[1], []]

    def test_hand_tree(self):
        t = trees.from_contour(pav.from_text("UUDUDD"))
        assert t.children() == [[1], [2, 3], [], []]

    def test_nine_vertex_example(self):
        t = trees.from_contour(pav.from_text("UDUUDUUDDUDDUUDD"))
        kids = t.children()
        assert kids[0] == [1, 2, 7]
        assert kids[2] == [3, 4, 6]
        assert kids[4] == [5]
        assert kids[7] == [8]

    def test_roundtrip_exhaustive(self):
        for n in range(0, 9):
            for p in pav.enumerate_all(n):
                assert trees.to_contour(trees.from_contour(p)) == p

    def test_roundtrip_random(self):
        rng = substream(3)
        for _ in range(300):
            p = pav.sample_uniform(int(rng.integers(1, 150)), rng)
            t = trees.from_contour(p)
            assert trees.to_contour(t) == p
            # tree -> tree the other way round as well
            assert trees.from_contour(trees.to_contour(t)) == t

    @given(st.integers(1, 2000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, n, seed):
        p = pav.sample_uniform(n, substream(seed))
        assert trees.to_contour(trees.from_contour(p)) == p

    def test_heights_match_path(self):
        p = pav.sample_uniform(500, 9)
        depth, _ = depths_and_sizes(contour_parents(p))
        assert trees.from_contour(p).heights.tolist() == depth

    @given(st.integers(0, 2000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_parents_match_stack_oracle(self, n, seed):
        p = pav.sample_uniform(n, substream(seed)) if n else pav.from_text("")
        parent = contour_parents(p)
        assert trees.from_contour(p).parent.tolist() == parent
        assert trees.to_contour(trees.OrderedTree(np.array(parent))) == p

    def test_preorder_validation(self):
        with pytest.raises(ValueError):
            trees.OrderedTree([-1, 0, 0, 1])  # v3 attaches off the rightmost path
        trees.OrderedTree([-1, 0, 1, 0])  # valid: path then sibling

    def test_accepts_exactly_the_contour_trees(self):
        """Of all parent arrays with 0 <= p[j] < j and N <= 7 vertices,
        the preorder trees are accepted and every other array is rejected
        with the stack replay's message."""
        for size in range(1, 8):
            contours = {tuple(contour_parents(p)): p for p in pav.enumerate_all(size - 1)}
            for tail in product(*(range(j) for j in range(1, size))):
                parent = (-1, *tail)
                message = preorder_error(parent)
                assert (message is None) == (parent in contours)
                if message is None:
                    t = trees.OrderedTree(np.array(parent))
                    assert t.parent.tolist() == list(parent)
                    assert trees.to_contour(t) == contours[parent]
                else:
                    with pytest.raises(ValueError) as exc:
                        trees.OrderedTree(np.array(parent))
                    assert str(exc.value) == message

    @pytest.mark.parametrize("parent", [
        np.array([-1.0, 0.7, 1.9]), np.array([True, False]), np.array(["-1", "0"]),
    ], ids=["float", "bool", "str"])
    def test_non_integer_parents_rejected(self, parent):
        with pytest.raises(ValueError):
            trees.OrderedTree(parent)

    def test_caller_array_stays_writable(self):
        a = np.array([-1, 0, 1])
        t = trees.OrderedTree(a)
        a[1] = 0
        assert t.parent.tolist() == [-1, 0, 1]
        with pytest.raises(ValueError):
            t.parent[1] = 0  # the tree's own array is read-only


class TestStats:
    def test_single_vertex(self):
        t = trees.OrderedTree([-1])
        st_ = trees.stats(t)
        assert st_.path_length == 0
        assert st_.xi == {1: 1}
        assert trees.hat_xi(t, 1) == 0

    def test_hand_tree(self):
        st_ = trees.stats(trees.from_contour(pav.from_text("UUDUDD")))
        assert list(st_.heights) == [0, 1, 2, 2]
        assert st_.path_length == 5
        assert st_.xi == {1: 2, 3: 1, 4: 1}

    def test_chain(self):
        st_ = trees.stats(trees.from_contour(pav.from_text("UUUDDD")))
        assert st_.path_length == 6
        assert st_.xi == {1: 1, 2: 1, 3: 1, 4: 1}

    @given(st.integers(1, 60), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_weighted_size_identity(self, n, seed):
        st_ = trees.stats(random_tree(n, seed))
        total = sum(k * c for k, c in st_.xi.items())
        assert total == int(st_.fringe_sizes.sum())

    def test_hat_xi(self):
        t = trees.from_contour(pav.from_text("UUDUDD"))
        assert trees.hat_xi(t, 1) == 3  # every non-root vertex
        assert trees.hat_xi(t, 2) == 1
        assert trees.hat_xi(t, 4) == 0  # k = |t| counts nothing proper
        with pytest.raises(RangeError):
            trees.hat_xi(t, 0)


class TestCatalan:
    def test_values(self):
        assert [trees.catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_recurrence(self):
        cat = [1]
        for n in range(40):
            cat.append(sum(cat[i] * cat[n - i] for i in range(n + 1)))
        assert all(trees.catalan(n) == cat[n] for n in range(41))

    def test_negative(self):
        with pytest.raises(RangeError):
            trees.catalan(-1)


def enumeration_mean_xi(n, k):
    """Oracle: exact mean of xi_k over all trees with n+1 vertices."""
    total = 0
    count = 0
    for p in pav.enumerate_all(n):
        st_ = trees.stats(trees.from_contour(p))
        total += st_.xi.get(k, 0)
        count += 1
    return Fraction(total, count)


def expected_xi_binomials(n, k):
    """Oracle: C_{k-1} * binom(2r, r) / (2 C_n), r = n+1-k, from big
    binomials, plus 1/2 for the whole tree at k = n+1."""
    r = n + 1 - k
    whole = Fraction(1, 2) if k == n + 1 else 0
    return Fraction(trees.catalan(k - 1) * math.comb(2 * r, r), 2 * trees.catalan(n)) + whole


@st.composite
def n_and_k(draw):
    n = draw(st.integers(1, 3000))
    k = draw(st.one_of(
        st.sampled_from([1, n // 2 - 1, n // 2, n // 2 + 1, n, n + 1]),
        st.integers(1, n + 1),
    ))
    return n, min(max(k, 1), n + 1)


class TestExpectedXi:
    def test_spec_values_n2(self):
        assert trees.expected_xi(2, 1) == Fraction(3, 2)
        assert trees.expected_xi(2, 2) == Fraction(1, 2)
        assert trees.expected_xi(2, 3) == Fraction(1)

    def test_against_enumeration(self):
        for n in range(0, 7):
            for k in range(1, n + 2):
                assert trees.expected_xi(n, k) == enumeration_mean_xi(n, k), (n, k)

    def test_whole_tree_always_one(self):
        for n in (0, 1, 5, 30):
            assert trees.expected_xi(n, n + 1) == 1

    def test_range(self):
        with pytest.raises(RangeError):
            trees.expected_xi(4, 0)
        with pytest.raises(RangeError):
            trees.expected_xi(4, 6)

    def test_binomials_exhaustive(self):
        for n in range(60):
            for k in range(1, n + 2):
                assert trees.expected_xi(n, k) == expected_xi_binomials(n, k), (n, k)

    @given(n_and_k())
    @example((3000, 1)).via("k = 1")
    @example((2999, 1500)).via("odd n, k - 1 = n - k")
    @example((3000, 3001)).via("k = n + 1")
    @settings(max_examples=150, deadline=None)
    def test_binomial_property(self, nk):
        assert trees.expected_xi(*nk) == expected_xi_binomials(*nk)


def expected_hat_xi_tail(n, k):
    """Oracle: the tail sum sum_{j=k}^{n} E[xi_j] term by term, with the
    summand C_{j-1} * binom(2(n+1-j), n+1-j) updated by one small-factor
    multiply/divide per term (O(n - k) steps)."""
    if k == n + 1:
        return Fraction(0)
    r = n + 1 - k
    term = trees.catalan(k - 1) * math.comb(2 * r, r)
    total = term
    for j in range(k, n):
        # C_j / C_{j-1} = 2(2j-1)/(j+1);  binom(2r-2,r-1)/binom(2r,r) = r/(2(2r-1))
        term = term * (2 * (2 * j - 1) * r) // ((j + 1) * 2 * (2 * r - 1))
        r -= 1
        total += term
    return Fraction(total, 2 * trees.catalan(n))


def expected_hat_xi_shorter(n, k):
    """Oracle: the same sum taken over its shorter side.  Every non-root
    vertex roots one proper fringe subtree, so sum_{j=1}^{n} T_j = 2n C_n
    with T_j = C_{j-1} * binom(2(n+1-j), n+1-j): the head j < k is summed
    and subtracted from 2n C_n when it is shorter than the tail j >= k
    (O(min(k, n - k)) term updates)."""
    if k == n + 1:
        return Fraction(0)
    binom_n = math.comb(2 * n, n)
    c_n = binom_n // (n + 1)
    head = k - 1 < n - k + 1
    if head:
        first, last, term = 1, k - 1, binom_n  # T_1 = C_0 binom(2n, n)
    else:
        first, last = k, n
        term = trees.catalan(k - 1) * math.comb(2 * (n + 1 - k), n + 1 - k)
    total = 0
    r = n + 1 - first
    for j in range(first, last + 1):
        total += term
        term = term * ((2 * j - 1) * r) // ((j + 1) * (2 * r - 1))
        r -= 1
    if head:
        total = 2 * n * c_n - total
    return Fraction(total, 2 * c_n)


class TestExactFormulaGuards:
    @pytest.mark.parametrize("fn", [trees.expected_xi, trees.expected_hat_xi])
    def test_negative_n_named(self, fn):
        with pytest.raises(RangeError, match="n=-3"):
            fn(-3, 1)

    @pytest.mark.parametrize("fn", [trees.expected_xi, trees.expected_hat_xi])
    def test_size_guard(self, fn):
        with pytest.raises(TooLarge, match=str(trees.EXACT_LIMIT)):
            fn(trees.EXACT_LIMIT + 1, 1)


class TestExpectedHatXi:
    def test_oracle_exhaustive(self):
        for n in range(60):
            for k in range(1, n + 2):
                exact = trees.expected_hat_xi(n, k)
                assert exact == expected_hat_xi_tail(n, k) == expected_hat_xi_shorter(n, k), (n, k)

    @given(n_and_k())
    @example((3000, 1)).via("k = 1")
    @example((3000, 1499)).via("k = n/2 - 1")
    @example((3000, 1501)).via("k = n/2 + 1")
    @example((2999, 1500)).via("odd n, k - 1 = n - k")
    @example((3000, 3001)).via("k = n + 1")
    @settings(max_examples=150, deadline=None)
    def test_oracle_property(self, nk):
        exact = trees.expected_hat_xi(*nk)
        assert exact == expected_hat_xi_tail(*nk) == expected_hat_xi_shorter(*nk)

    def test_oracle_at_a09_points(self):
        # The shorter-side oracle: the tail oracle needs O(n - k) updates here.
        n = 100_000
        oracle = {k: expected_hat_xi_shorter(n, k) for k in (100, 101, 31623, 50000)}
        for k, value in oracle.items():
            assert trees.expected_hat_xi(n, k) == value, k
        assert trees.expected_xi(n, 100) == oracle[100] - oracle[101]

    def test_spec_values_n2(self):
        assert trees.expected_hat_xi(2, 1) == 2
        assert trees.expected_hat_xi(2, 2) == Fraction(1, 2)

    def test_equals_sum_of_xi(self):
        for n in (1, 2, 5, 9, 23, 60):
            for k in sorted({1, 2, 3, n // 2 + 1, n} & set(range(1, n + 1))):
                direct = sum(
                    (trees.expected_xi(n, j) for j in range(k, n + 1)), Fraction(0)
                )
                assert trees.expected_hat_xi(n, k) == direct, (n, k)

    def test_against_enumeration_n8(self):
        total = 0
        count = 0
        for p in pav.enumerate_all(8):
            total += trees.hat_xi(trees.from_contour(p), 3)
            count += 1
        assert trees.expected_hat_xi(8, 3) == Fraction(total, count)

    def test_k_n_plus_1_is_zero(self):
        assert trees.expected_hat_xi(7, 8) == 0

    def test_float_version_close(self):
        for n, k in ((100, 10), (1000, 31), (2000, 500)):
            exact = float(trees.expected_hat_xi(n, k))
            approx = trees.expected_hat_xi_float(n, k)
            assert abs(approx - exact) <= 1e-10 * exact


class TestSubtreeSizeLimit:
    def test_values(self):
        assert trees.subtree_size_limit(1.0, 0.5) == pytest.approx(1 / math.sqrt(math.pi))
        assert trees.subtree_size_limit(0.5, 1.0) == pytest.approx(1 / math.sqrt(math.pi))
        assert trees.subtree_size_limit(1.0, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            trees.subtree_size_limit(2.0, 1.0)
        with pytest.raises(DomainError):
            trees.subtree_size_limit(-1.0, 0.5)
        with pytest.raises(DomainError):
            trees.subtree_size_limit(1.0, 1.5)
        with pytest.raises(DomainError):
            trees.subtree_size_limit(1.0, 0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_non_finite_c(self, c, alpha):
        with pytest.raises(DomainError):
            trees.subtree_size_limit(c, alpha)
