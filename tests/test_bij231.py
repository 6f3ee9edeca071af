"""Excursion bijection to 231-avoiders: formula values, roundtrips,
order structure, tree formula, pathwise identities."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav import bij231, trees
from pav.dyck import from_runs
from pav.errors import IndexOutOfRange, InvalidPath, Not231Avoiding
from pav.perms import Permutation, contains_pattern, inversions, max_deficit
from pav.rng import substream
from test_perms import stack_avoids_231, transposed
from test_trees import contour_parents, depths_and_sizes

P231 = Permutation([2, 3, 1])


def ancestry_tree(perm: Permutation) -> trees.OrderedTree:
    """The ordered tree whose preorder sigma-order matches the perm.

    parent(v_j) = v_i with i = max{i < j : sigma(i) > sigma(j)}, or the
    root v_0 when no such i exists; children attach in index order.
    One stack pass, O(n).
    """
    sigma = perm.images.tolist()
    n = len(sigma)
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    stack_label = [0]
    stack_value = [n + 1]  # sentinel above every sigma value
    for j, val in enumerate(sigma, start=1):
        while stack_value[-1] < val:
            stack_value.pop()
            stack_label.pop()
        parent[j] = stack_label[-1]
        stack_label.append(j)
        stack_value.append(val)
    return trees.OrderedTree(parent)


def tree_route_inverse(perm: Permutation) -> pav.DyckPath:
    """Oracle for bij231.inverse: the one-stack 231 test, then the contour
    of the ancestry tree (parent = nearest previous larger value)."""
    if not stack_avoids_231(perm):
        raise Not231Avoiding(f"input contains a 231 pattern: {perm}")
    return trees.to_contour(ancestry_tree(perm))


def peak_path(perm: Permutation) -> pav.DyckPath:
    """The path bij231.inverse rebuilds from the peaks of perm; raises
    InvalidPath for peaks that no Dyck path has."""
    n = perm.n
    delta = perm.images - np.arange(1, n + 1)
    is_peak = np.append(delta[1:] >= delta[:-1], True)
    i_pk = np.flatnonzero(is_peak) + 1
    h_pk = 1 - delta[i_pk - 1]
    valley = (h_pk[:-1] + h_pk[1:] - np.diff(2 * i_pk - h_pk)) // 2
    return from_runs(np.append(h_pk[0], h_pk[1:] - valley),
                     np.append(h_pk[:-1] - valley, h_pk[-1]))


def recompute_inverse(perm: Permutation) -> pav.DyckPath:
    """Oracle for bij231.inverse's certificate: rebuild the path from the
    peaks, then require that it maps forward to perm."""
    try:
        path = peak_path(perm)
        if bij231.forward(path) == perm:
            return path
    except InvalidPath:
        pass
    raise Not231Avoiding(f"input contains a 231 pattern: {perm}")


def claimed_ends(perm: Permutation, path: pav.DyckPath):
    """(s, c): the position before each up-step of path, and the end
    s_i + l_i of the excursion that perm claims it opens."""
    s = np.flatnonzero(path.steps == 1)
    return s, s + 2 * (perm.images - np.arange(1, perm.n + 1) + path.heights[s + 1])


def inverse_outcome(inverse, perm: Permutation):
    """The path an inverse returns, or the message it rejects with."""
    try:
        return inverse(perm)
    except Not231Avoiding as exc:
        return str(exc)


class TestForward:
    def test_caption_value(self):
        sigma = bij231.forward(pav.from_text("UUUDUUDUUUDDUDDDDUDD"))
        assert sigma(6) == 6

    def test_hand_example(self):
        assert bij231.forward(pav.from_text("UUDUDD")) == Permutation([3, 1, 2])

    def test_sawtooth_identity(self):
        for n in (1, 4, 9):
            assert bij231.forward(pav.from_text("UD" * n)) == Permutation.identity(n)

    def test_single_run_reversal_shape(self):
        assert bij231.forward(pav.from_text("UUUDDD")) == Permutation([3, 2, 1])

    def test_images_avoid_231_exhaustive(self):
        for n in range(1, 7):
            for p in pav.enumerate_all(n):
                assert not contains_pattern(bij231.forward(p), P231)

    def test_injective_onto_class_exhaustive(self):
        for n in range(1, 7):
            images = {bij231.forward(p) for p in pav.enumerate_all(n)}
            assert len(images) == pav.catalan(n)


class TestInverse:
    def test_examples(self):
        assert bij231.inverse(Permutation([3, 1, 2])) == pav.from_text("UUDUDD")
        assert bij231.inverse(Permutation.identity(3)) == pav.from_text("UDUDUD")
        assert bij231.inverse(Permutation([3, 2, 1])) == pav.from_text("UUUDDD")

    def test_rejects_non_avoider(self):
        with pytest.raises(Not231Avoiding):
            bij231.inverse(Permutation([2, 3, 1]))

    def test_roundtrips_exhaustive(self):
        for n in range(1, 7):
            for p in pav.enumerate_all(n):
                assert bij231.inverse(bij231.forward(p)) == p
            for images in permutations(range(1, n + 1)):
                perm = Permutation(images)
                if contains_pattern(perm, P231):
                    continue
                assert bij231.forward(bij231.inverse(perm)) == perm

    def test_roundtrip_random_large(self):
        rng = substream(8)
        for _ in range(25):
            p = pav.sample_uniform(1000, rng)
            assert bij231.inverse(bij231.forward(p)) == p

    def test_peak_reconstruction_agrees(self):
        rng = substream(12)
        for _ in range(100):
            p = pav.sample_uniform(int(rng.integers(1, 200)), rng)
            sigma = bij231.forward(p)
            assert bij231.inverse(sigma) == tree_route_inverse(sigma) == p

    def test_peak_reconstruction_rejects(self):
        """Accepted iff 231-avoiding, with the outcome of the forward
        recompute."""
        for n in range(1, 8):
            for images in permutations(range(1, n + 1)):
                perm = Permutation(images)
                got = inverse_outcome(bij231.inverse, perm)
                assert got == inverse_outcome(recompute_inverse, perm)
                if contains_pattern(perm, P231):
                    assert got == f"input contains a 231 pattern: {perm}"
                else:
                    assert isinstance(got, pav.DyckPath)

    @given(st.integers(1, 2000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, n, seed):
        p = pav.sample_uniform(n, substream(seed))
        assert bij231.inverse(bij231.forward(p)) == p

    @given(st.integers(2, 10_000), st.integers(0, 10_000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_near_avoiders_match_oracle(self, n, seed, data):
        """One transposition of an image (of positions or of the adjacent
        values k, k+1) often keeps a valid peak structure, so the rejection
        falls to the certificate, which most random permutations never
        reach."""
        perm = transposed(bij231.forward(pav.sample_uniform(n, substream(seed))), data)
        got = inverse_outcome(bij231.inverse, perm)
        assert got == inverse_outcome(tree_route_inverse, perm)
        assert got == inverse_outcome(recompute_inverse, perm)

    @given(st.permutations(range(1, 9)))
    @settings(max_examples=150, deadline=None)
    def test_random_permutations_match_oracle(self, images):
        perm = Permutation(images)
        got = inverse_outcome(bij231.inverse, perm)
        assert got == inverse_outcome(tree_route_inverse, perm)

    def test_each_certificate_clause_decides_a_case(self):
        """Each permutation's peaks rebuild a Dyck path, so only the
        certificate rejects it.  3 1 4 2 claims an excursion end beyond
        2n: without the range clause inverse would index past the path.
        3 1 4 2 5 claims every end on the path, one at another level:
        without the level clause inverse would accept a path that maps
        elsewhere."""
        beyond = Permutation([3, 1, 4, 2])
        _, c = claimed_ends(beyond, peak_path(beyond))
        assert (c > 2 * beyond.n).any()

        other_level = Permutation([3, 1, 4, 2, 5])
        path = peak_path(other_level)
        s, c = claimed_ends(other_level, path)
        assert (c <= 2 * other_level.n).all()
        assert not (path.heights[c] == path.heights[s]).all()
        assert bij231.forward(path) != other_level

        for perm in (beyond, other_level):
            with pytest.raises(Not231Avoiding):
                recompute_inverse(perm)
            assert inverse_outcome(bij231.inverse, perm) == inverse_outcome(recompute_inverse, perm)


class TestTreeFormula:
    def test_hand_tree(self):
        t = trees.from_contour(pav.from_text("UUDUDD"))
        assert bij231.tree_formula(t, 1) == 3

    def test_leaf_fixed_point(self):
        # a depth-1 leaf contributes size 1 and height 1
        t = trees.from_contour(pav.from_text("UDUD"))
        assert bij231.tree_formula(t, 1) == 1

    def test_matches_forward_everywhere(self):
        """sigma(i) = i + size - depth, with the tree built by the stack
        oracle and its sizes and depths counted on the parent list."""
        rng = substream(44)
        for _ in range(20):
            p = pav.sample_uniform(int(rng.integers(1, 120)), rng)
            t = trees.from_contour(p)
            depth, size = depths_and_sizes(contour_parents(p))
            sigma = bij231.forward(p)
            for i in range(1, p.n + 1):
                assert bij231.tree_formula(t, i) == sigma(i) == i + size[i] - depth[i]

    def test_range_check(self):
        t = trees.from_contour(pav.from_text("UUDD"))
        with pytest.raises(IndexOutOfRange):
            bij231.tree_formula(t, 3)
        with pytest.raises(IndexOutOfRange):
            bij231.tree_formula(t, 0)


def check_order_structure(path) -> bool:
    """Verify the excursion-order dichotomy pairwise.

    For i < j: Exc(j) nested in Exc(i) iff j - i < l_i/2, and then
    sigma(j) < sigma(i); disjoint excursions give sigma(i) < sigma(j).
    Quadratic in n.
    """
    n = path.n
    et = pav.excursions(path)
    sigma = bij231.forward(path).images
    i = np.arange(1, n + 1, dtype=np.int64)
    gap = i[None, :] - i[:, None]  # gap[i-1, j-1] = j - i
    nested = gap < (et.l >> 1)[:, None]
    sig_less = sigma[None, :] < sigma[:, None]  # sigma(j) < sigma(i)
    upper = gap > 0
    return bool(np.all((nested == sig_less)[upper]))


class TestOrderStructure:
    def test_examples(self):
        assert check_order_structure(pav.from_text("UUDUDD"))
        assert check_order_structure(pav.from_text("UD"))

    def test_exhaustive(self):
        for n in range(1, 8):
            assert all(check_order_structure(p) for p in pav.enumerate_all(n))

    def test_random(self):
        rng = substream(17)
        assert all(
            check_order_structure(pav.sample_uniform(int(rng.integers(1, 400)), rng))
            for _ in range(50)
        )


class TestPathwiseIdentities:
    def identities_hold(self, p):
        """Depths and sizes come from the stack oracle's parent list, not
        from the excursion table that forward reads."""
        sigma = bij231.forward(p)
        depth, size = depths_and_sizes(contour_parents(p))
        st = trees.stats(trees.from_contour(p))
        assert (st.heights.tolist(), st.fringe_sizes.tolist()) == (depth, size)
        n = p.n
        # max height = 1 + max deficit
        assert pav.max_height(p) == 1 + max_deficit(sigma)
        # i - sigma(i) = height - fringe size, per vertex
        lhs = np.arange(1, n + 1) - sigma.images
        assert np.array_equal(lhs, np.subtract(depth, size)[1:])
        # inversions = path length - |t| + 1
        assert inversions(sigma) == sum(depth) - (n + 1) + 1

    def test_exhaustive(self):
        for n in range(1, 7):
            for p in pav.enumerate_all(n):
                self.identities_hold(p)

    def test_random(self):
        rng = substream(23)
        for _ in range(50):
            self.identities_hold(pav.sample_uniform(int(rng.integers(1, 500)), rng))
