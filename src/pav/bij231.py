"""The excursion bijection between Dyck paths and 231-avoiding
permutations: sigma(i) = i + l_i/2 - h_i, where (v_i, h_i, l_i) describe
the excursion opened by the i-th up-step.

Equivalently, reading the path as the contour of an ordered tree,
sigma(i) = i + |subtree of v_i| - depth(v_i).  The inverse rebuilds the
path from its peaks: each length-2 excursion is a peak, and it shows in
sigma as a weak local minimum of sigma(i) - i.  It then certifies the
path in O(n), with no sort: each excursion length that sigma claims
must end on the path at the level where that excursion starts.
"""

from __future__ import annotations

import numpy as np

from .dyck import DyckPath, excursions, from_runs
from .errors import IndexOutOfRange, InvalidPath, Not231Avoiding, integer
from .perms import Permutation
from .trees import OrderedTree, to_contour


def forward(path: DyckPath) -> Permutation:
    """Map a Dyck path of semilength n >= 1 to its 231-avoiding image."""
    et = excursions(path)
    sigma = np.arange(1, et.n + 1, dtype=np.int64) + (et.l >> 1) - et.h
    return Permutation(sigma)


def inverse(perm: Permutation) -> DyckPath:
    """Recover the unique path with sigma_gamma = perm.

    sigma(i) - i has a weak local minimum exactly at the length-2
    excursions, where the path peaks at position 2i - h_i with height
    h_i = 1 - (sigma(i) - i); a Dyck path is determined by its peaks.

    The rebuilt path maps back iff each claimed excursion end
    c_i = s_i + 2(sigma(i) - i + h_i), with s_i the position before the
    i-th up-step, is a position at level gamma(s_i).  The first such
    position after s_i is the true end, so sigma(i) is at least the
    image's i-th value, and two permutations of 1..n with equal sums
    are equal.  c_i > s_i needs no check: along each up-run of the
    rebuilt path sigma(i) - i + h_i never rises, and it is 1 at the peak.
    Every rejection raises Not231Avoiding.
    """
    n = perm.n
    delta = perm.images - np.arange(1, n + 1, dtype=np.int64)
    is_peak = np.empty(n, dtype=bool)
    is_peak[-1] = True
    is_peak[:-1] = delta[1:] >= delta[:-1]
    i_pk = np.flatnonzero(is_peak) + 1
    h_pk = 1 - delta[i_pk - 1]
    # Adjacent peaks (x, h), (x', h') meet at the valley (h + h' - (x' - x)) / 2.
    valley = (h_pk[:-1] + h_pk[1:] - np.diff(2 * i_pk - h_pk)) >> 1
    climbs = np.concatenate(([h_pk[0]], h_pk[1:] - valley))
    descents = np.concatenate((h_pk[:-1] - valley, [h_pk[-1]]))
    try:
        path = from_runs(climbs, descents)
        gamma = path.heights
        s = np.flatnonzero(path.steps == 1)  # the position before each up-step
        c = s + 2 * (delta + gamma[s] + 1)  # claimed excursion ends s_i + l_i
        if (c <= 2 * n).all() and (gamma[c] == gamma[s]).all():
            return path
    except InvalidPath:  # peaks that no Dyck path has
        pass
    raise Not231Avoiding(f"input contains a 231 pattern: {perm}")


def tree_formula(tree: OrderedTree, i: int) -> int:
    """sigma(i) = i + |fringe subtree of v_i| - depth(v_i), 1 <= i < N."""
    i = integer(i, "i", IndexOutOfRange, 1, tree.size - 1)
    et = excursions(to_contour(tree))  # cached on the contour: O(1) after the first call
    return i + int(et.l[i - 1] >> 1) - int(et.h[i - 1])
