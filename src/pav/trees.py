"""Rooted ordered trees, contour duality, fringe-subtree statistics, and
exact expectation formulas for uniformly random ordered trees.

Vertices carry depth-first preorder labels: the root is v_0 and v_j is
the j-th vertex first visited by the walk, so parents have smaller
labels and sibling labels increase left to right.  A tree with n+1
vertices corresponds to a Dyck path of semilength n through its contour
process; all expectation APIs take the semilength n and document the +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyck import DyckPath, excursions, steps_from_runs
from .errors import DomainError, RangeError


class OrderedTree:
    """Immutable rooted ordered tree given by its preorder parent array.

    parent[0] = -1 for the root; parent[j] < j for j >= 1.  Children of a
    vertex are ordered by label.
    """

    __slots__ = ("_parent", "_heights")

    def __init__(self, parent, validated: bool = False):
        arr = np.asarray(parent, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("parent array must be nonempty and 1-d")
        if not validated:
            _check_preorder(arr)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._parent = arr
        self._heights = None

    @property
    def parent(self) -> np.ndarray:
        return self._parent

    @property
    def size(self) -> int:
        """Number of vertices N."""
        return int(self._parent.size)

    def __len__(self):
        return self.size

    @property
    def heights(self) -> np.ndarray:
        """Depth of every vertex (edges to the root), root = 0.

        Computed by pointer doubling on the parent array: O(N log depth)
        in a handful of vectorized passes.
        """
        if self._heights is None:
            self._heights = _depths(self._parent)
            self._heights.setflags(write=False)
        return self._heights

    def children(self) -> list[list[int]]:
        """Ordered adjacency lists, index = vertex label."""
        out: list[list[int]] = [[] for _ in range(self.size)]
        for j, p in enumerate(self._parent.tolist()):
            if p >= 0:
                out[p].append(j)
        return out

    def __eq__(self, other):
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return self.size == other.size and bool(np.all(self._parent == other._parent))

    def __hash__(self):
        return hash(self._parent.tobytes())

    def __repr__(self):
        return f"OrderedTree({self.size} vertices)"


def _check_preorder(parent: np.ndarray) -> None:
    if parent[0] != -1:
        raise ValueError("root (label 0) must have parent -1")
    n = parent.size
    if n == 1:
        return
    p = parent[1:]
    if p.min() < 0 or np.any(p >= np.arange(1, n)):
        raise ValueError("parents must carry smaller labels (preorder)")
    # Preorder also requires each new vertex to attach to the current
    # rightmost path; replay the walk with a stack.
    stack = [0]
    for j, pj in enumerate(p.tolist(), start=1):
        while stack and stack[-1] != pj:
            stack.pop()
        if not stack:
            raise ValueError(f"vertex {j} attaches off the rightmost path")
        stack.append(j)


def _depths(parent: np.ndarray) -> np.ndarray:
    n = parent.size
    # anc[j]: ancestor reached by the current jump, cnt[j]: edges covered.
    # Composing the jump with itself doubles its reach until everything
    # saturates at the root, where cnt[0] = 0 stops the accumulation.
    anc = parent.copy()
    anc[0] = 0
    cnt = (np.arange(n) > 0).astype(np.int64)
    while np.any(anc > 0):
        cnt = cnt + cnt[anc]
        anc = anc[anc]
    return cnt


def from_contour(path: DyckPath) -> OrderedTree:
    """The ordered tree whose contour process is the given path.

    n up-steps give n non-root vertices; the tree has n+1 vertices.
    """
    steps = path.steps.tolist()
    parent = [-1] * (path.n + 1)
    stack = [0]
    label = 0
    for s in steps:
        if s == 1:
            label += 1
            parent[label] = stack[-1]
            stack.append(label)
        else:
            stack.pop()
    return OrderedTree(np.array(parent, dtype=np.int64), validated=True)


def to_contour(tree: OrderedTree) -> DyckPath:
    """Exact inverse of from_contour.

    Between the first visits of consecutive preorder vertices the walk
    descends to the next vertex's parent and steps up once, so the step
    pattern is determined by the depth sequence alone.
    """
    n = tree.size - 1
    if n == 0:
        return DyckPath(np.empty(0, dtype=np.int8), validated=True)
    ht = tree.heights[1:]  # depths of v_1..v_n in label order
    down = np.empty(n, dtype=np.int64)
    down[:-1] = ht[:-1] - ht[1:] + 1
    down[-1] = ht[-1]
    return DyckPath(steps_from_runs(np.ones(n, dtype=np.int64), down), validated=True)


@dataclass(frozen=True)
class SubtreeStats:
    """Per-vertex heights and fringe-subtree sizes, path length, and the
    sparse histogram xi[k] = number of fringe subtrees with k vertices
    (the whole tree contributes xi[N] = 1)."""

    heights: np.ndarray
    fringe_sizes: np.ndarray
    path_length: int
    xi: dict[int, int]


def stats(tree: OrderedTree) -> SubtreeStats:
    """Heights, fringe sizes, path length, and the xi histogram in O(N).

    Fringe sizes are read off the contour's excursion lengths: the
    subtree of v_i spans exactly the i-th excursion, whose length is
    twice the subtree's vertex count.
    """
    n_vertices = tree.size
    heights = tree.heights
    sizes = np.empty(n_vertices, dtype=np.int64)
    sizes[0] = n_vertices
    if n_vertices > 1:
        sizes[1:] = excursions(to_contour(tree)).fringe_sizes()
    ks, counts = np.unique(sizes, return_counts=True)
    xi = {int(k): int(c) for k, c in zip(ks, counts)}
    return SubtreeStats(
        heights=heights,
        fringe_sizes=sizes,
        path_length=int(heights.sum()),
        xi=xi,
    )


def hat_xi(tree: OrderedTree, k: int) -> int:
    """Number of proper fringe subtrees with at least k vertices."""
    if k < 1:
        raise RangeError("k must be >= 1")
    if tree.size == 1:
        return 0
    sizes = excursions(to_contour(tree)).fringe_sizes()
    return int(np.sum(sizes >= k))


def catalan(n: int) -> int:
    """Exact n-th Catalan number C_n = binom(2n, n)/(n+1)."""
    if n < 0:
        raise RangeError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def expected_xi(n: int, k: int) -> Fraction:
    """Exact E[xi_k] for a uniform ordered tree with n+1 vertices.

    Formula: C_{k-1} * binom(2(n+1-k), n+1-k) / (2 C_n), plus 1/2 when
    k = n+1 (the whole tree).  Valid for 1 <= k <= n+1.
    """
    if not 1 <= k <= n + 1:
        raise RangeError(f"k={k} outside 1..{n + 1}")
    r = n + 1 - k
    val = Fraction(catalan(k - 1) * math.comb(2 * r, r), 2 * catalan(n))
    if k == n + 1:
        val += Fraction(1, 2)
    return val


def expected_hat_xi(n: int, k: int) -> Fraction:
    """Exact E[hat_xi_k] = sum_{j=k}^{n} E[xi_j] (proper subtrees only).

    Every non-root vertex roots exactly one proper fringe subtree, so
    sum_{j=1}^{n} E[xi_j] = n, i.e. sum_{j=1}^{n} T_j = 2n C_n with
    T_j = C_{j-1} * binom(2(n+1-j), n+1-j).  The sum is therefore taken
    over the shorter side: the head j < k, subtracted from 2n C_n, or the
    tail j >= k.  T_j is carried as one big integer and updated by one
    small-factor multiply/divide per term: O(min(k, n - k)) updates of
    ~2n-bit numbers, plus the one binom(2n, n) that gives both T_1 and C_n.
    """
    if not 1 <= k <= n + 1:
        raise RangeError(f"k={k} outside 1..{n + 1}")
    if k == n + 1:
        return Fraction(0)
    binom_n = math.comb(2 * n, n)
    c_n = binom_n // (n + 1)
    head = k - 1 < n - k + 1
    if head:
        first, last, term = 1, k - 1, binom_n  # T_1 = C_0 binom(2n, n)
    else:
        first, last = k, n
        term = catalan(k - 1) * math.comb(2 * (n + 1 - k), n + 1 - k)
    total = 0
    r = n + 1 - first
    for j in range(first, last + 1):
        total += term
        # C_j / C_{j-1} = 2(2j-1)/(j+1);  binom(2r-2,r-1)/binom(2r,r) = r/(2(2r-1))
        term = term * ((2 * j - 1) * r) // ((j + 1) * (2 * r - 1))
        r -= 1
    if head:
        total = 2 * n * c_n - total
    return Fraction(total, 2 * c_n)


def expected_hat_xi_float(n: int, k: int) -> float:
    """Floating evaluation of E[hat_xi_k] via log-gamma, for n beyond
    exact-arithmetic comfort (n > 1e6).  Relative error < 1e-10."""
    if not 1 <= k <= n + 1:
        raise RangeError(f"k={k} outside 1..{n + 1}")
    log_2cn = math.log(2) + _log_catalan(n)
    total = 0.0
    for j in range(k, n + 1):
        r = n + 1 - j
        log_term = _log_catalan(j - 1) + _log_central_binom(r) - log_2cn
        total += math.exp(log_term)
    return total


def _log_catalan(n: int) -> float:
    return (
        math.lgamma(2 * n + 1)
        - 2 * math.lgamma(n + 1)
        - math.log(n + 1)
    )


def _log_central_binom(r: int) -> float:
    return math.lgamma(2 * r + 1) - 2 * math.lgamma(r + 1)


def subtree_size_limit(c: float, alpha: float) -> float:
    """Limit of the normalized expected count of large proper fringe
    subtrees, threshold floor(c n^alpha).

    For 0 < alpha < 1 (normalization n^{1-alpha/2}) the limit is
    1/sqrt(pi c); for alpha = 1 (normalization sqrt(n)) and 0 < c <= 1 it
    is sqrt((1-c)/(pi c)), which vanishes at c = 1.
    """
    if not 0 < c < math.inf:  # also rejects NaN
        raise DomainError("c must be positive and finite")
    if not 0 < alpha <= 1:
        raise DomainError("alpha must lie in (0, 1]")
    if alpha < 1:
        return 1.0 / math.sqrt(math.pi * c)
    if c > 1:
        raise DomainError("alpha = 1 requires c <= 1")
    return math.sqrt((1.0 - c) / (math.pi * c))
