"""Rooted ordered trees, contour duality, fringe-subtree statistics, and
exact expectation formulas for uniformly random ordered trees.

Vertices carry depth-first preorder labels: the root is v_0 and v_j is
the j-th vertex first visited by the walk, so parents have smaller
labels and sibling labels increase left to right.  A tree with n+1
vertices is held as its contour, a Dyck path of semilength n; all
expectation APIs take the semilength n and document the +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyck import DyckPath, excursions, from_runs
from .errors import DomainError, RangeError, TooLarge, integer, integers, real
from .perms import ints_from_text, ints_to_text


class OrderedTree:
    """Immutable rooted ordered tree, held as its contour: the i-th
    up-step opens v_i at the height after it, and the fringe subtree of
    v_i spans the excursion that step opens.

    Built from the contour DyckPath, a preorder parent array (parent[0] =
    -1, parent[j] < j, each v_j on the rightmost path of v_0..v_{j-1}), or
    a text line of the parent labels of v_1..v_{N-1}.
    """

    __slots__ = ("_path", "_parent")

    def __init__(self, tree):
        if isinstance(tree, str):
            tree = np.concatenate(([-1], ints_from_text(tree)))
        self._path = tree if isinstance(tree, DyckPath) else _contour(tree)
        self._parent = None

    @property
    def parent(self) -> np.ndarray:
        """parent[j] for every vertex, -1 for the root (read-only)."""
        if self._parent is None:
            self._parent = _parents(self.heights)
            self._parent.setflags(write=False)
        return self._parent

    @property
    def size(self) -> int:
        """Number of vertices N."""
        return self._path.n + 1

    def __len__(self):
        return self.size

    @property
    def heights(self) -> np.ndarray:
        """Depth of every vertex (edges to the root), root = 0: the
        contour's height after each up-step."""
        path = self._path
        return np.concatenate(([0], path.heights[np.flatnonzero(path.steps == 1) + 1]))

    def children(self) -> list[list[int]]:
        """Ordered adjacency lists, index = vertex label."""
        out: list[list[int]] = [[] for _ in range(self.size)]
        for j, p in enumerate(self.parent.tolist()):
            if p >= 0:
                out[p].append(j)
        return out

    def to_text(self) -> str:
        """The parent labels of v_1..v_{N-1}, space-separated."""
        return ints_to_text(self.parent[1:])

    def __eq__(self, other):
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return self._path == other._path

    def __hash__(self):
        return hash(self._path)

    def __repr__(self):
        return f"OrderedTree({self.size} vertices)"


def _contour(parent) -> DyckPath:
    """The contour of a parent array, accepted only if it gives the same
    parents back.  The caller's array is neither stored nor frozen."""
    parent = integers(parent, "parents")
    if parent.size == 0 or parent[0] != -1:
        raise ValueError("root (label 0) must have parent -1")
    if np.any(parent[1:] < 0) or np.any(parent[1:] > np.arange(parent.size - 1)):
        raise ValueError("parents must carry smaller labels (preorder)")
    depth = _depths(parent)
    # From v_{j-1} the walk descends to the parent of v_j and steps up; it
    # ends as if one more child of the root (depth 1) followed v_n.
    d = np.append(depth[1:], 1)
    down = d[:-1] - d[1:] + 1
    bad = _parents(depth) != parent  # parent not on the rightmost path
    bad[2:] |= down[:-1] < 0  # v_j deeper than v_{j-1} + 1
    if bad.any():
        raise ValueError(f"vertex {np.argmax(bad)} attaches off the rightmost path")
    return from_runs(np.ones_like(down), down)


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


def _parents(depth: np.ndarray) -> np.ndarray:
    """Each parent is the last earlier vertex one level up: in the sorted
    (depth, label) pairs, the pair just below (depth_i - 1, i)."""
    size = depth.size
    # numpy's stable argsort is a radix sort on 8- and 16-bit keys
    order = np.argsort(depth.astype(np.min_scalar_type(depth.max())), kind="stable")
    key = depth[order] * size + order
    parent = np.empty_like(order)
    parent[order] = order[np.searchsorted(key, key - size) - 1]
    parent[0] = -1
    return parent


def from_contour(path: DyckPath) -> OrderedTree:
    """The ordered tree whose contour process is the given path.

    n up-steps give n non-root vertices; the tree has n+1 vertices.
    """
    return OrderedTree(path)


def to_contour(tree: OrderedTree) -> DyckPath:
    """Exact inverse of from_contour."""
    return tree._path


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
    """Heights, fringe sizes, path length, and the xi histogram, read off
    the contour and its excursion table."""
    n_vertices = tree.size
    heights = tree.heights
    sizes = np.empty(n_vertices, dtype=np.int64)
    sizes[0] = n_vertices
    sizes[1:] = excursions(tree._path).fringe_sizes()
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
    k = integer(k, "k", RangeError, lo=1)
    sizes = excursions(tree._path).fringe_sizes()
    return int(np.sum(sizes >= k))


def catalan(n: int) -> int:
    """Exact n-th Catalan number C_n = binom(2n, n)/(n+1)."""
    n = integer(n, "n", RangeError, lo=0)
    return math.comb(2 * n, n) // (n + 1)


EXACT_LIMIT = 10**7  # the exact formulas sieve the primes up to 2n: O(n) memory


def _subtree_ratio(n: int, k: int) -> Fraction:
    """T_k / C_n, T_k = C_{k-1} binom(2r, r), r = n+1-k: the factorial ratio
    (2k-2)! (2r)! n! (n+1)! / ((k-1)! k! (r!)^2 (2n)!) from each prime's
    exponent by Legendre's formula, so no big binomial is formed."""
    n, k = integer(n, "n", RangeError), integer(k, "k", RangeError)
    if n < 0 or not 1 <= k <= n + 1:
        raise RangeError(f"n={n}, k={k}: need n >= 0 and 1 <= k <= n + 1")
    if n > EXACT_LIMIT:
        raise TooLarge(f"n={n} exceeds exact-formula guard {EXACT_LIMIT}")
    r = n + 1 - k
    sieve = np.ones(2 * n + 1, dtype=bool)
    for p in range(2, math.isqrt(2 * n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)[2:]  # not 0 and 1
    exp = np.zeros_like(primes)
    for m, sign in ((2 * k - 2, 1), (2 * r, 1), (n, 1), (n + 1, 1),
                    (k - 1, -1), (k, -1), (r, -2), (2 * n, -1)):
        q = m // primes
        while q.size:  # m // p^i falls as p grows: keep the nonzero prefix
            q = q[: np.count_nonzero(q)]
            exp[: q.size] += sign * q
            q //= primes[: q.size]
    return Fraction(_product(primes, exp), _product(primes, -exp))


def _product(primes: np.ndarray, exp: np.ndarray) -> int:
    """prod p^e over the positive e, in pairwise rounds (a running product is quadratic)."""
    factors = [p**e for p, e in zip(primes[exp > 0].tolist(), exp[exp > 0].tolist())]
    while len(factors) > 1:
        factors = [a * b for a, b in zip(factors[::2], factors[1::2] + [1])]
    return math.prod(factors)


def expected_xi(n: int, k: int) -> Fraction:
    """Exact E[xi_k] = T_k / (2 C_n) for a uniform ordered tree with n+1
    vertices, plus 1/2 at k = n+1 (the whole tree).  1 <= k <= n+1."""
    return _subtree_ratio(n, k) / 2 + (Fraction(1, 2) if k == n + 1 else 0)


def expected_hat_xi(n: int, k: int) -> Fraction:
    """Exact E[hat_xi_k] = sum_{j=k}^{n} E[xi_j] (proper subtrees only).
    The sum telescopes (Gosper; Petkovsek, Wilf and Zeilberger, A = B,
    1996, ch. 5): sum_{j=k}^{n} T_j = k (2n+3-2k) T_k / (n+1) - C_n."""
    return _subtree_ratio(n, k) * Fraction(k * (2 * n + 3 - 2 * k), 2 * (n + 1)) - Fraction(1, 2)


def expected_hat_xi_float(n: int, k: int) -> float:
    """Floating evaluation of E[hat_xi_k], a log-gamma tail sum kept only for
    benchmark/workloads.py's check.  Measured relative error: 2.2e-11 at (n, k) =
    (1e4, 39), 7.4e-11 at (1e5, 100), up to 1.1e-9 at n = 1e6, where it takes
    1.0 s against expected_hat_xi's 0.02 s (k <= 251)."""
    n, k = integer(n, "n", RangeError), integer(k, "k", RangeError)
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
    c, alpha = real(c, "c", DomainError), real(alpha, "alpha", DomainError)
    if c <= 0:
        raise DomainError("c must be positive")
    if not 0 < alpha <= 1:
        raise DomainError("alpha must lie in (0, 1]")
    if alpha < 1:
        return 1.0 / math.sqrt(math.pi * c)
    if c > 1:
        raise DomainError("alpha = 1 requires c <= 1")
    return math.sqrt((1.0 - c) / (math.pi * c))
