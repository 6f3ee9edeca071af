"""Contour duality and the exact fringe-subtree expectation formulas.

Run:  python demos/02_trees_and_exact_formulas.py
"""

import pav
from pav import bij231, trees

print("== a path as the contour of an ordered tree ==")
path = pav.from_text("UDUUDUUDDUDDUUDD")
tree = trees.from_contour(path)
print("path    :", path)
print("parents :", tree.parent.tolist(), "  as text:", repr(tree.to_text()))
print("children:", tree.children())
st = trees.stats(tree)
print("heights :", st.heights.tolist())
print("fringe  :", st.fringe_sizes.tolist())
print("path length:", st.path_length, "  xi histogram:", st.xi)
print("contour roundtrip:", trees.to_contour(trees.OrderedTree(tree.to_text())) == path)

print()
print("== the tree formula reproduces the 231 bijection ==")
sigma = bij231.forward(path)
print("sigma:", sigma)
print("via tree:", [bij231.tree_formula(tree, i) for i in range(1, path.n + 1)])

print()
print("== exact expectations vs simulation (n = 200) ==")
n, k = 200, 5
exact = trees.expected_xi(n, k)
rng = pav.substream(42)
est = sum(
    trees.stats(trees.from_contour(pav.sample_uniform(n, rng))).xi.get(k, 0)
    for _ in range(2000)
) / 2000
print(f"E[xi_{k}] over trees with {n + 1} vertices: exact {exact} = {float(exact):.4f}, "
      f"simulated {est:.4f}")

print()
print("== normalized counts of large fringe subtrees approach 1/sqrt(pi c) ==")
c, alpha = 1.0, 0.5
limit = trees.subtree_size_limit(c, alpha)
print(f"(c, alpha) = ({c}, {alpha}), limit = {limit:.6f}")
for n in (100, 1000, 10_000):
    kn = int(c * n**alpha)
    ratio = float(trees.expected_hat_xi(n, kn)) / n ** (1 - alpha / 2)
    print(f"  n = {n:6d}: E[hat xi_{kn}] / n^{1 - alpha/2} = {ratio:.6f} "
          f"(error {abs(ratio - limit):.2e})")
