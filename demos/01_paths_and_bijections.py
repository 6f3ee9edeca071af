"""Tour of the core objects: Dyck paths, the two bijections, and their
inverses.

Run:  python demos/01_paths_and_bijections.py
"""

import numpy as np

import pav
from pav import bij231, bij321

print("== enumeration ==")
for n in range(5):
    print(f"n={n}: {pav.catalan(n)} paths:", " ".join(p.to_text() for p in pav.enumerate_all(n)))

print()
print("== a 20-step path and its 321-avoiding image ==")
heights = [0, 1, 0, 1, 2, 3, 4, 3, 2, 3, 4, 5, 6, 5, 4, 5, 4, 3, 2, 1, 0]
path = pav.DyckPath(np.diff(heights))
rd = pav.runs(path)
print("path      :", path)
print("run sums  : A =", list(rd.A), " D =", list(rd.D))
tau = bij321.forward(path)
print("tau       :", tau)
print("roundtrip :", bij321.inverse(tau) == path)

print()
print("== the excursion bijection to 231-avoiders ==")
path = pav.from_text("UUUDUUDUUUDDUDDDDUDD")
et = pav.excursions(path)
sigma = bij231.forward(path)
print("path  :", path)
print("v     :", list(et.v))
print("h     :", list(et.h))
print("l     :", list(et.l))
print("sigma :", sigma, "   sigma(6) = 6 + l6/2 - h6 =", 6 + et.l[5] // 2 - et.h[5])
print("roundtrip:", bij231.inverse(sigma) == path)

print()
print("== uniform sampling is exactly uniform (n = 3, 50k draws) ==")
from collections import Counter

rng = pav.substream(0)
counts = Counter(pav.sample_uniform(3, rng).to_text() for _ in range(50_000))
for text, c in sorted(counts.items()):
    print(f"  {text}: {c / 50_000:.4f}  (exact 1/5 = 0.2)")

print()
print("== both images, side by side, for a random path ==")
path = pav.sample_uniform(12, seed=5)
print("path :", path)
print("321  :", bij321.forward(path))
print("231  :", bij231.forward(path))
