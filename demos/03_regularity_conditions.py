"""Moderate-deviation regularity conditions: what they look like on
random paths, on a crafted regular family, and the bounds they gate.

Run:  python demos/03_regularity_conditions.py
"""

import json

import pav
from pav.bij321 import coupling_bounds
from pav.petrov import check_petrov, petrov_frequency

print("== a random path at n = 1000 fails the height condition ==")
path = pav.sample_uniform(1000, seed=1)
report = check_petrov(path)
print(json.dumps(report.as_dict(), indent=2, sort_keys=True)[:600], "...")

print()
print("== the regular family (UUDD)^k satisfies all four conditions ==")
for k in (25, 500, 5000):
    p = pav.from_text("UUDD" * k)
    rep = check_petrov(p)
    bounds = coupling_bounds(p)  # not gated: rep.all_hold says whether they must hold
    print(f"  n = {2 * k:6d}: all_hold={rep.all_hold}  derived claims ok={rep.voucher.ok}  "
          f"coupling errors ({bounds.max_d_error}, {bounds.max_notd_error}, "
          f"{bounds.max_run_error}) within bounds={bounds.bounds_hold}")

print()
print("== the conditions are a large-n phenomenon: frequencies at desk scale ==")
for n in (100, 1000, 10_000):
    out = petrov_frequency(n, replicates=40, seed=7)
    print(f"  n = {n:6d}: fraction passing = {out['frequency_all']:.2f}  "
          f"(per-condition failure rates {out['failure_rate']})")
print("the thresholds overtake typical path fluctuations only at astronomically")
print("large n, so exactness of the checker, not observed frequency, is the point")
