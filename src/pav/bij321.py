"""The Billey-Jockusch-Stanley bijection between Dyck paths and
321-avoiding permutations, with its conditional coupling diagnostics.

Forward rule: with run prefix sums A_i, D_i of the path, tau sends each
D_i (i < m) to 1 + A_i and maps the remaining positions increasingly
onto the remaining values.  D_m = n is deliberately excluded: tau(n)
would otherwise be n+1.  The inverse accepts exactly the 321-avoiders,
by `perms.avoids_321`, and rebuilds the path from the exceedance runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyck import DyckPath, from_runs, runs
from .errors import Not321Avoiding
from .perms import Permutation, avoids_321
from .petrov import below, check_petrov


def forward(path: DyckPath) -> Permutation:
    """Map a Dyck path of semilength n >= 1 to its 321-avoiding image."""
    rd = runs(path)
    tau = np.empty(rd.n, dtype=np.int64)
    tau[rd.set_D() - 1] = 1 + rd.set_A()
    tau[rd.complement_D() - 1] = rd.complement_A()  # both ascending
    return Permutation(tau)


def inverse(perm: Permutation) -> DyckPath:
    """Recover the unique Dyck path mapping to a 321-avoiding perm.

    The exceedances j (tau(j) > j) are D_1..D_{m-1}, with images
    1 + A_1..1 + A_{m-1}, and A_m = D_m = n.  The rebuilt path maps back
    iff the exceedance values increase (else an up-run is negative) and
    the remaining values increase (forward sends the remaining positions
    increasingly onto the remaining values): exactly when tau avoids 321
    (`avoids_321`).  Any other input raises Not321Avoiding.
    """
    if not avoids_321(perm):
        raise Not321Avoiding(f"input contains a 321 pattern: {perm}")
    n, images = perm.n, perm.images
    exceeds = images > np.arange(1, n + 1)
    return from_runs(np.diff(np.compress(exceeds, images) - 1, prepend=0, append=n),
                     np.diff(np.flatnonzero(exceeds) + 1, prepend=0, append=n))


@dataclass(frozen=True)
class CouplingReport:
    """Worst-case deviations between tau and the path heights.

    max_d_error:    max over j in {D_i} of |tau(j) - j - gamma(2j)|
    max_notd_error: max over j outside of |tau(j) - j + gamma(2j)|
    max_run_error:  max over j outside of |tau(j) - j + y_i|, where i is
                    the run with D_{i-1} < j <= D_i
    petrov_held:    whether the path satisfies the moderate-deviation
                    conditions; when it does, the first two maxima must
                    stay below 10 n^0.4 and the third below 7 n^0.4.
    """

    n: int
    max_d_error: int
    max_notd_error: int
    max_run_error: int
    petrov_held: bool
    d_within_bound: bool
    notd_within_bound: bool
    run_within_bound: bool

    @property
    def bounds_hold(self) -> bool:
        return self.d_within_bound and self.notd_within_bound and self.run_within_bound


def coupling_bounds(path: DyckPath, petrov_report=None) -> CouplingReport:
    """Evaluate the conditional coupling inequalities on one path.

    The bound comparisons are exact: v < 10 n^{2/5} iff v^5 < 10^5 n^2
    in integer arithmetic, and similarly for 7 n^{2/5}.
    """
    rd = runs(path)
    n = rd.n
    tau = forward(path).images
    gamma = path.heights
    idx = np.arange(1, n + 1, dtype=np.int64)
    diff = tau - idx
    mask_d = diff > 0  # the exceedances are D_1..D_{m-1}

    g2 = gamma[2 * idx]
    max_d = int(np.max(np.abs(diff[mask_d] - g2[mask_d]))) if mask_d.any() else 0
    max_notd = int(np.max(np.abs(diff[~mask_d] + g2[~mask_d])))

    # run index i with D_{i-1} < j <= D_i for each j outside the D-set
    j_out = idx[~mask_d]
    run_idx = np.searchsorted(rd.D, j_out, side="left")
    y_out = rd.y[run_idx]
    max_run = int(np.max(np.abs(diff[~mask_d] + y_out)))

    if petrov_report is None:
        petrov_report = check_petrov(path)
    held = petrov_report.all_hold
    return CouplingReport(
        n=n,
        max_d_error=max_d,
        max_notd_error=max_notd,
        max_run_error=max_run,
        petrov_held=held,
        d_within_bound=below(max_d, n, 10, Fraction(2, 5)),
        notd_within_bound=below(max_notd, n, 10, Fraction(2, 5)),
        run_within_bound=below(max_run, n, 7, Fraction(2, 5)),
    )
