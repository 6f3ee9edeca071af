"""Internal invariant checks are real checks: they still raise under
python -O, which strips assert statements."""

import os
import subprocess
import sys

import pav

# Each probe corrupts one piece of internal state and expects the check
# guarding it to raise NotReconstructible.
SCRIPT = """
import sys
import numpy as np
import pav
from pav import dyck, experiments
from pav.errors import BadStep, NotReconstructible
from pav.perms import ints_from_text, scaled_function
from pav.scaled import ScaledFunction, sup_distance

if sys.flags.optimize < 1:
    sys.exit("not running under python -O")


def expect_raise(name, fn, cls=NotReconstructible):
    try:
        fn()
    except cls:
        return
    sys.exit(name + " did not raise " + cls.__name__)


path = pav.from_text("UUDD")
path._heights = np.array([0, 1, 1, 0, 0])  # cached profile out of step with the steps
expect_raise("excursions parity", lambda: pav.excursions(path))


class FillRng:
    def __init__(self, step):
        self.step = step

    def shuffle(self, arr):
        arr[:] = self.step


for step in (1, -1):  # every step up, then every step down
    dyck.as_generator = lambda seed: FillRng(step)
    expect_raise(f"sample_uniform rotation of all {step:+d}", lambda: pav.sample_uniform(5, 0))
dyck.as_generator = pav.rng.as_generator

experiments.max_deficit = lambda sigma: -1
expect_raise("moment identity", lambda: experiments.moment_replicate(pav.sample_uniform(50, 1)))

experiments.catalan = lambda n: 0
expect_raise("oracle path count", lambda: experiments.exact_moment_oracle(3))
# The integer-line parser's checks and the integer rule (scaled_function's
# index set, from_runs' run lengths) are plain raises too.
expect_raise("int64 overflow", lambda: ints_from_text("9223372036854775808"), OverflowError)
expect_raise("19-digit overflow", lambda: ints_from_text("9999999999999999999"), OverflowError)
expect_raise("non-ASCII digit", lambda: ints_from_text("1 \uff12"), ValueError)
expect_raise("float index set", lambda: scaled_function(pav.Permutation([1, 2]), [1.5]), ValueError)
expect_raise("float run lengths", lambda: dyck.from_runs([2.7], [2.2]), BadStep)
# So are the lattice denominators' 2**53 limits.
tent = ScaledFunction([0, 1, 2**40], 2**40, [0.0, 1.0, 0.0])
expect_raise("eval_lattice at 2**54", lambda: tent.eval_lattice(2**54, 0, 1), ValueError)
expect_raise("sup_distance at 2**80",
             lambda: sup_distance(tent, ScaledFunction([0, 2**40 - 1], 2**40 - 1, [0.0, 0.0])),
             ValueError)
# The mirror sweep's bounds need E to rise along each run of one sign, as
# on every 321-avoider: an image whose exceedances 4, 3 fall is refused.
experiments.bij321.forward = lambda path: pav.Permutation([4, 3, 1, 2])
expect_raise("falling exceedances", lambda: experiments.coupling_321(pav.from_text("UDUDUDUD")))
print("ok")
"""


def test_checks_survive_optimize_flag():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pav.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
