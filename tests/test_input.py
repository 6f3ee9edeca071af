"""One rule for integer and real input, at every entry point that takes
one: numpy integers are accepted; bools, floats (2.0 too), strings and
None are refused with an error that names the parameter, never truncated,
parsed or cast.  An empty sequence of any dtype is empty."""

import math
import re

import numpy as np
import pytest

import pav
from pav import bij231, dyck, experiments, parallel, perms, rng, trees
from pav.errors import BadConfig, BadStep, DomainError, IndexOutOfRange, PavError, RangeError
from pav.scaled import ScaledFunction

PATH = pav.from_text("UUDUDD")
PERM = pav.Permutation([2, 1, 3])
TREE = trees.from_contour(PATH)


def config(**fields):
    kwargs = dict(theorem_id="thm321", n_grid=(10,), replicates=1, seed=0)
    return experiments.ExperimentConfig(**{**kwargs, **fields})


# (id, call with the value, error class, parameter name)
SCALARS = [
    ("sample_uniform", lambda v: dyck.sample_uniform(v, 1), ValueError, "n"),
    ("enumerate_all", lambda v: next(dyck.enumerate_all(v)), ValueError, "n"),
    ("substream seed", lambda v: rng.substream(v), ValueError, "seed"),
    ("substream key", lambda v: rng.substream(1, v), ValueError, "key"),
    ("random_index_set n", lambda v: experiments.random_index_set(v, 3, 1), ValueError, "n"),
    ("random_index_set count", lambda v: experiments.random_index_set(10, v, 1),
     ValueError, "count"),
    ("exact_moment_oracle", experiments.exact_moment_oracle, ValueError, "n"),
    ("catalan", trees.catalan, RangeError, "n"),
    ("hat_xi", lambda v: trees.hat_xi(TREE, v), RangeError, "k"),
    ("expected_xi n", lambda v: trees.expected_xi(v, 1), RangeError, "n"),
    ("expected_hat_xi k", lambda v: trees.expected_hat_xi(4, v), RangeError, "k"),
    ("expected_hat_xi_float n", lambda v: trees.expected_hat_xi_float(v, 1), RangeError, "n"),
    ("Permutation.identity", pav.Permutation.identity, ValueError, "n"),
    ("Permutation.__call__", PERM, IndexOutOfRange, "i"),
    ("exceedance", lambda v: perms.exceedance(PERM, v), IndexOutOfRange, "i"),
    ("tree_formula", lambda v: bij231.tree_formula(TREE, v), IndexOutOfRange, "i"),
    ("ScaledFunction t_den", lambda v: ScaledFunction([0, 2], v, [0.0, 0.0]), ValueError, "t_den"),
    ("ExperimentConfig n_grid", lambda v: config(n_grid=(v,)), BadConfig, "n_grid"),
    ("ExperimentConfig replicates", lambda v: config(replicates=v), BadConfig, "replicates"),
    ("ExperimentConfig seed", lambda v: config(seed=v), BadConfig, "seed"),
    ("effective_workers", parallel.effective_workers, BadConfig, "--threads/PAV_THREADS"),
]

ARRAYS = [
    ("DyckPath", pav.DyckPath, BadStep, "steps"),
    ("from_runs up", lambda v: dyck.from_runs(v, [1]), BadStep, "up"),
    ("from_runs down", lambda v: dyck.from_runs([1], v), BadStep, "down"),
    ("Permutation", pav.Permutation, ValueError, "images"),
    ("OrderedTree", trees.OrderedTree, ValueError, "parents"),
    ("scaled_function", lambda v: perms.scaled_function(PERM, v), ValueError, "indices"),
    ("ScaledFunction t_num", lambda v: ScaledFunction(v, 1, [0.0, 0.0]), ValueError, "t_num"),
    ("ints_to_text", perms.ints_to_text, ValueError, "values"),
]

REALS = [
    ("ExperimentConfig c", lambda v: config(c=v), BadConfig, "c"),
    ("ExperimentConfig alpha", lambda v: config(alpha=v), BadConfig, "alpha"),
    ("ExperimentConfig epsilon", lambda v: config(epsilon=v), BadConfig, "epsilon"),
    ("subtree_size_limit c", lambda v: trees.subtree_size_limit(v, 0.5), DomainError, "c"),
    ("subtree_size_limit alpha", lambda v: trees.subtree_size_limit(1.0, v),
     DomainError, "alpha"),
    ("se_set c", lambda v: experiments.se_set(PATH, v, 0.4), ValueError, "c"),
    ("se_set alpha", lambda v: experiments.se_set(PATH, 1.0, v), ValueError, "alpha"),
]


def refused(call, value, error, name):
    with pytest.raises(error) as exc:
        call(value)
    assert isinstance(exc.value, (PavError, ValueError))
    assert str(exc.value).startswith(f"{name} must be "), str(exc.value)


# None is effective_workers' default: PAV_THREADS, else 1
@pytest.mark.parametrize("site,call,error,name,value", [
    pytest.param(*site, value, id=f"{site[0]}-{value!r}")
    for site in SCALARS for value in (2.5, 2.0, True, "2", None, np.float64(2.0), np.True_)
    if not (value is None and site[0] == "effective_workers")
])
def test_scalar_sites_refuse_non_integers(site, call, error, name, value):
    refused(call, value, error, name)


@pytest.mark.parametrize("value", [
    [1.0, -1.0], np.array([2.5, 3.0]), [True, False], np.array([True]), ["1", "2"],
    [[1, -1]], np.array([[1, 2], [3, 4]]), 2, None, [1, True], (np.True_, 2),
    [np.array(True), 1],
], ids=["floats", "float array", "bools", "bool array", "strings", "2-d", "2-d array",
        "scalar", "None", "bool among ints", "numpy bool among ints", "0-d bool among ints"])
@pytest.mark.parametrize("site,call,error,name", ARRAYS, ids=[s[0] for s in ARRAYS])
def test_array_sites_refuse_non_integers(site, call, error, name, value):
    refused(call, value, error, name)


@pytest.mark.parametrize("value", ["1", True, None, math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("site,call,error,name", REALS, ids=[s[0] for s in REALS])
def test_real_sites_refuse_strings_bools_and_non_finite(site, call, error, name, value):
    refused(call, value, error, name)


@pytest.mark.parametrize("y", [["1", "2"], [True, False], [True, 0.5], (1.0, np.True_),
                               [0.0, math.nan], [math.inf, 0.0]])
def test_ordinates_are_finite_reals(y):
    refused(lambda v: ScaledFunction([0, 1], 1, v), y, ValueError, "y")


@pytest.mark.parametrize("grid", [5, "12", np.int64(12), [[10, 20]]])
def test_n_grid_is_a_sequence(grid):
    refused(lambda v: config(n_grid=v), grid, BadConfig, "n_grid")


@pytest.mark.parametrize("grid", [(10, 20), [10, 20], np.array([10, 20], dtype=np.uint8)],
                         ids=["tuple", "list", "array"])
def test_n_grid_sequences_accepted(grid):
    assert config(n_grid=grid).n_grid == (10, 20)
    assert all(type(n) is int for n in config(n_grid=grid).n_grid)


@pytest.mark.parametrize("keep_raw", ["no", 0, 1, None, np.True_])
def test_keep_raw_is_a_bool(keep_raw):
    refused(lambda v: config(keep_raw=v), keep_raw, BadConfig, "keep_raw")
    assert config(keep_raw=True).keep_raw is True


@pytest.mark.parametrize("c,alpha,message", [
    (1.0, 1e308, "alpha=1e+308 makes n**alpha overflow at n=3"),
    (1e308, 10.0, "c=1e+308 makes c * n**alpha overflow at n=3"),
    (1.0, -0.4, "alpha=-0.4 makes n**alpha overflow at n=0"),  # 0.0**-0.4 is +inf
])
def test_se_set_threshold_must_not_overflow(c, alpha, message):
    # the wording of ExperimentConfig, whose check it shares, on a path of the n named
    path = pav.DyckPath("UD" * int(message.rpartition("=")[2]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        experiments.se_set(path, c, alpha)


# (id, call, error class, message) of each check on a value's structure
STRUCTURES = [
    ("unequal lengths", lambda: ScaledFunction([0, 1, 2], 2, [0.0, 0.0]),
     ValueError, "knot arrays must be of equal length"),
    ("one knot", lambda: ScaledFunction([0], 1, [0.0]),
     ValueError, "need at least the two endpoint knots"),
    ("short of [0,1]", lambda: ScaledFunction([0, 1], 2, [0.0, 0.0]),
     ValueError, "knots must span [0,1] exactly"),
    ("knots not increasing", lambda: ScaledFunction([0, 2, 1, 2], 2, [0.0] * 4),
     ValueError, "knot abscissae must be strictly increasing"),
    ("root with a parent", lambda: trees.OrderedTree([0, 0]),
     ValueError, "root (label 0) must have parent -1"),
]


@pytest.mark.parametrize("site,call,error,message", STRUCTURES, ids=[s[0] for s in STRUCTURES])
def test_structure_checks_name_the_fault(site, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_bounds_name_the_parameter():
    refused(lambda v: dyck.sample_uniform(v, 1), 0, ValueError, "n")
    refused(PERM, 4, IndexOutOfRange, "i")
    with pytest.raises(IndexOutOfRange, match=r"^i must be in 0\.\.3, not -1$"):
        perms.exceedance(PERM, -1)
    with pytest.raises(RangeError, match="^k must be >= 1, not 0$"):
        trees.hat_xi(TREE, 0)
    for replicates in (0, -5):  # subtree draws none, yet needs one like every theorem
        refused(lambda v: config(theorem_id="subtree", replicates=v), replicates,
                BadConfig, "replicates")


@pytest.mark.parametrize("cast", [np.int8, np.uint16, np.int64, np.uint64])
def test_numpy_integers_accepted(cast):
    assert dyck.sample_uniform(cast(5), cast(3)) == dyck.sample_uniform(5, 3)
    draw = rng.substream(7, 2).integers(1 << 30)
    assert rng.substream(cast(7), cast(2)).integers(1 << 30) == draw
    assert PERM(cast(1)) == 2 and perms.exceedance(PERM, cast(0)) == 0
    assert trees.catalan(cast(5)) == 42 and trees.hat_xi(TREE, cast(2)) == 1
    assert bij231.tree_formula(TREE, cast(2)) == bij231.tree_formula(TREE, 2)
    assert experiments.exact_moment_oracle(cast(3)) == experiments.exact_moment_oracle(3)
    assert config(n_grid=(cast(10),), seed=cast(4)) == config(seed=4)
    one = np.array([1], dtype=cast)
    assert dyck.from_runs(one, one) == pav.from_text("UD")


@pytest.mark.parametrize("empty", [[], (), np.array([], dtype=bool), np.array([], dtype="<U1"),
                                   np.array([], dtype=np.float32), np.array([], dtype=np.uint8)],
                         ids=["list", "tuple", "bool", "str", "float32", "uint8"])
def test_empty_sequences_are_empty(empty):
    assert pav.DyckPath(empty) == pav.DyckPath("")
    assert dyck.from_runs(empty, empty) == pav.DyckPath("")
    f = perms.scaled_function(PERM, empty)
    assert f.t_num.tolist() == [0, 3] and f.y.tolist() == [0.0, 0.0]
    assert perms.ints_to_text(empty) == ""
    with pytest.raises(ValueError, match="bijection"):  # a permutation needs n >= 1
        pav.Permutation(empty)
