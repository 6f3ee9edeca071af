"""Command-line surface: sampling, bijections, statistics, exact
formulas, regularity checks, and the experiment harness.

Text formats are shared with the library: paths are U/D strings,
permutations are space-separated one-indexed images, and trees are the
space-separated parent labels of v_1..v_N-1 (the root v_0 is implicit).
stdout carries data only; diagnostics go to stderr.  Exit codes: 0
success, 1 data error, an allocation the machine refuses or a file that
cannot be written, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import bij231, bij321, dyck, perms, trees
from ._version import __version__
from .errors import PavError
from .experiments import THEOREMS, ExperimentConfig, run_experiment
from .petrov import check_petrov, check_voucher
from .rng import substream
from .trees import expected_hat_xi, expected_xi, subtree_size_limit


class DataError(Exception):
    """Invalid input data: reported on stderr with exit code 1."""


_NOUNS = {dyck.DyckPath: "path", perms.Permutation: "permutation", trees.OrderedTree: "tree"}

# kind -> (text type, object to path, path to object)
_KINDS = {
    "dyck": (dyck.DyckPath, lambda path: path, lambda path: path),
    "321": (perms.Permutation, bij321.inverse, bij321.forward),
    "231": (perms.Permutation, bij231.inverse, bij231.forward),
    "tree": (trees.OrderedTree, trees.to_contour, trees.from_contour),
}


def _parse(cls, text: str):
    try:
        return cls(text)
    except (ValueError, OverflowError) as exc:  # OverflowError: beyond int64
        raise DataError(f"invalid {_NOUNS[cls]} {text!r}: {exc}") from exc


def _to_path(kind: str, text: str) -> dyck.DyckPath:
    cls, to_path, _ = _KINDS[kind]
    return to_path(_parse(cls, text))  # main() reports an inverse's PavError


def _from_path(kind: str, path: dyck.DyckPath) -> str:
    return _KINDS[kind][2](path).to_text()


def _inputs(args) -> list[str]:
    """Positional inputs if present, else nonempty stdin lines, without
    the ASCII blanks at either end (any other character is data)."""
    if args.input:
        return [text.strip(" \t\r\n") for text in args.input]
    return [text for line in sys.stdin if (text := line.strip(" \t\r\n"))]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args) -> int:
    if args.count < 0:
        raise DataError(f"--count must be >= 0, not {args.count}")
    for k in range(args.count):
        path = dyck.sample_uniform(args.n, substream(args.seed, k))
        print(_from_path(getattr(args, "as"), path))
    return 0


def _cmd_map(args) -> int:
    src, dst = getattr(args, "from"), args.to
    for text in _inputs(args):
        print(_from_path(dst, _to_path(src, text)))
    return 0


def _cmd_stats(args) -> int:
    for text in _inputs(args):
        path = _to_path(getattr(args, "as"), text)
        sigma = bij231.forward(path)
        inversions = (int(path.heights.sum()) - path.n) // 2  # inv(sigma), off the area
        e_plus, e_minus = perms.exceedance_sets(sigma)
        print(json.dumps({
            "n": path.n,
            "max_height": dyck.max_height(path),
            "sigma_231": sigma.to_text(),
            "inversions": inversions,
            "max_deficit": perms.max_deficit(sigma),
            "path_length": inversions + path.n,  # the tree's summed depths, (area + n) / 2
            "exceedance_nonneg": int(e_plus.size),
            "exceedance_nonpos": int(e_minus.size),
        }, sort_keys=True))
    return 0


def _cmd_check(args) -> int:
    avoid = perms.avoids_321 if args.pattern == "321" else perms.avoids_231
    bad = 0
    for text in _inputs(args):
        perm = _parse(perms.Permutation, text)
        if avoid(perm):
            print(text)
        else:
            bad += 1
            print(f"contains {args.pattern}: {text}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_expect(args) -> int:
    if args.quantity == "limit":
        print(repr(subtree_size_limit(args.c, args.alpha)))
        return 0
    fn = expected_xi if args.quantity == "xi" else expected_hat_xi
    val = fn(args.n, args.k)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # CPython converts at most 4,300 digits by default
        sys.set_int_max_str_digits(0)
    try:
        print(f"{val.numerator}/{val.denominator} ({float(val)!r})")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_petrov(args) -> int:
    for text in _inputs(args):
        path = _parse(dyck.DyckPath, text)
        report = check_petrov(path)
        payload = report.as_dict()
        payload["voucher"] = dataclasses.asdict(check_voucher(path, report))
        print(json.dumps(payload, sort_keys=True))
    return 0


# theorem id -> the real options its run reads; the other ids read none
_READS = {"thm231": ("c", "alpha", "epsilon"), "random_index": ("c", "alpha"),
          "subtree": ("c", "alpha")}


def _cmd_experiment(args) -> int:
    reals = {name: value for name in ("c", "alpha", "epsilon")
             if (value := getattr(args, name)) is not None}  # the rest keep the config's defaults
    unread = [name for name in reals if name not in _READS.get(args.theorem, ())]
    if unread and args.theorem in THEOREMS:  # an unknown id is the config's error
        args.parser.error(f"--theorem {args.theorem} reads no "
                          + ", ".join(f"--{name}" for name in unread))
    config = ExperimentConfig(
        theorem_id=args.theorem,
        n_grid=tuple(args.n_grid),
        replicates=args.replicates,
        seed=args.seed,
        keep_raw=args.keep_raw is not None,
        **reals,
    )
    report = run_experiment(config, workers=args.threads)
    if args.keep_raw:  # first, so a CSV that cannot be written leaves stdout empty
        report.save_raw_csv(args.keep_raw)
    if args.out:
        report.save(args.out, include_timing=not args.no_timing)
    else:
        print(report.to_json(include_timing=not args.no_timing))
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pav",
        description="Dyck paths, pattern-avoiding permutations, and "
        "excursion-scaling experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw uniform objects")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="draw k uses the substream (seed, k)")
    p.add_argument("--as", choices=("dyck", "321", "231"), default="dyck")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("map", help="convert between representations")
    p.add_argument("--from", choices=tuple(_KINDS), required=True)
    p.add_argument("--to", choices=tuple(_KINDS), required=True)
    p.add_argument("input", nargs="*", help="objects; stdin lines if omitted")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("stats", help="per-object statistics as JSON lines")
    p.add_argument("--as", choices=tuple(_KINDS), default="dyck")
    p.add_argument("input", nargs="*")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("check", help="filter permutations avoiding a pattern")
    p.add_argument("--pattern", choices=("321", "231"), required=True)
    p.add_argument("input", nargs="*")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("expect", help="exact expectation formulas")
    quantity = p.add_subparsers(dest="quantity", required=True)
    for name in ("xi", "hat-xi"):
        q = quantity.add_parser(name)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--k", type=int, required=True)
    q = quantity.add_parser("limit")
    q.add_argument("--c", type=float, default=1.0)
    q.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(fn=_cmd_expect)

    p = sub.add_parser("petrov", help="regularity conditions of each path as JSON lines")
    p.add_argument("input", nargs="*")
    p.set_defaults(fn=_cmd_petrov)

    p = sub.add_parser("experiment", help="run a convergence experiment")
    p.add_argument("--theorem", required=True)
    p.add_argument("--n-grid", type=int, nargs="+", required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, help="thm231, random_index and subtree only")
    p.add_argument("--alpha", type=float, help="thm231, random_index and subtree only")
    p.add_argument("--epsilon", type=float, help="thm231 only")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--keep-raw", type=str, default=None, metavar="CSV")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(fn=_cmd_experiment, parser=p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except (DataError, PavError, ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # OSError: an --out or --keep-raw path
        return 1


if __name__ == "__main__":
    sys.exit(main())
