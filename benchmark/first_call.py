"""Set-up probe: import pav and make the first call into each layer one
workload uses, at tiny sizes, then exit.  That includes a first two-worker
run where the workload's two-worker phase starts a process pool.  run.py
times fresh interpreters running this file; it imports nothing from the
benchmark.

    PYTHONPATH=src python3 benchmark/first_call.py mc-coupling
"""

import sys

import pav  # noqa: F401  (the whole package, as users import it)
from pav import experiments, petrov, trees


def _experiment(theorem: str, n: int = 8, workers: int = 1) -> None:
    experiments.run_experiment(
        experiments.ExperimentConfig(theorem_id=theorem, n_grid=(n,), replicates=2, seed=0),
        workers=workers,
    )


def _cli(*argvs) -> None:
    import io

    from pav import cli

    text = ""
    for argv in argvs:
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        try:
            cli.main(argv)
        finally:
            text = sys.stdout.getvalue()
            sys.stdin, sys.stdout = sys.__stdin__, sys.__stdout__


FIRST_CALLS = {
    "mc-coupling": lambda: (_experiment("thm321"), _experiment("thm231", workers=2)),
    "mc-moments": lambda: (_experiment("moments", workers=2), _experiment("height"),
                           petrov.petrov_frequency(8, 1, 0)),
    "exact-formulas": lambda: (trees.expected_hat_xi(8, 2), experiments.exact_moment_oracle(4)),
    "cli-roundtrip": lambda: _cli(
        ["sample", "--n", "4", "--count", "2", "--as", "231"],
        ["map", "--from", "231", "--to", "dyck"],
        ["map", "--from", "dyck", "--to", "321"],
        ["check", "--pattern", "321"],
        ["map", "--from", "321", "--to", "dyck"],
        ["experiment", "--theorem", "thm231", "--n-grid", "8", "--replicates", "2",
         "--threads", "2"],
    ),
}

if __name__ == "__main__":
    FIRST_CALLS[sys.argv[1]]()
