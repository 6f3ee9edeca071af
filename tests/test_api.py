"""The public namespace: every name in pav.__all__ resolves, once, and
every pav name the benchmark scripts use still exists.  The integer rule
lives in one module, the experiment harness draws each replicate's path
in one function, every error class is raised somewhere, no inverse
bijection re-runs a forward map, and each pattern class has one
membership rule."""

import ast
import importlib
from pathlib import Path

import pav

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
SRC = Path(pav.__file__).resolve().parent


def test_all_names_resolve_once():
    assert len(pav.__all__) == len(set(pav.__all__))
    missing = [name for name in pav.__all__ if not hasattr(pav, name)]
    assert missing == []


def benchmark_pav_names() -> set:
    """(file, dotted name) for each pav name that benchmark/*.py imports,
    or reads as attr off a name it bound by importing from pav.  Names the
    file also assigns or takes as arguments are skipped: they may shadow
    the import.  The files are parsed, never imported."""
    found = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}  # local name -> the dotted pav name it holds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "pav":
                        found.add((path.name, alias.name))
                        # import pav.x binds pav; import pav.x as y binds y
                        bound[alias.asname or "pav"] = alias.name if alias.asname else "pav"
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] == "pav":
                    for alias in node.names:
                        dotted = f"{node.module}.{alias.name}"
                        found.add((path.name, dotted))
                        bound[alias.asname or alias.name] = dotted
        rebound = {n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        rebound |= {a.arg for a in ast.walk(tree) if isinstance(a, ast.arg)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound and node.value.id not in rebound):
                found.add((path.name, f"{bound[node.value.id]}.{node.attr}"))
    return found


def resolves(dotted: str) -> bool:
    """Whether pav.a.b... is an importable module or an attribute chain."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_benchmark_names_resolve():
    names = benchmark_pav_names()
    dotted = {name for _, name in names}
    # the walk sees both import forms and module.attr reads
    assert {"pav.scaled.sup_distance", "pav.dyck.scaled_path",
            "pav.experiments.run_experiment"} <= dotted
    missing = sorted(item for item in names if not resolves(item[1]))
    assert missing == []


def integer_rule_sites() -> set:
    """(file, line) of each use of operator.index, and of each comparison
    of a .kind attribute (a dtype's kind) with a string of the integer
    kinds "i" and "u", in the pav sources.  The files are parsed, never
    imported."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                hit = any(alias.name == "index" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                hit = (node.attr == "index" and isinstance(node.value, ast.Name)
                       and node.value.id == "operator")
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                hit = (any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides)
                       and any(isinstance(s, ast.Constant) and s.value in ("iu", "ui")
                               for s in sides))
            else:
                continue
            if hit:
                found.add((path.name, node.lineno))
    return found


def test_integer_rule_lives_in_errors():
    sites = integer_rule_sites()
    # the walk sees both halves of the rule in errors.py, and nothing else
    assert len(sites) >= 2
    assert sorted(site for site in sites if site[0] != "errors.py") == []


def calls(path: Path) -> list:
    """(enclosing top-level function or None, called name) of each call,
    by bare name or as an attribute, in one source file.  The file is
    parsed, never imported."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                found.append((owner, getattr(node.func, "id", None)
                              or getattr(node.func, "attr", None)))
    return found


def test_replicate_path_drawn_in_one_place():
    owners = [owner for owner, name in calls(SRC / "experiments.py") if name == "sample_uniform"]
    # the walk sees the harness's own draw; every theorem takes the drawn path
    assert owners == ["_replicate"]


def error_classes_and_uses() -> tuple[set, set]:
    """The classes of errors.py that no class there derives from, and the
    names the pav sources raise or pass as a call argument (an entry
    point's error class, as in integer(i, "i", IndexOutOfRange)).  The
    files are parsed, never imported."""
    body = ast.parse((SRC / "errors.py").read_text()).body
    classes = {node.name: node for node in body if isinstance(node, ast.ClassDef)}
    bases = {base.id for node in classes.values() for base in node.bases
             if isinstance(base, ast.Name)}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(getattr(exc, "id", None))
            elif isinstance(node, ast.Call):
                args = [*node.args, *(keyword.value for keyword in node.keywords)]
                used.update(arg.id for arg in args if isinstance(arg, ast.Name))
    return set(classes) - bases, used


def test_every_error_class_is_raised():
    leaves, used = error_classes_and_uses()
    # the walk sees the leaf classes, and both kinds of use
    assert {"BadStep", "IndexOutOfRange", "BadConfig"} <= leaves
    assert {"Not321Avoiding", "IndexOutOfRange"} <= used
    assert sorted(leaves - used) == []


def test_inverses_certify_without_recomputing():
    for module in ("bij231.py", "bij321.py"):
        called = {name for owner, name in calls(SRC / module) if owner == "inverse"}
        # the walk sees the rebuild of the path
        assert "from_runs" in called
        assert sorted(called & {"forward", "excursions", "runs"}) == []


def test_one_membership_rule_per_pattern_class():
    assert ("inverse", "avoids_321") in calls(SRC / "bij321.py")
    assert ("avoids_231", "inverse") in calls(SRC / "perms.py")
    body = ast.parse((SRC / "perms.py").read_text()).body
    rules = [top for top in body if isinstance(top, ast.FunctionDef)
             and top.name in ("avoids_321", "avoids_231")]
    assert len(rules) == 2
    # neither rule scans the values itself
    loops = [(rule.name, type(node).__name__) for rule in rules for node in ast.walk(rule)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == []
