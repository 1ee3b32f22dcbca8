"""The package namespace imports each submodule on first use. Every check
runs in a fresh interpreter, since this one has imported them all. The
last check holds the tests to the package's public names but for the
seams ``reference`` lists."""
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import raretype
import reference

# what ``from raretype import *`` binds, as when the package imported every
# submodule eagerly: the exported names plus the submodules themselves, less
# ``bell_number``, ``enumerate_partitions`` and ``augment``, which moved to
# the tests' ``reference`` file, ``as_integer_partition``, deleted
# since the numeric functions take integer partitions alone, and
# ``diff_metrics``, deleted since ``run_case`` computes the diffs where it
# builds its report
OLD_STAR_NAMES = sorted(
    """
    CaseOptions DUTCH_FIXTURE_METADATA ExperimentResult ExperimentSpec
    InfeasibleAssignmentError IntegerPartition LoglikSurface LrReport MhConfig MleFit PdParams
    PopulationVector ProfileDatabase SaddleLrEstimate SeatingPlan SetPartition SurfaceGrid
    SymmetryReport TrueLrEstimate crp_sample
    dutch_fixture eppf_log exact_true_lr fit_mle
    gem_stick_breaking load_profiles loglik_surface lr lr_empirical_bayes lr_frequentist
    lr_true_mh mle partitions phi_of pitman population_from_partition powerlaw_reference
    ranked_frequencies reduce_sample rng run_case run_experiment saddle_true_lr
    symmetry_diagnostic theta_alpha_of to_integer_partition workbench
    """.split()
)


def fresh(code: str, *argv: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.startswith('raretype.') or m == 'concurrent.futures')))"
)


def test_import_loads_no_submodule():
    assert fresh("import json, sys, raretype; " + LOADED) == []


def test_model_check_loads_neither_lr_nor_the_pool():
    # the model check: seat a sample, reduce it, fit, surface, symmetry
    code = f"""
import json, sys
import raretype as rt
plan = rt.crp_sample(300, rt.PdParams(0.5, 10.0), seed=1)
part = rt.to_integer_partition(plan.to_set_partition())
fit = rt.fit_mle(part)
rt.symmetry_diagnostic(rt.loglik_surface(part, fit, rt.SurfaceGrid(5, 5)))
{LOADED}
"""
    assert fresh(code) == ["raretype.mle", "raretype.partitions", "raretype.pitman", "raretype.rng"]


def test_run_case_leaves_the_pool_unloaded(tmp_path):
    table = tmp_path / "profiles.tsv"
    table.write_text("L1\tL2\n" + "".join(f"a{i % 7}\tb{i % 5}\n" for i in range(60)))
    pop = {"probs": [0.01] * 100, "pop_size": 10_000}
    code = f"""
import json, sys
import raretype as rt
pop = rt.PopulationVector.from_dict(json.loads(sys.argv[2]))
options = rt.CaseOptions(population=pop, matched_rank=3, mh=rt.MhConfig(2000, 500, 50, seed=1))
rt.run_case(rt.load_profiles(sys.argv[1]), options)
{LOADED}
"""
    loaded = fresh(code, str(table), json.dumps(pop))
    assert "raretype.workbench" in loaded and "concurrent.futures" not in loaded


def test_exports_are_the_submodules_objects():
    code = """
import importlib, json
import raretype
subs = ("lr", "mle", "partitions", "pitman", "rng", "workbench")
home = {}
for sub in map(importlib.import_module, ["raretype." + sub for sub in subs]):
    home.update(dict.fromkeys(getattr(sub, "__all__", ()), sub))
exports = [name for name in raretype.__all__ if name not in subs]
same = all(getattr(raretype, name) is getattr(home[name], name) for name in exports)
star = {}
exec("from raretype import *", star)
print(json.dumps({"same": same, "star": sorted(set(star) - {"__builtins__"}),
                  "dir": sorted(set(raretype.__all__) - set(dir(raretype)))}))
"""
    out = fresh(code)
    assert out["same"]
    assert out["star"] == OLD_STAR_NAMES
    assert out["dir"] == []


def test_rebinding_wins_and_unknown_names_raise():
    # perfbench's spans getattr a name, then setattr a wrapper in its place
    code = """
import json
import raretype
original = raretype.fit_mle
raretype.fit_mle = len
rebound = raretype.fit_mle is len
try:
    raretype.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"rebound": rebound, "original": original.__module__, "unknown": unknown}))
"""
    out = fresh(code)
    assert out["rebound"] and out["original"] == "raretype.mle"
    assert out["unknown"] == "module 'raretype' has no attribute 'no_such_name'"


# the private kernels that the planned rewrites of the exact pass and the
# block-size terms change; only ``reference`` may name them
KERNELS = {
    "_exact_pass", "_exact_states", "_EXACT_STATE_BUDGET", "_exact_fits", "_rank_groups",
    "_tilt", "_class_probs", "_count_dual",
    "_loglik_terms", "_loglik_value", "_loglik_derivs", "_block_value", "_block_derivs",
}


def private_src_names():
    """Each single-underscore name defined at module level in the package,
    with its module."""
    names = {}
    for path in Path(raretype.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if re.fullmatch(r"_[^_]\w*", name):
                    names.setdefault(name, set()).add(path.stem)
    return names


def private_uses(path, private):
    """The private names a test file imports from the package, reads as an
    attribute or names in a string (a patch target or code for a fresh
    interpreter), and those it patches, by setattr or mock.patch."""
    used, patched = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("raretype"):
            used |= {a.name for a in node.names} & private
        elif isinstance(node, ast.Attribute) and node.attr in private:
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= set(re.findall(r"\.(_\w+)", node.value)) & private
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("setattr", "object", "patch"):
            targets = {a.value for a in node.args[:2] if isinstance(a, ast.Constant)}
            names = {t.rsplit(".", 1)[-1] for t in targets if isinstance(t, str)}
            patched |= names & private
            used |= names & private
    return used, patched


def test_private_names_go_through_the_listed_seams():
    private = private_src_names()
    tests = Path(__file__).parent
    uses = {path.name: private_uses(path, set(private)) for path in tests.glob("*.py")}
    outside = {name: pair for name, pair in uses.items() if name != "reference.py"}
    assert {name: used & KERNELS for name, (used, _) in outside.items() if used & KERNELS} == {}
    assert {name: patched for name, (_, patched) in outside.items() if patched} == {}
    listed = re.findall(r"``(\w+)\.(_\w+)``", reference.__doc__)
    assert [(module, name) for module, name in listed if module not in private.get(name, ())] == []
    used = set().union(*(used for used, _ in uses.values()))
    assert sorted(used) == sorted(name for _, name in listed)
    print(f"{len(used)} private names used under tests/")
