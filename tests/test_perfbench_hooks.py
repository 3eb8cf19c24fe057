"""The names and call shapes the benchmark in perfbench/ relies on.

perfbench/spans.py patches package functions by (module, attribute), and
perfbench/workloads.py calls the solvers with keyword arguments.  A change
to the package that drops or renames one of them breaks `--trace 1` or the
benchmark itself; these tests catch that without running a workload.
"""

import ast
import importlib.util
import inspect
import pathlib
import sys

import pytest

import cutplane
from cutplane import convopt, core, sfm

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")


@pytest.mark.parametrize("owner, attr, name", spans.SPANS,
                         ids=[f"{o.__name__}.{a}" for o, a, _ in spans.SPANS])
def test_span_attribute_resolves(owner, attr, name):
    assert callable(getattr(owner, attr, None)), name


def test_tracer_installs_and_uninstalls():
    before = [getattr(owner, attr) for owner, attr, _ in spans.SPANS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        after = [getattr(owner, attr) for owner, attr, _ in spans.SPANS]
        assert all(a is not b for a, b in zip(after, before))
    finally:
        tracer.uninstall()
    assert [getattr(o, a) for o, a, _ in spans.SPANS] == before


@pytest.mark.parametrize("module", [core, convopt, sfm],
                         ids=lambda m: m.__name__)
def test_run_feasibility_is_a_module_global(module):
    # the separation counter replaces it in each module that calls it
    assert module.run_feasibility is core.run_feasibility


def _workload_calls():
    """(callee, call node) for every call in workloads.py whose callee is
    a package object, looked up through the names workloads.py imports
    from cutplane.  The sfm solvers are called through a local `solver`,
    which stands for each of them."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("cutplane"):
            source = sys.modules.get(node.module) or cutplane
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(source, alias.name)
    solvers = (sfm.sfm_weakly, sfm.sfm_strongly)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if owner is not None:
                return getattr(owner, expr.attr, MISSING)
        return None

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "solver":
            calls += [(s, node) for s in solvers]
            continue
        callee = resolve(node.func)
        if callee is not None:
            calls.append((callee, node))
    return calls


MISSING = object()
WORKLOAD_CALLS = _workload_calls()


def test_workload_calls_found():
    called = {getattr(fn, "__qualname__", "") for fn, _ in WORKLOAD_CALLS}
    for want in ("sfm_weakly", "sfm_strongly", "matroid_intersection",
                 "solve_dual", "recover_primal", "run_feasibility",
                 "CpmParams.practical"):
        assert want in called


@pytest.mark.parametrize(
    "callee, call", WORKLOAD_CALLS,
    ids=[f"{getattr(fn, '__qualname__', fn)}:{call.lineno}"
         for fn, call in WORKLOAD_CALLS])
def test_workload_call_binds(callee, call):
    assert callee is not MISSING, "the package lacks the callee"
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords):
        pytest.skip("call forwards *args or **kwargs")
    sig = inspect.signature(callee)
    sig.bind(*[None] * len(call.args), **{kw.arg: None for kw in call.keywords})


def test_tracer_sees_the_leverage_kernel():
    # the solver must reach the kernel and the factorization through the
    # patched module globals, or these spans read 0 without failing
    from cutplane.oracles import box_oracle
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = core.run_feasibility(box_oracle([0.3, -0.2], 0.05), 2)
    finally:
        tracer.uninstall()
    assert isinstance(res, core.Found)
    assert tracer.calls["core.run_feasibility"] == 1
    assert tracer.calls["linalg.leverage_exact"] > 0
    assert tracer.calls["linalg.cholesky_jittered"] > 0
