"""Public surface of the package: every exported name resolves, every public
function or class a module defines is exported, every exported function of
a model layer is used by another module, no import goes unused, every name
the benchmark traces resolves, every work counter it keeps runs on the
result of a real call, and every Python file of the repository parses under
Python 3.10's grammar.

A module with no ``__all__`` (``errors``, ``__main__``) is checked for unused
imports only."""

import ast
import importlib
import importlib.resources
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import infospread
from infospread import epi_sir, gossip, netdiff, rdwave

PACKAGE = Path(inspect.getfile(infospread)).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"

LAYERS = ("netdiff", "gossip", "epi_sir", "rdwave", "fundstats")

# Exported layer functions that no other module under src/ uses, each with
# why it stays.  A function that gains a caller leaves this table.
BENCHMARK = "perfbench looks it up by name"
WIRED_LATER = "to be reported in a run's manifest results (ROADMAP item 5)"
KEPT = {
    "netdiff.centrality_report": BENCHMARK,
    "netdiff.hearing_matrix": BENCHMARK,
    "netdiff.write_network_csv": BENCHMARK,
    "epi_sir.basic_reproduction_number": WIRED_LATER,
    "epi_sir.equilibria": WIRED_LATER,
    "epi_sir.final_size": WIRED_LATER,
    "rdwave.estimate_wave_speed": WIRED_LATER,
    "netdiff.validate_network": "the library constructor of a network",
}


def module_name(path: Path) -> str:
    return "infospread" if path.stem == "__init__" else f"infospread.{path.stem}"


def declared_all(tree: ast.Module):
    """The literal ``__all__`` list of a module, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


EXPORTING = [p for p in SOURCES if declared_all(parsed(p)) is not None]


def test_every_source_file_is_checked():
    names = {p.stem for p in SOURCES}
    assert {"cli", "epi_sir", "fundstats", "gossip", "netdiff", "rdwave"} <= names
    assert len(EXPORTING) >= 7


def test_every_python_file_parses_as_python_3_10():
    # pyproject.toml allows Python 3.10: ast rejects what its grammar lacks
    # (except*, a starred subscript, ...) on any newer interpreter too.
    paths = [path for folder in ("src", "tests", "perfbench", "scripts")
             for path in sorted((REPO / folder).rglob("*.py"))]
    assert TRACING in paths and Path(__file__).resolve() in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.stem)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(module_name(path))
    exported = declared_all(parsed(path))
    assert len(exported) == len(set(exported)), exported
    for name in exported:
        # The package exports its submodules, which load on first import.
        found = hasattr(module, name) or (
            path.stem == "__init__" and importlib.util.find_spec(f"infospread.{name}"))
        assert found, f"{module.__name__}.__all__ names missing {name!r}"


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.stem)
def test_every_public_definition_is_exported(path):
    tree = parsed(path)
    exported = set(declared_all(tree))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    missing = [name for name in defined if name not in exported]
    assert not missing, f"{path.name} defines public names outside __all__: {missing}"


def imported_names(tree: ast.Module):
    """(bound name, line) of every import in a module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> set:
    """Every name a module reads, plus the names its ``__all__`` re-exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(declared_all(tree) or ())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = parsed(path)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def layer_names_used_elsewhere() -> set:
    """``"layer.name"`` for every name of a model layer that another module
    under src/ reads: through ``from .layer import name``, or as
    ``layer.name`` after ``from . import layer``."""
    used = set()
    for path in SOURCES:
        tree = parsed(path)
        layers = {}  # bound name -> layer, from ``from . import layer``
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None and alias.name in LAYERS:
                    layers[alias.asname or alias.name] = alias.name
                elif node.module in LAYERS:
                    used.add(f"{node.module}.{alias.name}")
        used |= {f"{layers[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in layers}
    return used


def test_every_exported_layer_function_is_used_by_another_module():
    used = layer_names_used_elsewhere()
    unused = set()
    for layer in LAYERS:
        tree = parsed(PACKAGE / f"{layer}.py")
        exported = set(declared_all(tree))
        unused |= {f"{layer}.{node.name}" for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name in exported
                   and f"{layer}.{node.name}" not in used}
    assert not unused - set(KEPT), (
        f"exported functions no other module uses: {sorted(unused - set(KEPT))}")
    assert not set(KEPT) - unused, (
        f"KEPT names that are used or gone: {sorted(set(KEPT) - unused)}")


def benchmark_targets(monkeypatch):
    """``perfbench/tracing.py``'s TARGETS, loaded without writing bytecode
    or leaving the module imported."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    targets = benchmark_targets(monkeypatch)
    assert targets
    missing = [f"{layer}.{attr}" for layer, attr, _ in targets
               if not callable(getattr(importlib.import_module(f"infospread.{layer}"),
                                       attr, None))]
    assert not missing, f"perfbench/tracing.py TARGETS names missing: {missing}"


def counted_calls(tmp: Path) -> dict:
    """``(args, kwargs)`` of a small real call of each function whose span
    the benchmark counts, keyed ``"layer.name"`` as TARGETS names it."""
    path = tmp / "net.csv"
    path.write_text("0.0,0.5,0.2\n0.3,0.0,0.4\n0.6,0.1,0.0\n")
    net = netdiff.read_network_csv(path)
    field = rdwave.ReactionDiffusionConfig(d_coeff=1.0, r_rate=1.0, k_cap=1.0, dx=0.1,
                                           dt=0.002, length=4.0, horizon=1.0)
    step = np.where(field.x < 1.0, 1.0, 0.0)
    rates = epi_sir.SirParams(beta=0.1, alpha=0.2, mu=0.05, n_total=1.0)
    return {
        "netdiff.read_network_csv": ((path,), {}),
        "netdiff.hearing_matrix": ((net, 3), {}),
        "netdiff.leading_eigenpair": ((net,), {}),
        "gossip.simulate_population": (
            (net, gossip.ExchangeParams(0.5, 0.1, 0.2, 0.8), [0]), {"rounds": 5, "seed": 1}),
        "epi_sir.integrate": (
            (epi_sir.PRESETS["fig6b"], epi_sir.SirState(s=0.99, i=0.01, r=0.0)),
            {"h": 0.1, "horizon": 1.0}),
        "rdwave.rd_integrate": ((field, rdwave.FieldState(u=step, t=0.0), 100), {}),
        "rdwave.fast_slow_integrate": ((rdwave.FastSlowConfig(
            sir=rates, epsilon=0.1, h=0.05, horizon=1.0, layer_time=0.5, s0=0.8, i0=0.2),),
            {}),
        "fundstats.ingest_csv": (
            (importlib.resources.files("infospread.data") / "funds_sample.csv",), {}),
    }


def test_every_benchmark_counter_runs_on_a_real_call(monkeypatch, tmp_path):
    # A counter reads its call's arguments and result, as perfbench's Tracer
    # hands them over; one that reads a field the layer dropped fails here.
    targets = benchmark_targets(monkeypatch)
    counted = {f"{layer}.{attr}": counter for layer, attr, counter in targets if counter}
    calls = counted_calls(tmp_path)
    assert counted.keys() == calls.keys(), (
        f"counters without a call: {sorted(counted.keys() - calls.keys())}, "
        f"calls without a counter: {sorted(calls.keys() - counted.keys())}")
    # The field counter imports perfbench's workloads module by its plain name.
    monkeypatch.syspath_prepend(str(TRACING.parent))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    try:
        for name, counter in counted.items():
            layer, attr = name.split(".")
            function = getattr(importlib.import_module(f"infospread.{layer}"), attr)
            args, kwargs = calls[name]
            arguments = inspect.signature(function).bind(*args, **kwargs).arguments
            counts = counter(arguments, function(*args, **kwargs))
            assert counts and all(math.isfinite(v) for v in counts.values()), (name, counts)
    finally:
        sys.modules.pop("workloads", None)
