"""The names ``padiclab`` exports, pinned module by module."""

from __future__ import annotations

import ast
import importlib
import sys
import types
from pathlib import Path

import padiclab
import padiclab.cli

# Every name in ``padiclab.__all__``, by the module that defines it: 61 in
# all.  A new or dropped export shows up as a diff against this table.
PUBLIC_NAMES = {
    "core": (
        "ApproxPair", "PAdicNumber", "Valuation", "digits_to_int", "from_digits",
        "from_rational", "from_value", "ilog", "int_to_digits", "is_prime",
        "linear_form_valuation", "load_digit_file", "make_pair", "pval", "residue",
        "save_digit_file",
    ),
    "constructors": (
        "LacunarySpec", "RatioWitness", "SchneiderState", "SurgerySpec",
        "build_digit_rule", "build_factorial", "build_lacunary",
        "build_ratio_witness", "lacunary_pow_exponents", "schneider_exponent_driven",
        "schneider_initial", "schneider_ledger_csv", "schneider_sandwich_report",
        "schneider_step", "select_block_exponent", "surgery_transform",
        "thue_morse_bit",
    ),
    "lattice": (
        "BestApproxChain", "NORMS", "NORM_MULT", "NORM_SUP", "UniformWitness",
        "chain", "chain_from_entries", "load_chain_entries", "oracle_chain",
        "save_chain_csv", "uniform_minimum", "uniform_minimum_enum",
    ),
    "exponents": (
        "ExponentReport", "build_report", "cross_check_uniform", "estimate",
        "load_report", "report_to_dict", "save_report",
    ),
    "verify": (
        "GOLDEN_UNIFORM_BOUND", "CheckResult", "check_chain_bounds", "check_endlich",
        "check_korollar", "check_lacunary_sandwich", "check_padicle",
        "check_surgery_pointwise", "checks_to_dict",
    ),
}


def test_public_names_are_pinned():
    pinned = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(pinned) == len(set(pinned)) == 61
    assert len(padiclab.__all__) == len(set(padiclab.__all__))
    assert sorted(padiclab.__all__) == sorted(pinned)


def test_public_names_come_from_their_modules():
    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"padiclab.{module_name}")
        for name in names:
            assert getattr(padiclab, name) is getattr(module, name), name


BENCH = Path(__file__).resolve().parents[1] / "padicbench"


def _lib_module(node: ast.AST) -> str | None:
    """``X`` for the expression ``lib.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lib"
    ):
        return node.attr
    return None


def _workload_names() -> set[tuple[str, str]]:
    """(module, name) of every ``lib.<module>.<name>`` in the workloads,
    also through aliases such as ``lat, ver = lib.lattice, lib.verify``."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and _lib_module(value):
                        aliases[name.id] = _lib_module(value)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = _lib_module(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            if module is not None:
                names.add((module, node.attr))
    return names


def _benchmark_tracer(monkeypatch) -> types.ModuleType:
    """The benchmark's tracer module, read from its file (never written)."""
    tracer = types.ModuleType("padicbench_tracer")
    monkeypatch.setitem(sys.modules, tracer.__name__, tracer)
    source = (BENCH / "tracer.py").read_text(encoding="utf-8")
    exec(compile(source, str(BENCH / "tracer.py"), "exec"), vars(tracer))
    return tracer


def test_names_the_benchmark_reaches_resolve(monkeypatch):
    """The benchmark's tracer wraps its targets by name, and its workloads
    call padiclab through the module objects, so a deleted or renamed name
    would break only a benchmark run.  The benchmark's files are only read."""
    tracer = _benchmark_tracer(monkeypatch)
    reached = {(target.module, target.func) for target in tracer.padiclab_targets()}
    reached |= _workload_names()
    missing = sorted(
        f"{module}.{name}"
        for module, name in reached
        if not hasattr(importlib.import_module(f"padiclab.{module}"), name)
    )
    assert missing == []


def test_traced_pipeline_records_every_counted_target(monkeypatch, tmp_path, capsys):
    """A traced construct -> approx -> estimate -> verify run, plus the oracle
    and pair independence: every target whose span carries counters (the
    fields and results its ``attrs`` hook reads) records one, and no hook
    raises.  A renamed field that only the traced benchmark reads fails here."""
    tracer_module = _benchmark_tracer(monkeypatch)
    targets = tracer_module.padiclab_targets()
    tracer = tracer_module.Tracer()
    files = {name: str(tmp_path / name) for name in ("xi.json", "sup.csv", "mult.csv")}
    report = str(tmp_path / "report.json")
    tracer.install(padiclab, targets)
    try:
        for argv in (
            ["construct", "rule", "--p", "2", "--rule", "random", "--precision", "64",
             "--seed", "1", "-o", files["xi.json"]],
            ["approx", "--xi", files["xi.json"], "--norm", "sup", "-o", files["sup.csv"]],
            ["approx", "--xi", files["xi.json"], "--norm", "mult", "-o", files["mult.csv"]],
            ["estimate", "--chain", files["mult.csv"], "--chain-sup", files["sup.csv"],
             "--p", "2", "--norm", "mult", "-o", report],
            ["verify", "--report", report, "--chain", files["sup.csv"], "--p", "2"],
        ):
            assert padiclab.cli.main(argv) == 0, argv
        xi = padiclab.load_digit_file(files["xi.json"])
        padiclab.lattice.oracle_chain(xi, "mult", 2000)
        padiclab.verify.check_padicle(padiclab.lattice.chain(xi, "sup").entries, 2)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counted = {target.name for target in targets if target.attrs is not None}
    recorded = {
        name
        for name in counted
        for span in tracer.spans
        if span.name.startswith(name) and span.attrs
    }
    assert recorded == counted


# ---------------------------------------------------------------------------
# dead code
# ---------------------------------------------------------------------------


def _package_trees() -> dict[str, ast.Module]:
    source = Path(padiclab.__file__).parent
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(source.glob("*.py"))
    }


def _referenced_names(node: ast.AST) -> set[str]:
    """Names a node reads, bare or as an attribute."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_every_import_is_used():
    unused = []
    for module_name, tree in _package_trees().items():
        if module_name == "__init__":
            continue
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {
            child.id for child in ast.walk(tree) if isinstance(child, ast.Name)
        }
        unused += [f"{module_name}.{name}" for name in imported if name not in used]
    assert unused == []


def test_every_private_definition_is_reachable():
    """A module-level private function or class is referenced from public
    code, directly or through other reachable private definitions."""
    private = {}
    live_code: list[ast.AST] = []
    for module_name, tree in _package_trees().items():
        for node in tree.body:
            definition = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            if definition and node.name.startswith("_"):
                private[node.name] = (module_name, node)
            else:
                live_code.append(node)
    reached: set[str] = set()
    while live_code:
        names = _referenced_names(live_code.pop())
        for name in names & private.keys() - reached:
            reached.add(name)
            live_code.append(private[name][1])
    dead = sorted(f"{private[name][0]}.{name}" for name in private.keys() - reached)
    assert dead == []


def test_no_module_imports_a_private_name():
    """A module reads another module's data through public names only."""
    private = [
        f"{module_name}: from .{node.module} import {alias.name}"
        for module_name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
