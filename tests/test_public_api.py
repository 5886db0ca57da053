"""The names ``padiclab`` exports, pinned module by module."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import padiclab

# Every name in ``padiclab.__all__``, by the module that defines it: 69 in
# all.  A new or dropped export shows up as a diff against this table.
PUBLIC_NAMES = {
    "core": (
        "ApproxPair", "PAdicNumber", "Valuation", "digits_to_int", "from_digits",
        "from_rational", "from_value", "ilog", "int_to_digits", "is_prime",
        "linear_form_valuation", "load_digit_file", "make_pair", "pval", "residue",
        "save_digit_file",
    ),
    "constructors": (
        "LacunarySpec", "RatioWitness", "SchneiderState", "SurgeryResult",
        "SurgerySpec", "build_digit_rule", "build_factorial", "build_lacunary",
        "build_ratio_witness", "lacunary_pow_exponents", "schneider_exponent_driven",
        "schneider_initial", "schneider_ledger_csv", "schneider_sandwich_report",
        "schneider_step", "select_block_exponent", "surgery_pairs",
        "surgery_transform", "thue_morse_bit",
    ),
    "lattice": (
        "BestApproxChain", "NORMS", "NORM_MULT", "NORM_SUP", "UniformWitness",
        "best_mult_at_level", "best_sup_at_level", "chain", "chain_from_entries",
        "load_chain_entries", "oracle_chain", "save_chain_csv", "uniform_minimum",
        "uniform_minimum_enum",
    ),
    "exponents": (
        "ExponentReport", "PointwiseExponent", "build_report", "burn_in_index",
        "cross_check_uniform", "estimate_classical", "estimate_multiplicative",
        "load_report", "pointwise", "report_to_dict", "save_report",
    ),
    "verify": (
        "GOLDEN_UNIFORM_BOUND", "CheckResult", "check_chain_bounds", "check_endlich",
        "check_korollar", "check_lacunary_sandwich", "check_padicle",
        "check_surgery_pointwise", "checks_to_dict",
    ),
}


def test_public_names_are_pinned():
    pinned = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(pinned) == len(set(pinned)) == 69
    assert len(padiclab.__all__) == len(set(padiclab.__all__))
    assert sorted(padiclab.__all__) == sorted(pinned)


def test_public_names_come_from_their_modules():
    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"padiclab.{module_name}")
        for name in names:
            assert getattr(padiclab, name) is getattr(module, name), name


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
