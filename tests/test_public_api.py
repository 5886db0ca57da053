"""The names ``padiclab`` exports, pinned module by module."""

from __future__ import annotations

import importlib

import padiclab

# Every name in ``padiclab.__all__``, by the module that defines it: 70 in
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
        "check_surgery_pointwise", "checks_to_dict", "diagnose_neu",
    ),
}


def test_public_names_are_pinned():
    pinned = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(pinned) == len(set(pinned)) == 70
    assert len(padiclab.__all__) == len(set(padiclab.__all__))
    assert sorted(padiclab.__all__) == sorted(pinned)


def test_public_names_come_from_their_modules():
    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"padiclab.{module_name}")
        for name in names:
            assert getattr(padiclab, name) is getattr(module, name), name
