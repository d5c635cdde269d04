"""Dualization of monotone Boolean functions on lattices given by formal
contexts: minimal-hypothesis enumeration, the frequency-based duality test
on distributive lattices, and the constructive reductions between them.

A public name is imported from its layer on first access (PEP 562), so
``import lattice_dual`` loads no layer and a caller pays only for the
layers it uses.
"""

import importlib

# Each public name, in the order of __all__, and the layer that defines it.
_HOME = {
    "Concept": "context",
    "Cnf": "reductions",
    "DualityInstance": "duality",
    "DualityVerdict": "duality",
    "ExplicitLattice": "reductions",
    "FormalContext": "context",
    "GuardExceeded": "util",
    "Implication": "implications",
    "Poset": "poset",
    "TrainingContext": "hypotheses",
    "assignment_from_hypothesis": "reductions",
    "brute_force_dual": "duality",
    "check_star": "duality",
    "classify": "hypotheses",
    "contranominal_scale": "context",
    "contraordinal_context": "implications",
    "dci_to_mibr": "implications",
    "decide_amh": "hypotheses",
    "decompose": "duality",
    "distributive_min_base": "implications",
    "dualize_brute": "duality",
    "easy_test": "duality",
    "enumerate_hypotheses": "hypotheses",
    "find_new_min_h": "hypotheses",
    "freq": "poset",
    "freq_complement": "poset",
    "hypothesis_from_assignment": "reductions",
    "imp_closure": "implications",
    "irreducibles": "reductions",
    "literal_attributes": "reductions",
    "is_antichain": "poset",
    "is_base": "implications",
    "is_hypothesis": "hypotheses",
    "is_valid": "implications",
    "maximal_members": "poset",
    "minimal_hypotheses": "hypotheses",
    "minimal_members": "poset",
    "minvals_to_training": "reductions",
    "parse_cxt": "context",
    "parse_dimacs": "reductions",
    "poset_from_json": "poset",
    "poset_from_pairs": "poset",
    "poset_to_json": "poset",
    "product_context": "reductions",
    "reduce_context": "context",
    "sat_to_amh": "reductions",
    "test_duality": "duality",
    "test_duality_stats": "duality",
    "training_from_json": "hypotheses",
    "training_to_json": "hypotheses",
    "training_to_monotone": "reductions",
    "write_cxt": "context",
    "write_dimacs": "reductions",
}

_LAYERS = frozenset(("cli", *_HOME.values()))

__all__ = list(_HOME)


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
