"""Group cross-correlation with faintly constrained filters on explicit
finite group actions.

The package models filters whose only symmetry requirement couples
conjugation on the group side with the bundle action on the fiber side.
That single constraint makes cross-correlation commute with the group
action on sections, and it is exactly what survives of ordinary
equivariance when the acting group is larger than the base: the familiar
bi-equivariant theory embeds as a degenerate special case.

Filters correspond to kernels on base-point pairs: integration over
stabilizers projects a filter down to a kernel, and a kernel lifts back
through any compatible orbit-map section and normalized stabilizer
density.  Measure families enter through conjugation-compatibility and a
disintegration identity, all checked numerically, never assumed.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a program that never
builds a scenario, say, never imports or compiles the builders.
"""

import importlib

# the exported names, by the module that defines them
_EXPORTS = {
    "battery": ("run_battery", "run_structural"),
    "bundles": (
        "EquivariantBundle", "MackeySection", "Section", "representation_bundle", "section_to_mackey", "sign_bundle",
        "trivial_bundle", "validate_bundle",
    ),
    "errors": ("DegenerateMeasureError", "DomainError", "EquicorrError", "StructuralError"),
    "groups": (
        "FiniteGroup", "GroupAction", "cyclic_group", "dihedral_group", "direct_product", "orbits", "stabilizer",
        "validate_action", "validate_group",
    ),
    "measures": (
        "DeltaFunction", "GroupMeasureFamily", "OrbitMeasureFamily", "PsiFunction", "StabilizerMeasureFamily",
        "construct_normalized_families", "counting_family", "counting_stabilizer_family", "dirac_delta",
        "fubini_pointwise_residual", "psi_indicator_identity", "solve_orbit_family",
        "validate_delta", "validate_families", "validate_psi",
    ),
    "reporting": ("Check", "ValidationReport", "check_from_residual"),
    "rng": ("SplitMix64",),
    "sampling": ("random_sections", "random_valid_filter", "random_valid_kernel", "random_violating_kernel"),
    "scenarios": ("build_scenario", "degeneracy_demo", "line_grid_ladder"),
    "serialize": ("Scenario",),
    "transforms": (
        "Kernel", "ThetaMap", "filter_operator", "integral_transform", "kernel_operator", "lift_kernel_to_filter",
        "operator_equivariance_residual", "project_filter_to_kernel", "validate_kernel", "validate_theta",
    ),
    "xcorr": ("Filter", "correlate_sections", "cross_correlate", "validate_filter"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
