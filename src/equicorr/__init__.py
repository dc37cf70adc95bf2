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
"""

from .battery import run_battery, run_structural
from .bundles import (
    EquivariantBundle,
    MackeySection,
    Section,
    act_on_mackey,
    act_on_section,
    mackey_to_section,
    representation_bundle,
    section_to_mackey,
    sign_bundle,
    trivial_bundle,
    validate_bundle,
    validate_mackey,
)
from .errors import (
    DegenerateMeasureError,
    DomainError,
    EquicorrError,
    PreconditionError,
    StructuralError,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    Orbit,
    cyclic_group,
    dihedral_group,
    direct_product,
    fundamental_domain,
    generating_set,
    group_from_tables,
    orbit,
    orbits,
    pair_stabilizer,
    stabilizer,
    validate_action,
    validate_group,
)
from .measures import (
    DeltaFunction,
    GroupMeasureFamily,
    OrbitMeasureFamily,
    PsiFunction,
    StabilizerMeasureFamily,
    construct_normalized_families,
    counting_family,
    counting_stabilizer_family,
    dirac_delta,
    fubini_pointwise_residual,
    psi_from_class_function,
    psi_indicator_identity,
    solve_orbit_family,
    solve_orbit_measure,
    validate_delta,
    validate_families,
    validate_psi,
)
from .reporting import Check, ValidationReport, check_from_residual
from .rng import SplitMix64
from .sampling import (
    random_sections,
    random_valid_filter,
    random_valid_kernel,
    random_violating_kernel,
)
from .scenarios import Scenario, build_scenario, degeneracy_demo, derive_theta, line_grid_ladder
from .transforms import (
    Kernel,
    ThetaMap,
    filter_operator,
    integral_transform,
    kernel_operator,
    lift_kernel_to_filter,
    operator_equivariance_residual,
    project_filter_to_kernel,
    validate_kernel,
    validate_theta,
)
from .xcorr import (
    CompressedFilter,
    Filter,
    compress_filter,
    correlate_sections,
    cross_correlate,
    expand_filter,
    validate_filter,
)

__version__ = "0.1.0"
