"""Exact polar/bipolar duality for positive processes on finite event trees.

The package turns convex duality for nonnegative supermartingales into
finite, exactly-checkable computations: event trees carry the filtration,
every number is a rational, and every membership question (polar, bipolar,
hull, superhedge budget) is answered by a small exact linear program with
a substitution-checked certificate.
"""

from .errors import (
    PostconditionError,
    PreconditionError,
    ProcpolarError,
    RationalFormatError,
)
from .exact_lp import (
    LinearConstraint,
    LinearSystem,
    LpOutcome,
    LpProblem,
    LpStatus,
    feasible_interior_point,
    maximize,
    minimize,
    solve,
    verify_outcome,
)
from .market import (
    BudgetOutcome,
    ConsumptionDensity,
    ConsumptionProcess,
    EmmPolytope,
    Market,
    Strategy,
    SuperhedgeResult,
    WealthMap,
    budget_check,
    consumption_polytope,
    density_hull_membership,
    density_process,
    emm_polytope,
    is_admissible,
    pure_investment_polytope,
    superhedge_value,
    verify_structure,
    wealth_bipolar_contains,
    wealth_map,
    wealth_process,
    wealth_values,
    xc_feasibility,
    xc_measure_membership,
    xc_polar_membership,
    y_enlargement_membership,
)
from .processes import (
    AdaptedProcess,
    NonIncreasingProcess,
    ProcessSet,
    fork_splice,
    has_absorbed_zeros,
    increment,
    is_martingale,
    is_supermartingale,
    is_unit_supermartingale,
    random_hull_element,
    replay_trace,
    solid_multiply,
)
from .process_polar import (
    bipolar_contains_incremental,
    bipolar_contains_lp,
    envelope_process,
    increment_conditional_polar,
    increment_set,
    polar_constraints,
    polar_contains,
    sample_polar_elements,
    verify_process_bipolar,
)
from .rational import format_rational, frac, parse_rational
from .rv_polar import (
    RvSet,
    conditional_bipolar_contains,
    conditional_polar_constraints,
    hull_contains,
    pairwise_max_closure,
    partition_mix,
    product_decompose,
)
from .tree import (
    EventTree,
    Partition,
    RandomVariable,
    SampleSpace,
    cond_exp_partition,
    level_partition,
    level_space,
    node_measure,
    terminal_space,
    validate_tree,
)

__version__ = "0.1.0"
