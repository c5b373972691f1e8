"""Bilinear maximal operators and weighted inequalities on finite
filtered measure spaces: weight characteristics, principal-set sparse
bounds, Carleson embedding, and end-to-end numerical verification."""

from .carleson import (
    CarlesonCheck,
    CarlesonEntry,
    CarlesonFamily,
    EmbeddingReport,
    build_level_sets,
    certify_carleson_constant,
    check_carleson_condition,
    proof_coefficients,
    verify_embedding,
)
from .operators import (
    bilinear_maximal,
    lp_norm,
    maximal,
    tailed_bilinear_maximal,
    tailed_maximal,
    weighted_maximal,
)
from .principal import (
    DominationReport,
    PrincipalForest,
    PrincipalSet,
    PropertyReport,
    build_principal_forest,
    forest_cover,
    occupied_shells,
    shell_index,
    sparse_bound,
    sparse_domination_report,
    verify_properties,
)
from .space import (
    Exponents,
    FilteredSpace,
    ValidationError,
    ValidationReport,
    Violation,
    as_fn,
    cond_exp,
    integrate,
    level_products,
    space_from_dict,
    space_to_dict,
    validate,
    weighted_cond_exp,
)
from .stopping import (
    EnumerationBudgetError,
    StoppingTime,
    adaptedness_violation,
    count_stopping_times,
    enumerate_stopping_times,
    enumerate_tail_masks,
    enumeration_budget,
    finest_mask,
    first_hit,
    heuristic_sup_over_tau,
    is_adapted,
    mask_points,
    stopping_time_from_tail,
)
from .verify import (
    CSV_HEADER,
    SUITES,
    CheckResult,
    Instance,
    check_carleson,
    check_properties,
    check_sparse,
    check_thm11_converse,
    check_thm11_forward,
    check_thm12,
    check_thm14,
    check_thm15,
    default_forest,
    dump_instance,
    evaluation_pairs,
    gen_instance,
    gen_space,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    norm_ratio,
    rows_to_csv,
    rows_to_json,
    run_ensemble,
    run_instance_suite,
)
from .weights import (
    ALL_CONSTANTS,
    WeightConstant,
    a_p_constant,
    b_p_constant,
    compute_constant,
    rh_constant,
    s_p_constant,
    sigma_from_omega,
    w_infty_constant,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
