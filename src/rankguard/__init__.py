"""rankguard: two-sample rank testing that stays valid under arbitrary
missing data.

The core idea: with the sample sizes known but some values unobserved, the
two-sample rank statistic is confined to a computable interval, and so is
its p-value. Declare significance only when the entire interval rejects;
then no completion of the missing values, however adversarial, can overturn
the verdict.
"""

from .bounds import (
    BoundaryCounts,
    StatBounds,
    VarBounds,
    p_value_bounds,
    stat_bounds_general,
    variance_bounds,
)
from .distributions import Distribution, make_distribution
from .exceptions import DegenerateDataError, DomainError
from .gaussian import normal_cdf, normal_quantile
from .multiplicity import holm_adjust
from .power import PairProbs, PowerInputs, PowerLimit, asymptotic_class, mcar_power, pair_probs
from .ranks import (
    Sample,
    Support,
    null_variance,
    tie_corrected_variance,
    tie_profile,
    wmw_statistic,
)
from .robust import (
    Decision,
    FeasibilityReport,
    TestReport,
    feasibility,
    robust_test_distinct,
    robust_test_general,
)
from .simulate import (
    MethodOutcome,
    MissingnessSpec,
    ScenarioResult,
    ScenarioSpec,
    apply_mcar,
    apply_mnar_positive,
    run_scenario,
    sweep,
    write_results_csv,
)
from .wmw import Alternative, impute_hot_deck, impute_mean, wmw_test

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "BoundaryCounts",
    "Decision",
    "DegenerateDataError",
    "Distribution",
    "DomainError",
    "FeasibilityReport",
    "MethodOutcome",
    "MissingnessSpec",
    "PairProbs",
    "PowerInputs",
    "PowerLimit",
    "Sample",
    "ScenarioResult",
    "ScenarioSpec",
    "StatBounds",
    "Support",
    "TestReport",
    "VarBounds",
    "apply_mcar",
    "apply_mnar_positive",
    "asymptotic_class",
    "feasibility",
    "holm_adjust",
    "impute_hot_deck",
    "impute_mean",
    "make_distribution",
    "mcar_power",
    "normal_cdf",
    "normal_quantile",
    "null_variance",
    "p_value_bounds",
    "pair_probs",
    "robust_test_distinct",
    "robust_test_general",
    "run_scenario",
    "stat_bounds_general",
    "sweep",
    "tie_corrected_variance",
    "tie_profile",
    "variance_bounds",
    "wmw_statistic",
    "wmw_test",
    "write_results_csv",
]
