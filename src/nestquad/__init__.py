"""Nested quadrature rules for generic weight functions.

The package generates Gauss rules from three-term recurrences, grows
Kronrod-style nested pairs and Patterson-style telescoping sequences by
penalized Gauss-Newton optimization, assembles Smolyak sparse grids from
the resulting level families, and persists everything as certified JSON
records.
"""

# Before the submodule imports, because rulestore writes it into every
# record's provenance; pyproject.toml reads the package version from here.
__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConvergenceError,
    EvaluationError,
    FeasibilityError,
    IntegrityError,
    NestQuadError,
    NumericalError,
    ParameterError,
    SchemaError,
    UnsupportedFamilyError,
)
from .gauss import (
    MomentReport,
    QuadratureRule,
    certified_rule,
    circle_theorem_deviation,
    gauss_rule,
    moment_residuals,
    verify_rule,
)
from .nested_optimizer import (
    NestedRulePair,
    OptimizerConfig,
    extend_patterson,
    generate_nested,
    hermite_to_laguerre,
    prune_negligible,
)
from .orthopoly import (
    Domain,
    RecurrenceTable,
    WeightFamily,
    chebyshev1,
    custom_family,
    eval_orthonormal,
    generalized_hermite,
    generalized_laguerre,
    jacobi,
    legendre,
    recurrence_coefficients,
    weight_density,
)
from .rulestore import (
    Catalog,
    RuleRecord,
    catalog_scan,
    load,
    make_pair_record,
    make_rule_record,
    save,
    verify_record,
    write_rule_csv,
)
from .sparse_grid import (
    SparseGrid,
    UnivariateLevelFamily,
    gauss_levels,
    integrate,
    nested_levels,
    read_grid_json,
    smolyak_grid,
    tensor_error_bound,
    tensor_rule,
    write_grid_csv,
    write_grid_json,
)

__all__ = [
    "CapacityError",
    "Catalog",
    "ConvergenceError",
    "Domain",
    "EvaluationError",
    "FeasibilityError",
    "IntegrityError",
    "MomentReport",
    "NestQuadError",
    "NestedRulePair",
    "NumericalError",
    "OptimizerConfig",
    "ParameterError",
    "QuadratureRule",
    "RecurrenceTable",
    "RuleRecord",
    "SchemaError",
    "SparseGrid",
    "UnivariateLevelFamily",
    "UnsupportedFamilyError",
    "WeightFamily",
    "catalog_scan",
    "certified_rule",
    "chebyshev1",
    "circle_theorem_deviation",
    "custom_family",
    "eval_orthonormal",
    "extend_patterson",
    "gauss_levels",
    "gauss_rule",
    "generalized_hermite",
    "generalized_laguerre",
    "generate_nested",
    "hermite_to_laguerre",
    "integrate",
    "jacobi",
    "legendre",
    "load",
    "make_pair_record",
    "make_rule_record",
    "moment_residuals",
    "nested_levels",
    "prune_negligible",
    "read_grid_json",
    "recurrence_coefficients",
    "save",
    "smolyak_grid",
    "tensor_error_bound",
    "tensor_rule",
    "verify_record",
    "verify_rule",
    "weight_density",
    "write_grid_csv",
    "write_grid_json",
    "write_rule_csv",
]

