"""Exact verification workbench for Rota-Baxter operators of any weight.

Everything is exact rational arithmetic (carriers store integer numerators
over a shared denominator and read out `fractions.Fraction`); there is no
floating point and no tolerance anywhere. Carriers that truncate (Laurent tails, polynomial
degree caps) raise `ConfigError` instead of silently dropping terms.
"""

from .algebra import (
    RBAlgebra,
    SamplePlan,
    b_operator,
    check_double_assoc_and_hom,
    check_linearity,
    check_prelie_axiom,
    check_rb_law,
    check_weight_rescale,
    double_product,
    prelie_left,
    tilde_operator,
)
from .combinat import (
    MonoidAlphabet,
    Permutation,
    SetPartition,
    Word,
    bilinear,
    canonical_cycles,
    is_shuffle_of,
    permutations,
    quasi_shuffle,
    quasi_shuffle_lower,
    quasi_shuffle_merge,
    quasi_shuffle_upper,
    set_partitions,
    shuffle,
    shuffle_lower,
    shuffle_sum,
    shuffle_upper,
    word_sum,
)
from .errors import ConfigError
from .identities import (
    BSOperands,
    MagnusExpansion,
    bogoliubov_decompose,
    check_atkinson,
    check_bogoliubov,
    check_bohnenblust_spitzer,
    check_flows_bch,
    check_flows_product_law,
    check_nc_spitzer,
    cycle_chain_product,
    flows_product,
    prelie_magnus,
    solve_fixed_point,
    spitzer_check_commutative,
)
from .models import (
    LaurentElement,
    PolyFunction,
    RatMatrix,
    SeqElement,
    check_vector_field_prelie,
    commutative_standard_algebra,
    elementary_symmetric_check,
    finite_difference,
    integration_algebra,
    laurent_algebra,
    laurent_pole_projection,
    matrix_algebra,
    nested_sum_encoding,
    nested_sum_encoding_sum,
    noncommutative_standard_algebra,
    polynomial_derivative,
    riemann_integral,
    standard_generator,
    standard_sum_operator,
    summation_algebra,
    triangular_projection,
)
from .polynomials import CPoly, NCPoly
from .report import CheckResult, Report, emit_report
from .scalars import bernoulli, parse_rational
from .series import LambdaSeries, series_exp, series_inverse, series_log
from .yangbaxter import (
    TensorR,
    aybe_check,
    check_dendriform,
    check_modified_ybe,
    check_operator_ybe,
    kron,
    rb_from_tensor,
    tensor_rb_algebra,
)

__version__ = "0.1.0"

_CLI_NAMES = ("SuiteConfig", "main", "parse_config", "run_suite")


def __getattr__(name):
    """Load the CLI names on first use, so that `python -m rbx.cli` does not
    import `rbx.cli` twice."""
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BSOperands",
    "CPoly",
    "CheckResult",
    "ConfigError",
    "LambdaSeries",
    "LaurentElement",
    "MagnusExpansion",
    "MonoidAlphabet",
    "NCPoly",
    "Permutation",
    "PolyFunction",
    "RBAlgebra",
    "RatMatrix",
    "Report",
    "SamplePlan",
    "SeqElement",
    "SetPartition",
    "SuiteConfig",
    "TensorR",
    "Word",
    "aybe_check",
    "b_operator",
    "bernoulli",
    "bilinear",
    "bogoliubov_decompose",
    "canonical_cycles",
    "check_atkinson",
    "check_bogoliubov",
    "check_bohnenblust_spitzer",
    "check_dendriform",
    "check_double_assoc_and_hom",
    "check_flows_bch",
    "check_flows_product_law",
    "check_linearity",
    "check_modified_ybe",
    "check_nc_spitzer",
    "check_operator_ybe",
    "check_prelie_axiom",
    "check_rb_law",
    "check_vector_field_prelie",
    "check_weight_rescale",
    "commutative_standard_algebra",
    "cycle_chain_product",
    "double_product",
    "elementary_symmetric_check",
    "emit_report",
    "finite_difference",
    "flows_product",
    "integration_algebra",
    "is_shuffle_of",
    "kron",
    "laurent_algebra",
    "laurent_pole_projection",
    "main",
    "matrix_algebra",
    "nested_sum_encoding",
    "nested_sum_encoding_sum",
    "noncommutative_standard_algebra",
    "parse_config",
    "parse_rational",
    "permutations",
    "polynomial_derivative",
    "prelie_left",
    "prelie_magnus",
    "quasi_shuffle",
    "quasi_shuffle_lower",
    "quasi_shuffle_merge",
    "quasi_shuffle_upper",
    "rb_from_tensor",
    "riemann_integral",
    "run_suite",
    "series_exp",
    "series_inverse",
    "series_log",
    "set_partitions",
    "shuffle",
    "shuffle_lower",
    "shuffle_sum",
    "shuffle_upper",
    "solve_fixed_point",
    "spitzer_check_commutative",
    "standard_generator",
    "standard_sum_operator",
    "summation_algebra",
    "tensor_rb_algebra",
    "tilde_operator",
    "triangular_projection",
    "word_sum",
]
