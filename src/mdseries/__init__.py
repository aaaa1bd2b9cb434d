"""Multiple Dirichlet series restricted to Laurent monomial varieties.

Exact enumeration of integer points, dual direct-sum / Euler-product
evaluation, row-operation invariances, Property (S) counterexample search,
and character-moment reconstruction experiments.

The names below are exported lazily (PEP 562): `import mdseries` loads no
submodule, and each name loads its module on first use.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "arith": ("CharacterTable", "character_table", "factorize", "iroot", "is_prime",
              "primes_up_to", "valuation"),
    "coefficients": ("CharacterFamily", "CoefficientFamily", "HeckeGL2Family",
                     "TableFamily", "TauFamily", "TrivialFamily",
                     "eval_product_coefficient", "hecke_prime_power",
                     "ramanujan_tau_table", "trivial_tuple"),
    "errors": ("ConstraintSyntaxError", "ConvergenceError", "DescriptorError",
               "MDSeriesError", "MissingPrimePowerError", "TwistOverflowError",
               "WorkCapExceeded"),
    "lattice": ("AddMultiple", "Negate", "RowOperation", "SupportSearch", "Swap",
                "apply_row_op", "block_compose", "hnf_rows", "negate_system",
                "normalize", "permute_columns", "support_reducible"),
    "momentlab": ("MomentExperiment", "decay_experiment", "moment_rhs"),
    "recombination": ("CartesianCheck", "PolynomialVariety", "Witness",
                      "cartesian_check", "check_property_S", "parse_constraints",
                      "recombine"),
    "series": ("EvalParams", "EvalReport", "compare", "default_exponent_bound",
               "direct_sum", "direct_sum_and_half", "euler_product",
               "euler_product_and_half", "local_factor"),
    "system": ("LaurentMonomialSystem", "make_system"),
    "variety": ("LocalSolutionSet", "box_array", "enumerate_box", "local_solutions",
                "on_monomial_variety", "on_monomial_variety_rational"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # A name outside the table raises, so `from mdseries import series`
    # falls back to importing the submodule.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
