"""Multiple Dirichlet series restricted to Laurent monomial varieties.

Exact enumeration of integer points, dual direct-sum / Euler-product
evaluation, row-operation invariances, Property (S) counterexample search,
and character-moment reconstruction experiments.
"""

from .arith import (CharacterTable, character_table, factorize, factorize_twist,
                    iroot, is_prime, primes_up_to, valuation)
from .coefficients import (CharacterFamily, CoefficientFamily, HeckeGL2Family,
                           TableFamily, TauFamily, TrivialFamily,
                           eval_product_coefficient, hecke_prime_power,
                           ramanujan_tau_table, trivial_tuple)
from .errors import (ConstraintSyntaxError, ConvergenceError, DescriptorError,
                     MDSeriesError, MissingPrimePowerError, TwistOverflowError,
                     WorkCapExceeded)
from .momentlab import MomentExperiment, decay_experiment, moment_rhs
from .series import (EvalParams, EvalReport, compare, default_exponent_bound,
                     direct_sum, direct_sum_and_half, euler_product,
                     euler_product_and_half, local_factor)
from .system import (AddMultiple, LaurentMonomialSystem, Negate, RowOperation,
                     SupportSearch, Swap, apply_row_op, block_compose,
                     hnf_rows, make_system, negate_system, normalize,
                     permute_columns, support_reducible)
from .variety import (CartesianCheck, LocalSolutionSet, PolynomialVariety,
                      Witness, box_array, cartesian_check, check_property_S,
                      enumerate_box, local_solutions, on_monomial_variety,
                      on_monomial_variety_rational, parse_constraints, recombine)

__version__ = "0.1.0"
