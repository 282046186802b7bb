"""Exact computational engine for modular, quasimodular and nearly
holomorphic modular forms at level one: q-expansions over big rationals,
the Eisenstein/cusp-form catalog, Hecke operators with an eigenform
tester, the weight-raising operator on Y-polynomials, Rankin-Cohen
brackets, and reproducible verification suites.
"""

from .exactmath import (
    bernoulli,
    binomial,
    divisors,
    rational_str,
    sigma,
    solve_linear,
)
from .qseries import GradedSeries, PrecisionError, QSeries, first_difference
from .forms import (
    CATALOG_NAMES,
    DELTA_WEIGHTS,
    GeneratorPoly,
    catalog,
    catalog_form,
    cusp_delta,
    dim_modular,
    eisenstein,
    eval_generator_poly,
    is_modular_member,
    monomial_basis,
    monomial_exponents,
    span_coordinates,
)
from .nearly import (
    YPolyForm,
    constant_term,
    e2_star,
    maass_shimura,
    quasimodular_decompose,
)
from .hecke import EigenReport, Violation, eigenform_test, hecke, hecke_nearly
from .brackets import rankin_cohen
from .verify import (
    DEFAULT_PREC,
    EXPECTED_EIGEN_PRODUCTS,
    PRODUCT_IDENTITIES,
    VerificationReport,
    bracket_search,
    diophantine_check,
    ghitza_check,
    product_search,
    run_suite,
    verify_diophantine_suite,
    verify_identity_suite,
)

__version__ = "0.1.0"
