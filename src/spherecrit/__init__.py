"""Critical points of homogeneous polynomials on the unit sphere.

Find all critical pairs (x, lam) with grad f(x) = lam x on the sphere,
classify them by first and second order optimality conditions, and detect
the degenerate case where the second-order necessary condition holds but the
sufficient one fails.  Includes an exact enumeration and an exact degeneracy
oracle for n = 2, plus randomized experiments confirming that degeneracy
never shows up for generic objectives.
"""

from .classify import (
    ClassifiedPoint,
    PointAnalysis,
    Verdict,
    analyze_points,
    classify_all,
    classify_point,
)
from .critsolve import (
    CertificationReport,
    CriticalPair,
    CriticalSet,
    SolverConfig,
    certify_against_oracle,
    enumerate_critical_pairs_n2,
    find_critical_pairs,
    scaled_tolerance,
)
from .degeneracy import (
    DegeneracyWitness,
    NotCriticalError,
    OracleResult,
    QuadraticDegeneracy,
    bordered_determinants,
    build_witness_matrix,
    detect_sosc_failure,
    exact_oracle_n2,
    quadratic_degeneracy,
    rank_deficient,
)
from .genlab import (
    ExperimentConfig,
    ExperimentReport,
    QuadSweepReport,
    SuiteReport,
    axis_monomial,
    check_planted_quadratic,
    enumerate_power_critical_points,
    geometric_power_polynomial,
    quadratic_form_polynomial,
    run_degenerate_family,
    run_quadratic_sweep,
    run_random_genericity,
    run_witness_d2,
    run_witness_general,
    weighted_axis_quadratic,
)
from .polyhom import (
    HomogeneousPolynomial,
    Monomial,
    PolynomialFormatError,
    ZeroPolynomialError,
    basis_size,
    monomial_basis,
    parse_polynomial,
    random_polynomial,
    read_polynomial,
    serialize_polynomial,
    write_polynomial,
)

__version__ = "0.1.0"
