"""Schubert calculus on complex, real, quaternionic, and octonionic flag varieties.

The complex layer computes in the Schubert basis of Grassmannians and full
or partial flag varieties. The halving layer transports problems on the
other three families to that complex layer, giving exact counts in the
quaternionic and octonionic cases and certified lower bounds on the number
of real solutions in the real case.
"""

from .errors import (
    BoxOverflow,
    DegreeOutOfRange,
    DimensionMismatch,
    MissingChernDegree,
    NotADouble,
    NotADoubleIndex,
    SchubertError,
    SpaceMismatch,
    SupportOutsideStaircase,
)
from .flag import FlagClass, FlagDescriptor, flag_integrate, flag_multiply
from .grassmann import (
    GrassmannClass,
    GrassmannianDescriptor,
    chern_class,
    degeneracy_count,
    giambelli,
    gr_integrate,
    gr_multiply,
    poincare_dual,
    tautological_chern_difference,
    thom_porteous,
)
from .halving import (
    HalvingClass,
    HalvingSpaceDescriptor,
    SchubertProblem,
    kappa,
    kappa_char_class,
    quaternionic_count,
    real_degeneracy_lower_bound,
    real_double_multiply,
    real_lower_bound,
    solve,
)
from .schur import SchurExpansion, lr_coefficient, schur_multiply

__version__ = "0.1.0"

__all__ = [
    "BoxOverflow",
    "DegreeOutOfRange",
    "DimensionMismatch",
    "MissingChernDegree",
    "NotADouble",
    "NotADoubleIndex",
    "SchubertError",
    "SpaceMismatch",
    "SupportOutsideStaircase",
    "FlagClass",
    "FlagDescriptor",
    "divided_difference",
    "expand_in_schubert_basis",
    "flag_integrate",
    "flag_multiply",
    "monk_multiply",
    "schubert_polynomial",
    "GrassmannClass",
    "GrassmannianDescriptor",
    "chern_class",
    "degeneracy_count",
    "giambelli",
    "gr_integrate",
    "gr_multiply",
    "poincare_dual",
    "tautological_chern_difference",
    "thom_porteous",
    "HalvingClass",
    "HalvingSpaceDescriptor",
    "SchubertProblem",
    "kappa",
    "kappa_char_class",
    "quaternionic_count",
    "real_degeneracy_lower_bound",
    "real_double_multiply",
    "real_lower_bound",
    "solve",
    "SchurExpansion",
    "jacobi_trudi",
    "lr_coefficient",
    "oracle_schur_polynomial",
    "schur_multiply",
    "run_selftest",
    "__version__",
]


# The oracles and the self-test suites live in one module, loaded on first
# use of one of these names, not with the package.
_SELFTEST_NAMES = frozenset((
    "divided_difference",
    "expand_in_schubert_basis",
    "jacobi_trudi",
    "monk_multiply",
    "oracle_schur_polynomial",
    "run_selftest",
    "schubert_polynomial",
))


def __getattr__(name):
    if name in _SELFTEST_NAMES:
        from . import selftest

        return getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
