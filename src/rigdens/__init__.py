"""Certified invariant densities of piecewise expanding interval maps.

The pipeline discretizes the transfer operator (mass-norm Ulam cells or
sup-norm hat functions), certifies that the resulting row-stochastic
matrix contracts, encloses its stationary vector from the certified
residual of a power iterate, and assembles an explicit
a-posteriori bound on the distance to the true invariant density, from
which a certified Lyapunov-exponent interval follows.
"""

from .intervals import EPS_MACH, PI, Interval, from_fraction, iv
from .maps import (
    Branch,
    Endpoint,
    ExpansionError,
    LYCoefficientsBV,
    LYCoefficientsLip,
    PiecewiseMap,
    iterate_map,
    ly_coefficients_bv,
    ly_coefficients_lip,
    split_mod_branches,
)
from .ulam import (
    TransitionMatrix,
    assemble_ulam,
    dump_matrix,
    markovize,
)
from .hatbasis import LinfMatrix, assemble_linearized
from .enclosure import (
    ContractionCertificate,
    EnclosedDensity,
    NotContractingError,
    contraction_sweep,
)
from .certify import (
    Certificate,
    CertificateReport,
    LyapunovResult,
    certify_l1,
    certify_linf,
    lyapunov,
    report,
)

__version__ = "0.1.0"

_CLI_NAMES = ("MapSpec", "RunConfig", "parse_map", "run")


def __getattr__(name):
    # the CLI module loads on first use, so that `python -m rigdens.cli`
    # runs it as __main__ without finding it imported already
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
