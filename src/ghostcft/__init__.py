"""ghostcft: correlators and conformal blocks of the bosonic ghost system.

A self-contained special-function kernel (gamma, beta, 2F1 with its
transformation graph, 3F2), an exact symbolic engine for the ghost mode
algebra, closed-form correlator and block evaluators, residual engines for
the zero-mode/charge-shift/second-order constraints, the charge-shift
recursion in exact rational and numeric modes, and the summation identities
tying the flow-2 blocks to generalized hypergeometric values.
"""

from . import blocks, correlators, identities, kzbpz, modealg, specfun
from .blocks import BlockSum, PowerSum
from .correlators import CorrelatorSpec, GhostPrimary, WardForm
from .kzbpz import ResidualReport, recursion_iterate, recursion_step

__version__ = "0.1.0"

__all__ = [
    "BlockSum",
    "CorrelatorSpec",
    "GhostPrimary",
    "PowerSum",
    "ResidualReport",
    "WardForm",
    "blocks",
    "correlators",
    "identities",
    "kzbpz",
    "modealg",
    "recursion_iterate",
    "recursion_step",
    "specfun",
]
