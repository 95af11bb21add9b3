"""Exception hierarchy shared across the package."""


class GhostCftError(Exception):
    """Base class for all package errors."""


class PoleError(GhostCftError):
    """Evaluation requested exactly at a gamma-function pole."""


class ParamError(GhostCftError):
    """Parameter combination outside the defined domain."""


class DegenerateError(GhostCftError):
    """Degenerate parameter configuration (integer differences) that needs
    a regularized or limit evaluation mode."""


class ConvergenceError(GhostCftError):
    """Series or continuation failed to converge in the supported region."""


class BranchCutError(GhostCftError):
    """Argument sits on a branch cut and no side was specified."""


class TruncationError(GhostCftError):
    """A finite mode sum left out a term that does not vanish.  No path
    raises it: the (JJ)_n sum runs over exactly the pairs that act.  It stays
    for bench/test_bench.py, which imports it."""


class ContextError(GhostCftError):
    """Operation requires the localized algebra (invertible gamma_0)."""


class ChargeError(GhostCftError):
    """Field charge incompatible with the requested operation."""


class UnsupportedShape(GhostCftError):
    """Spectral-flow pattern outside the supported correlator shapes."""


class DivisionByZeroCharge(GhostCftError):
    """Charge-shift recursion would divide by a vanishing charge."""


class MissingCompanion(GhostCftError):
    """A required charge-shifted companion correlator was not supplied."""


class VanishingConstantRequired(GhostCftError):
    """Charge configuration where consistency forces the overall constant
    to vanish; the closed form is not a valid evaluator there."""
