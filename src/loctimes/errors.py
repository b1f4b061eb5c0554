"""Exception hierarchy for the loctimes package."""


class LoctimesError(Exception):
    """Base class for all package errors."""


# ---- generator construction ----

class NegativeRateError(LoctimesError):
    """An off-diagonal rate is negative."""


class TooSmallStateSpaceError(LoctimesError):
    """The state space has fewer than two states."""


class NonConservativeError(LoctimesError):
    """A provided diagonal violates the zero-row-sum condition."""


class UnknownLabelError(LoctimesError):
    """A state label is not part of the generator's state set."""


# ---- simulation ----

class BudgetExceededError(LoctimesError):
    """A simulation hit its jump/time budget (target state likely unreachable)."""


# ---- density evaluation ----

class DomainError(LoctimesError):
    """A local-time argument is outside the open simplex (some l_x <= 0)."""


class ExplosionGuardError(LoctimesError):
    """Balanced-flow enumeration would exceed the configured cap."""


class NonConvergedTruncationError(LoctimesError):
    """The certified series tail exceeds the requested tolerance at the cap order."""


class ResidualImaginaryError(LoctimesError):
    """Torus quadrature returned a non-negligible imaginary part."""


class NotTridiagonalError(LoctimesError):
    """The generator is not nearest-neighbor on the requested interval."""


class NotIntervalError(LoctimesError):
    """The requested subset is not a contiguous integer interval."""


class NotTreeError(LoctimesError):
    """The undirected support of the generator on the range is not a tree."""


# ---- rate functions and bounds ----

class NotSymmetricError(LoctimesError):
    """The generator is not symmetric."""


class UnboundedRateError(LoctimesError):
    """The occupation measure's support is not irreducible; the variational
    value may be infinite."""


class NotConvergedError(LoctimesError):
    """An iterative optimizer did not reach the requested gradient norm."""


class TooEarlyError(LoctimesError):
    """A finite-time bound was requested for T < 1."""


# ---- Ray-Knight ----

class NotSRWError(LoctimesError):
    """The generator is not a unit-rate nearest-neighbor walk on the interval."""


# ---- harness ----

class InsufficientConditionedError(LoctimesError):
    """Too few Monte Carlo samples survived the conditioning event."""


class ConfigParseError(LoctimesError):
    """A configuration document is malformed."""
