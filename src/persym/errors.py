"""Exception hierarchy shared by all persym modules."""


class PersymError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PersymError):
    """Invalid run configuration, CLI flags, input file, or grid kind."""


class IncompatibleGrids(ConfigError):
    """Two grids cover domains of different total length."""


class GridMismatch(ConfigError):
    """Operands must live on the same grid (same cell count and domain)."""


class OutOfDomain(PersymError):
    """Point lies outside the domain of an interval grid."""


class NegativeValue(ConfigError):
    """Step functions must be nonnegative; pass inputs through absolute_value first."""


class NegativeEnergy(PersymError):
    """A computed pair energy came out below zero."""


class NotPeriodic(ConfigError):
    """Operation requires a periodic grid."""


class NotInterval(ConfigError):
    """Operation requires a non-periodic (interval) grid."""


class NotIndicator(ConfigError):
    """Set operations require values in {0, 1}."""


class NotNormalized(PersymError):
    """Cost function must satisfy J(0) = 0 for this operation."""


class UnknownCost(ConfigError):
    """Unrecognized name in the convex cost library."""


class SigmaOutOfRange(ConfigError):
    """Kernel exponent must lie in (0, 1)."""


class StepFunctionDivergence(PersymError):
    """The requested functional is genuinely infinite on piecewise-constant inputs."""


class NonpositiveTime(ConfigError):
    """Heat-kernel diffusion time must be positive and finite."""


class RangeTooWide(ConfigError):
    """A table's rule or fit cannot meet its tolerance on the grid or range
    asked for (within the node budget, or certified by the fit)."""


class DivergentTail(NotNormalized):
    """Energy over an unbounded region diverges unless J(0) = 0."""


class KernelNotMonotone(PersymError):
    """Equality-case analysis requires a kernel decreasing away from the origin."""


class BudgetExceeded(PersymError):
    """Exhaustive enumeration would exceed the configured instance budget."""
