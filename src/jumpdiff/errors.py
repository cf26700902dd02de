"""Exception types shared across the package.

Every error raised by jumpdiff derives from :class:`JumpdiffError`, so callers
can catch one type at the CLI boundary; every sampler's one path-step budget
ends in :class:`StepBudgetExceeded`.
"""


class JumpdiffError(Exception):
    """Base class for all jumpdiff errors."""


# --- problem specification -------------------------------------------------

class InvalidInterval(JumpdiffError):
    """Interval endpoints are not strictly ordered."""


class NonpositiveSigma(JumpdiffError):
    """Diffusion scale must be strictly positive."""


class NonfiniteDrift(JumpdiffError):
    """Drift must be a finite number."""


class AtomOutOfRange(JumpdiffError):
    """A jump-distribution atom lies on or outside the interval."""


class WeightsNotNormalized(JumpdiffError):
    """Jump-distribution weights are nonpositive or do not sum to one."""


# --- closed forms ----------------------------------------------------------

class OutOfDomain(JumpdiffError):
    """Evaluation point outside the open interval."""


class RequiresPositiveDrift(JumpdiffError):
    """Quantity is only defined for strictly positive drift."""


class RequiresCenteredDelta(JumpdiffError):
    """Quantity is only defined for a single atom at the interval midpoint."""


class SeriesOverflow(JumpdiffError):
    """A closed form leaves double range, or its series outgrows its term budget."""


# --- eigensolver -----------------------------------------------------------

class ContourThroughZero(JumpdiffError):
    """Winding contour could not be moved off a determinant zero."""


class BoxTooSmall(JumpdiffError):
    """No nonzero eigenvalue inside the search box; enlarge re_max."""


# --- simulation ------------------------------------------------------------

class NonpositiveDt(JumpdiffError):
    """Time step must be strictly positive."""


class StepBudgetExceeded(JumpdiffError):
    """A sampler run needs more path-steps than its budget."""


class WindowTooSparse(JumpdiffError):
    """Fewer than three curve points inside the fit window."""


class BelowNoiseFloor(JumpdiffError):
    """Curve values carry no resolvable decay inside the fit window."""


class RejectionBudgetExceeded(JumpdiffError):
    """Analytic acceptance of the conditioned-path rejection is below its floor."""


# --- experiments -----------------------------------------------------------

class ConfigError(JumpdiffError):
    """Experiment configuration failed validation."""


class NoPlateauFound(JumpdiffError):
    """Gap never reaches the drift-independent plateau inside the bracket."""
