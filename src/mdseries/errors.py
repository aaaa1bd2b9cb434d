"""Exception types shared across the package."""


class MDSeriesError(Exception):
    """Base class for all package-specific errors."""


class WorkCapExceeded(MDSeriesError):
    """An enumeration or scan would exceed its work cap.  The message ends
    with the remedy: MDS_WORK_CAP for the caps that limits.work_cap reads,
    and what to make smaller for a fixed cap."""

    def __init__(self, needed, cap, what="enumeration",
                 remedy="set MDS_WORK_CAP to override"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what} needs ~{needed} units of work, cap is {cap} ({remedy})")


class TwistOverflowError(MDSeriesError):
    """A row operation pushed a twist value past the integer cap."""


class ConvergenceError(MDSeriesError):
    """Some Re(s_j) <= 1 and no explicit override was given; sigma is the
    smallest Re(s_j)."""

    def __init__(self, sigma):
        self.sigma = sigma
        super().__init__(f"min Re s = {sigma} <= 1; pass override_convergence to evaluate "
                         "a formal truncation")


class ConstraintSyntaxError(MDSeriesError):
    """Parse failure in the constraint expression language."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class MissingPrimePowerError(MDSeriesError):
    """A coefficient family has no value for the requested prime power."""


class DescriptorError(MDSeriesError):
    """A system descriptor failed validation; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
