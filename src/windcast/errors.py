"""Exception types shared across the package."""


class WindcastError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(WindcastError, ValueError):
    """An argument violates a documented precondition."""


class InvalidDistributionError(InvalidInputError):
    """Distribution parameters out of their valid domain (e.g. sigma <= 0)."""


class UnsupportedLatitudeError(InvalidInputError):
    """Latitude too close to the equator for a usable Coriolis parameter."""


class RankDeficiencyError(WindcastError):
    """A least-squares design is rank deficient (collinear or degenerate points)."""


class InsufficientDataError(WindcastError):
    """Not enough observations to build the requested profile or fit."""


class TrainingDataError(WindcastError):
    """Training window too small or contaminated by non-finite values."""


class LoadError(WindcastError):
    """A data file could not be parsed against its declared schema."""


class EmptyReportError(WindcastError):
    """Scoring was requested on a record set with nothing to score."""


class ConfigError(WindcastError):
    """Run configuration violates one or more constraints.

    Carries the full list of violations so a single run surfaces every
    problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
