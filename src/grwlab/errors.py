"""Exception types shared across the package."""

import copyreg
from contextlib import contextmanager


class GrwError(Exception):
    """Base class for all grwlab errors."""

    def __reduce__(self):
        # rebuilt without __init__, whose parameters need not match .args,
        # so an error raised in a pool worker reaches the parent intact
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DomainError(GrwError, ValueError):
    """An argument is outside its physical/mathematical domain."""


class GridMismatchError(GrwError, ValueError):
    """Two states live on different grids (or have different masses)."""


class DegeneracyError(GrwError, ValueError):
    """A construction produced a state with (numerically) zero norm."""


class StepSizeError(GrwError, ValueError):
    """A propagation step size violates a stability guard."""


class ZeroSupportError(GrwError, ValueError):
    """A localization hit landed where the state has negligible amplitude."""


class NumericError(GrwError, ValueError):
    """Non-finite amplitudes or observables encountered."""


class SnapshotFormatError(GrwError, ValueError):
    """A QSL1 snapshot file is malformed; .offset gives the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class BoundsParseError(GrwError, ValueError):
    """A bounds CSV row failed validation; .row gives the 1-based line."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


class ConfigError(GrwError, ValueError):
    """A run configuration is invalid (bad key, mixed units, bad value)."""


class StatisticsError(GrwError, RuntimeError):
    """An ensemble produced too little data for the requested estimate."""


class DecisionTimeoutError(GrwError, RuntimeError):
    """A measurement trial failed to reach an outcome within its time budget."""


class WorkerError(GrwError, RuntimeError):
    """A worker process of an ensemble died before returning its results."""


@contextmanager
def as_config_error(**keys: str):
    """Turns a library rule's DomainError or StepSizeError, "<field> must
    ...", into a ConfigError naming keys.get(field, field), the config key
    that sets the field.  For set-up code only: a trajectory's error is its own."""
    try:
        yield
    except (DomainError, StepSizeError) as e:
        field, rest = str(e).split(" ", 1)
        raise ConfigError(f"{keys.get(field, field)} {rest}") from None
