"""Exception types shared across the package.

Each class names the token the CLI prints (`error <reason>: ...`) and the
exit code it returns: 2 input, 4 oracle limits.
"""


class VarncodeError(Exception):
    """Base class for all package errors."""

    reason = "parse"
    exit_code = 2


class CostSpecError(VarncodeError):
    """Malformed cost specification (empty, nonpositive cost, bad DSL string)."""


class ProbInputError(VarncodeError):
    """Malformed probability input (negative entry, all zero, bad sum)."""


class OracleTooLargeError(VarncodeError):
    """Instance exceeds the exhaustive oracle's size limits."""

    reason = "oracle_too_large"
    exit_code = 4


class CapTooSmallError(VarncodeError):
    """No prefix-free code exists at or below the supplied cost cap."""

    reason = "cap_too_small"
    exit_code = 4
