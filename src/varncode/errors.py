"""Exception types shared across the package.

Each class names the token the CLI prints (`error <reason>: ...`) and the
exit code it returns: 2 input, 3 numeric, 4 oracle limits.  The one numeric
error, `DivergentTailError`, comes from calling `approx_bound` directly: no
command reaches exit 3, because `report` marks that bound row inapplicable
instead of asking for it.
"""


class VarncodeError(Exception):
    """Base class for all package errors."""

    reason = "numeric"
    exit_code = 3


class CostSpecError(VarncodeError):
    """Malformed cost specification (empty, nonpositive cost, bad DSL string)."""

    reason = "parse"
    exit_code = 2


class ProbInputError(VarncodeError):
    """Malformed probability input (negative entry, all zero, bad sum)."""

    reason = "parse"
    exit_code = 2


class DivergentTailError(VarncodeError):
    """The cost-weighted tail sum of the alphabet diverges at the characteristic root."""

    reason = "divergent_tail"


class OracleTooLargeError(VarncodeError):
    """Instance exceeds the exhaustive oracle's size limits."""

    reason = "oracle_too_large"
    exit_code = 4


class CapTooSmallError(VarncodeError):
    """No prefix-free code exists at or below the supplied cost cap."""

    reason = "cap_too_small"
    exit_code = 4
