"""Exception types and input guards shared across the toolkit.

Input problems (bad classes, wrong base, violated preconditions) raise
ValueError so they surface as usage errors.  InvariantViolation is reserved
for failures of internal cross-checks (dual-route computations, determinant
constraints): those should never fire on valid code paths, and the CLI maps
them to a distinct exit code.

Work that grows with the input is bounded up front: an enumeration (the
sub-effective classes of a class, the sets S and S', Gamma(n, r), the part
set behind t2, the trial divisors of a multicover gcd) is counted before it
is built, and one of more than MAX_ENUMERATION elements is refused with a
ValueError stating its size.
"""

from fractions import Fraction

MAX_ENUMERATION = 100_000


class InvariantViolation(RuntimeError):
    """An internal mathematical consistency check failed."""


def require_int(value, field: str) -> int:
    """Return value if it is an int; otherwise raise a ValueError naming the
    field.  Booleans are refused, and floats too, rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r:.40}")
    return value


def require_rational(value, field: str) -> Fraction:
    """Return value as a Fraction if it is an int or a Fraction; otherwise
    raise a ValueError naming the field.  Booleans, floats and strings are
    refused, rather than converted."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer or a Fraction, got {value!r:.40}")
    return Fraction(value)


def check_enumeration_size(what: str, size: int, exact: bool = True) -> None:
    """Refuse an enumeration of more than MAX_ENUMERATION elements before
    any of them is built; size is its count, or a lower bound for it when
    exact is false."""
    if size > MAX_ENUMERATION:
        raise ValueError(f"{what} has {'' if exact else 'at least '}{size} elements, "
                         f"more than the cap of {MAX_ENUMERATION}")
