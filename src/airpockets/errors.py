"""Exception types shared across the package.

Two bases sort the errors a caller can cause, and the command line picks
its exit code from them: InputError (exit 3) for bad parameters, a request
above a size ceiling or an infeasible family, and DomainError (exit 4) for
a path or composition outside an operation's domain.  Both are also
ValueErrors.  UnknownName (exit 2) stands alone.  Every other class is an
arithmetic, sequence-client or internal error; one reaching the command
line is a bug, and it shows as a traceback.
"""


class AirpocketsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AirpocketsError, ValueError):
    """Parameters are bad, above a ceiling, or describe no finite family."""


class DomainError(AirpocketsError, ValueError):
    """The input lies outside the domain of a path operation or bijection."""


# ---------- path construction and surgery ----------

class MalformedToken(DomainError):
    """A path string contains a token that is not U, D or Dk."""


class ConsecutiveDowns(DomainError):
    """Two down steps appear in a row."""


class NotDAP(DomainError):
    """Operation requires a Dyck path with air pockets."""


class NotPrime(DomainError):
    """Operation requires a prime path."""


class BadEnds(DomainError):
    """merge() needs a down-ending left factor and a down-starting right factor."""


# ---------- exhaustive enumeration ----------

class InfeasibleSpec(InputError):
    """The family specification is contradictory or describes an infinite set."""


# ---------- truncated power series ----------

class OrderMismatch(AirpocketsError):
    """Arithmetic between series of different truncation orders."""


class DivisionByZeroSeries(AirpocketsError):
    """Division by the zero series."""


class ValuationUnderflow(AirpocketsError):
    """Dividend valuation is smaller than divisor valuation (or shift below x^0)."""


class BadConstantTerm(AirpocketsError):
    """Square root requires constant term 1."""


class NonInvertible(AirpocketsError):
    """A division or square root whose result is not an integer series."""


class SingularToOrder(AirpocketsError):
    """Linear system whose determinant has zero constant term."""


class ConsistencyError(AirpocketsError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConsistencyError(message)


# ---------- series catalog ----------

class UnknownName(AirpocketsError):
    """No catalog entry answers to the requested name."""


class BadParams(InputError):
    """Parameters are missing, unexpected, or out of range."""


# ---------- bijections ----------

class NotInFamily(DomainError):
    """Input path or composition lies outside the bijection's domain."""


class NotAlternating(DomainError):
    """Composition parts do not alternate in parity."""


class NotInCPrime(DomainError):
    """Composition is not first-odd / last-even alternating."""


# ---------- sequence client ----------

class NetworkUnavailable(AirpocketsError):
    """No cache, no fixture, and the network fetch failed or was disabled."""


class ParseError(AirpocketsError):
    """A b-file line could not be parsed."""


class UnknownSequence(AirpocketsError):
    """The remote host reports no such sequence."""


class NoAlignment(AirpocketsError):
    """No shift in [-5, 5] aligns the series with the sequence record."""
