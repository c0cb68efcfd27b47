"""Exception types shared across the package."""


class AirpocketsError(Exception):
    """Base class for all errors raised by this package."""


# ---------- path construction and surgery ----------

class MalformedToken(AirpocketsError):
    """A path string contains a token that is not U, D or Dk."""


class ConsecutiveDowns(AirpocketsError):
    """Two down steps appear in a row."""


class NotDAP(AirpocketsError):
    """Operation requires a Dyck path with air pockets."""


class NotPrime(AirpocketsError):
    """Operation requires a prime path."""


class BadEnds(AirpocketsError):
    """merge() needs a down-ending left factor and a down-starting right factor."""


# ---------- exhaustive enumeration ----------

class InfeasibleSpec(AirpocketsError):
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
    """Negative power of a series whose constant term is 0."""


class SingularToOrder(AirpocketsError):
    """Linear system whose determinant has zero constant term."""


class IndexOutOfRange(AirpocketsError):
    """Numerator index outside 0..2t+1."""


class ConsistencyError(AirpocketsError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConsistencyError(message)


# ---------- series catalog ----------

class UnknownName(AirpocketsError):
    """No catalog entry answers to the requested name."""


class BadParams(AirpocketsError):
    """Catalog parameters are missing, unexpected, or out of range."""


# ---------- bijections ----------

class NotInFamily(AirpocketsError):
    """Input path lies outside the bijection's domain."""


class NotAlternating(AirpocketsError):
    """Composition parts do not alternate in parity."""


class NotInCPrime(AirpocketsError):
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
