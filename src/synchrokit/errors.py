"""Exception types shared across the toolkit."""


class SynchroError(Exception):
    """Base class for all toolkit errors; ``detail`` holds reproduction data."""

    def __init__(self, message, detail=None):
        self.detail = detail or {}
        super().__init__(message)


class ParseError(SynchroError):
    """Malformed automaton file. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class HypothesisFailed(SynchroError):
    """The automaton does not satisfy the hypothesis of the requested construction."""


class PreconditionFailed(SynchroError):
    """An operation's stated precondition does not hold for the given arguments."""


class CertificateContradiction(SynchroError):
    """The corank-2 hypothesis holds but no valid certificate exists.

    Raised when extraction cannot derive a role the structure theory
    guarantees (the b letter's merged pair, the state relabelled 3, or q),
    and by ``certify`` when the extracted certificate fails a clause.
    Either is a counterexample to the structure theory, not a crash: the
    verification harness records it and the CLI exits 2.
    """


class ConstructionContradiction(SynchroError):
    """A witness construction failed where the case analysis guarantees success."""


class TheoremViolation(SynchroError):
    """An empirical check contradicted a proved bound.

    Since the bounds are theorems, a violation always means an implementation
    bug; the record carries full reproduction data.
    """


class BudgetExceeded(SynchroError):
    """An exhaustive enumeration, or one power-automaton search, would exceed
    its work budget; ``count`` is the size it reached."""

    def __init__(self, message, count):
        self.count = count
        super().__init__(message)
