"""Exception types shared across the toolkit."""


class SynchroError(Exception):
    """Base class for all toolkit errors."""


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
    """Certificate extraction could not derive a role the structure theory
    guarantees (the b letter's merged pair, the state relabelled 3, or q).

    Clause failures of a derived certificate are reported by
    validate_certificate, not raised.  This is a first-class outcome, not a
    crash: the verification harness records it as a would-be counterexample
    instead of suppressing it.
    """

    def __init__(self, message, detail=None):
        self.detail = detail or {}
        super().__init__(message)


class ConstructionContradiction(SynchroError):
    """A witness construction failed where the case analysis guarantees success."""

    def __init__(self, message, detail=None):
        self.detail = detail or {}
        super().__init__(message)


class TheoremViolation(SynchroError):
    """An empirical check contradicted a proved bound.

    Since the bounds are theorems, a violation always means an implementation
    bug; the record carries full reproduction data.
    """

    def __init__(self, message, detail=None):
        self.detail = detail or {}
        super().__init__(message)


class BudgetExceeded(SynchroError):
    """An exhaustive enumeration would exceed the configured work budget."""

    def __init__(self, message, count):
        self.count = count
        super().__init__(message)
