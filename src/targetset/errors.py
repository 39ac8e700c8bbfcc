"""Exception types shared across the package."""


class PreconditionError(Exception):
    """A solver or reduction was called on an input outside its supported class."""


class OracleLimitError(Exception):
    """An exhaustive oracle was asked to handle an instance above its size limit."""


class VerificationError(RuntimeError):
    """A solver, oracle or reduction produced a result that failed its own check."""


class ValidationError(Exception):
    """An instance failed invariant validation."""

    def __init__(self, violation):
        super().__init__(f"{violation.rule}: {violation.detail}")
        self.violation = violation


class WtgParseError(Exception):
    """Syntax or consistency error in a WTG document, addressed by line/column."""

    def __init__(self, message, line, column=None):
        where = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class UsageError(Exception):
    """Bad command line (raised instead of argparse's default SystemExit)."""
