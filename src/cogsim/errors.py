"""Exception types shared across the engine."""


class CogsimError(Exception):
    """Base class for all engine errors."""


class IllegalAction(CogsimError):
    """An action violated the world's action semantics."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class UnknownEntity(CogsimError):
    """An event or rule referenced an entity that was never declared."""


class ParseError(CogsimError):
    """The scenario document is not well-formed text/JSON."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class SchemaError(CogsimError):
    """The scenario document violates the closed scenario schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class InvalidSpec(CogsimError):
    """A scenario with validation errors was asked to instantiate."""


class OutOfOrder(CogsimError):
    """A trace append regressed in simulation time."""


class CyclicUndercut(CogsimError):
    """The undercut relation over an argument set contains a cycle."""


class NonFiniteForce(CogsimError):
    """A tendency's force overflowed: its urgency and argument weights
    sum past the largest float."""
