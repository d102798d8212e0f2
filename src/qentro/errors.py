"""Domain exceptions: ``QentroError`` (a ``ValueError`` whose message names
the violated invariant), which the CLI maps to exit code 3, and
``ParseError`` for malformed serialized input, exit code 2."""


class QentroError(ValueError):
    """Invariant violation or invalid domain input."""


class ParseError(Exception):
    """Malformed or schema-violating serialized input (not a domain error)."""
