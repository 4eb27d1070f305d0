"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage/configuration problems
exit 1, malformed input data exits 2, anything else (internal invariant
violations included) exits 3.
"""


class ConfigError(Exception):
    """Bad configuration or command usage."""


class DataError(Exception):
    """Malformed or unreadable input data (datasets, annotations, models)."""


class SpecMismatchError(ValueError):
    """Two grid-shaped objects do not share a compatible layout."""


#: What decoding a JSON record, or converting and checking its values, raises
#: when the record is malformed.  Every reader catches this one set around
#: each record, and only there, and raises :class:`DataError` (exit 2).
MALFORMED = (LookupError, TypeError, ValueError, AttributeError, ArithmeticError, RecursionError, ConfigError)
