"""Size guards for exhaustive enumerations.

All searches in this package are exact and desk scale. Anything that would
enumerate more than the configured number of objects raises TooLarge
instead of grinding. The limit can be overridden per call (`limit=` in the
library, `--limit` on the command line).
"""

from __future__ import annotations

from .errors import TooLarge

DEFAULT_ENUMERATION_LIMIT = 1 << 20
DEFAULT_TABLE_LIMIT = 1 << 16
# Largest candidate pool that availability packs by exact search.
DEFAULT_PACKING_CAP = 5000


def enumeration_limit(override: int | None = None) -> int:
    """Effective enumeration limit: explicit override, else the default."""
    if override is None:
        return DEFAULT_ENUMERATION_LIMIT
    if override < 1:
        raise ValueError("limit must be positive")
    return override


def guard(count: int, what: str, override: int | None = None) -> int:
    """Raise TooLarge if count exceeds the effective limit, else return count."""
    limit = enumeration_limit(override)
    if count > limit:
        raise TooLarge(f"{what} needs {count} objects, limit is {limit}")
    return count
