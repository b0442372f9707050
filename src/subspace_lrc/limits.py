"""Size guards for exhaustive enumerations.

All searches in this package are exact and desk scale. Anything that would
enumerate more than the configured number of objects raises TooLarge
instead of grinding. The limit can be overridden per call or globally via
the SUBSPACE_LRC_LIMIT environment variable.
"""

from __future__ import annotations

import os

from .errors import TooLarge

DEFAULT_ENUMERATION_LIMIT = 1 << 20
DEFAULT_TABLE_LIMIT = 1 << 16
# Largest candidate pool that availability packs by exact search.
DEFAULT_PACKING_CAP = 5000

ENV_VAR = "SUBSPACE_LRC_LIMIT"


def enumeration_limit(override: int | None = None) -> int:
    """Effective enumeration limit: explicit override, else env var, else default."""
    if override is not None:
        if override < 1:
            raise ValueError("limit must be positive")
        return override
    raw = os.environ.get(ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_ENUMERATION_LIMIT


def guard(count: int, what: str, override: int | None = None) -> int:
    """Raise TooLarge if count exceeds the effective limit, else return count."""
    limit = enumeration_limit(override)
    if count > limit:
        raise TooLarge(f"{what} needs {count} objects, limit is {limit}")
    return count
