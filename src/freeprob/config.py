"""The size cap that every module sizing a large array shares.

require_fits refuses, before allocating, any input whose largest array
would pass MAX_SYSTEM_BYTES.  Each numeric cutoff and sampling size lives
as a constant in the one module that reads it.
"""

from __future__ import annotations

from .errors import DomainError

# inputs whose largest array would pass this size are refused up front
MAX_SYSTEM_BYTES = 256 * 2**20


def require_fits(need: int, what: str) -> None:
    if need > MAX_SYSTEM_BYTES:
        # MiB rounded up to 0.1, so a need past the cap never reads as equal to it
        tenths = -(-10 * need // 2**20)
        raise DomainError(
            f"{what} needs {tenths / 10:.1f} MiB, above the {MAX_SYSTEM_BYTES / 2**20:g} MiB cap"
        )
