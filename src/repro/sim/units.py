"""Time and rate unit helpers.

The simulator's time base is the floating-point microsecond.  These
helpers exist so call sites read as intent (``us_from_s(2.5)``) rather
than as magic multiplications.
"""

US_PER_S = 1_000_000.0


def us_from_s(s: float) -> float:
    """Convert seconds to microseconds."""
    return s * US_PER_S


def throughput_mbps(payload_bytes: float, elapsed_us: float) -> float:
    """Payload throughput in Mbps for ``payload_bytes`` over ``elapsed_us``.

    Returns 0.0 for a zero-length interval rather than raising, because
    metric windows may legitimately be empty.
    """
    if elapsed_us <= 0.0:
        return 0.0
    return payload_bytes * 8.0 / elapsed_us
