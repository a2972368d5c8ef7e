"""Random sampling primitives with reproducible splittable streams.

All randomness in the package flows through RngStream, a value object
keyed by (master_seed, stream_id).  Identical keys reproduce identical
sample sequences bit for bit; distinct stream ids give statistically
independent streams.  Trials of the Monte-Carlo estimators are keyed by
stream id, which makes per-trial work order-independent and lets thread
counts change throughput without changing results.  numpy is imported by
the functions that make a generator or draw, so a stream value costs no
numpy until it draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gaussian_ramsey.analytic import std_normal_cdf, std_normal_pdf


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError(f"seed must be non-negative, got seed={self.master_seed}")

    def generator(self):
        """Fresh numpy Generator (PCG64) positioned at the origin of this stream."""
        import numpy as np

        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def offset(self, k: int) -> "RngStream":
        """The stream k slots further along the same master seed."""
        return RngStream(self.master_seed, self.stream_id + k)


def as_generator(stream):
    """Accept either a stream value or a live generator.

    A stream value always yields a generator at its origin; a generator is
    used as-is (and advances), which is how multi-draw trials thread one
    source through several sampling calls.
    """
    import numpy as np

    if isinstance(stream, np.random.Generator):
        return stream
    return stream.generator()


@dataclass(frozen=True)
class TruncatedSpec:
    """One-sided truncation of N(0, 1/d).

    cutoff is in standard-deviation units: side "lower" conditions on
    X >= cutoff/sqrt(d), side "upper" on X <= cutoff/sqrt(d).  A lower
    truncation allows cutoff = -inf (no truncation) and an upper one
    cutoff = +inf; the opposite infinities would condition on a null event
    and are rejected.
    """

    cutoff: float
    side: str
    d: int

    def __post_init__(self) -> None:
        if self.side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {self.side!r}")
        if self.d < 1:
            raise ValueError(f"variance parameter d must be >= 1, got {self.d}")
        if math.isnan(self.cutoff):
            raise ValueError("cutoff must not be NaN")
        if (self.side == "lower" and self.cutoff == math.inf) or (
            self.side == "upper" and self.cutoff == -math.inf
        ):
            raise ValueError("conditioning event has probability zero")


def sample_truncated(spec: TruncatedSpec, stream, size=None, out=None):
    """Exact one-sided truncated N(0, 1/d) draws via the inverse cdf.

    The conditioned uniform range is mapped through the standard normal
    quantile function (scipy.special, imported on the first call), so deep
    truncations cost the same as shallow ones and every draw satisfies the
    side constraint by construction.  out, a C-contiguous array of shape
    size, takes the draws and every step between, with the same bits.
    """
    import numpy as np
    from scipy.special import ndtr, ndtri

    gen = as_generator(stream)
    u = np.subtract(1.0, gen.random(size, out=out), out=out)  # in (0, 1], keeps the quantile finite
    if spec.side == "lower":
        z = np.negative(ndtri(np.multiply(u, ndtr(-spec.cutoff), out=out), out=out), out=out)
    else:
        z = ndtri(np.multiply(u, ndtr(spec.cutoff), out=out), out=out)
    z = np.divide(z, math.sqrt(spec.d), out=out)
    return float(z) if size is None else z


def truncated_mean(spec: TruncatedSpec) -> float:
    """Closed-form expectation of the one-sided truncated N(0, 1/d).

    lower: +phi(b) / ((1 - Phi(b)) sqrt(d));  upper: -phi(b) / (Phi(b) sqrt(d)).
    """
    b = spec.cutoff
    if math.isinf(b):
        # only the non-degenerate infinities reach here: no truncation
        return 0.0
    root_d = math.sqrt(spec.d)
    if spec.side == "lower":
        # 1 - Phi(b) as Phi(-b): exact by symmetry, no cancellation at large b
        return std_normal_pdf(b) / (std_normal_cdf(-b) * root_d)
    return -std_normal_pdf(b) / (std_normal_cdf(b) * root_d)
