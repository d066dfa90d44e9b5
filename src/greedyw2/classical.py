"""Classical comparison sequences: van der Corput, Kronecker, seeded uniform."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .numeric import ConfigError, DomainError

__all__ = [
    "GOLDEN_RATIO",
    "kronecker",
    "uniform_stream",
    "van_der_corput",
]

#: Default Kronecker rotation number (1 + sqrt 5) / 2.
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def van_der_corput(k: int) -> Fraction:
    """k-th base-2 radical inverse (1-indexed), as an exact dyadic rational.

    Reflects the binary digits of k about the point: 1 -> 1/2, 2 -> 1/4,
    3 -> 3/4, 6 -> 3/8.
    """
    if k < 1:
        raise DomainError(f"index must be >= 1, got {k}")
    num, den = 0, 1
    while k:
        num = 2 * num + (k & 1)
        den *= 2
        k >>= 1
    return Fraction(num, den)


def kronecker(k: int, alpha: float = GOLDEN_RATIO) -> float:
    """k-th point of the rotation sequence frac(k * alpha), 1-indexed.

    Raises ConfigError unless alpha > 0, and DomainError when k * alpha
    overflows to infinity.
    """
    if k < 1:
        raise DomainError(f"index must be >= 1, got {k}")
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    turn = k * alpha
    if not math.isfinite(turn):
        raise DomainError(f"k * alpha is not finite for k = {k}, alpha = {alpha}")
    return math.fmod(turn, 1.0)


def uniform_stream(count: int, seed: int = 0, generator: str = "pcg64") -> list[float]:
    """``count`` pseudo-uniform draws from a named, stable generator.

    The same (generator, seed) pair reproduces the same stream forever; a
    negative seed and an unknown generator identifier are configuration
    errors.
    """
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if generator == "pcg64":
        rng = np.random.Generator(np.random.PCG64(seed))
        return [float(x) for x in rng.random(count)]
    if generator == "mt19937":
        rng = random.Random(seed)
        return [rng.random() for _ in range(count)]
    raise ConfigError(f"unknown generator {generator!r}; expected 'pcg64' or 'mt19937'")
