"""Deterministic, parallel-safe random streams, and the draws taken from
them.

Every stochastic routine derives its generator from (seed, *path) where
the path names the protocol and batch index.  The same path always yields
the same stream, so results are bit-identical regardless of how batches
are distributed over workers.

Every draw is one `Generator.random` double per value (one 64-bit Philox
word, `(word >> 11) * 2^-53`) turned into its distribution by a written
transform below.  numpy promises to keep a bit generator's raw words, not
the streams of its `Generator` methods (NEP 19), so a seed's draws depend
on the Philox words plus numpy's `log1p` and `tan` (and `sqrt` for the
Gaussian).  A
block of draws of any size takes exactly its size in words, so draws cut
into blocks equal one whole call.
"""
from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; good avalanche for sequential keys.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _fold(seed: int, *path) -> int:
    key = _splitmix64(seed & _MASK64)
    for part in path:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                key = _splitmix64(key ^ b)
        else:
            key = _splitmix64(key ^ (int(part) & _MASK64))
    return key


def substream(seed: int, *path) -> np.random.Generator:
    """Generator keyed by (seed, *path); path parts are ints or strings."""
    return np.random.Generator(np.random.Philox(key=_fold(seed, *path)))


def derive_seed(seed: int, *path) -> int:
    """A decorrelated child seed for sweeps that run many protocols."""
    return _fold(seed, *path)


def exponential(rng, scale, size) -> np.ndarray:
    """Exponential delays of mean `scale`: -scale log1p(-u).  The largest
    is about 36.7 scales (u = 1 - 2^-53), so a tail of about 1e-16 is
    cut."""
    x = rng.random(size)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= -scale
    return x


def lorentzian(rng, width, size) -> np.ndarray:
    """Cauchy (Lorentzian) values of half width `width`: width tan(pi (u -
    1/2)), finite at u = 0."""
    x = rng.random(size)
    x -= 0.5
    x *= math.pi
    np.tan(x, out=x)
    x *= width
    return x


def gaussian(rng, sigma, size) -> np.ndarray:
    """Normal values of standard deviation `sigma` by Box & Muller (1958),
    one word each: the first ceil(n/2) words give the radii
    sqrt(-2 log1p(-u)), the rest the angles 2 pi v, whose cosine and sine
    come from the half-angle tangent t = tan(pi v) as (1 - t^2)/(1 + t^2)
    and 2t/(1 + t^2), which stay finite at v = 1/2.  The cosines fill the
    first half of the values, the sines the rest."""
    n = math.prod(size) if isinstance(size, tuple) else size
    m = (n + 1) // 2
    u = rng.random(2 * m)
    r, t = u[:m], u[m:]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    r *= sigma
    t *= math.pi
    np.tan(t, out=t)
    c = np.square(t)
    c += 1.0
    np.divide(r, c, out=c)
    c *= 2.0                  # 2 r cos^2(pi v) = r (1 + cos 2 pi v)
    t *= c                    # r sin 2 pi v
    np.subtract(c, r, out=r)  # r cos 2 pi v
    return u[:n].reshape(size)


def channels(rng, nch, size) -> np.ndarray:
    """Uniform channel indices in [0, nch) as uint8: floor(u nch)."""
    x = rng.random(size)
    x *= nch
    return x.astype(np.uint8)
