"""Keyed, counter-based random streams, and the variates built on them.

A stream's key is the 8-byte BLAKE2b digest of the master seed and the
stream's parts (purpose, iteration, image id) joined by ``|``. Draw ``i`` of
the stream with key ``k`` is the ``(i + 1)``-th output of SplitMix64 seeded
with ``k`` (Steele, Lea and Flood, OOPSLA 2014): its output function at
``k + (i + 1) * gamma``. So every draw is computed on its own, and a whole
set of them is one ``uint64`` array expression over (key, index) pairs
(Salmon et al., SC 2011). A draw's uniform is its top 53 bits times 2**-53.

Each variate is one function of such uniforms. On arrays it uses only the
operations IEEE 754 rounds exactly (+, -, *, /, sqrt, floor, comparisons);
a logarithm or exponential is ``math``'s, one value at a time. So no bit
depends on numpy's version, its random module or its SIMD dispatch.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
# hashlib's blake2b without hashlib, which loads OpenSSL
from _blake2 import blake2b

__all__ = ["stream_keys", "uniforms", "draws", "normals", "normal_quantile", "poissons",
           "binomials", "integers"]

# SplitMix64's increment and the multipliers of its output function
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def stream_keys(seed: int, prefix: Sequence, ids: Iterable) -> np.ndarray:
    """The key of the stream ``(*prefix, id)`` under ``seed`` for each of
    ``ids``: the 8-byte BLAKE2b digest of the text of ``seed`` and the parts,
    joined by ``|``, read big-endian, as a ``uint64`` array."""
    head = blake2b("|".join(map(str, (seed, *prefix))).encode(), digest_size=8)
    digests = []
    for key in ids:
        h = head.copy()
        h.update(("|" + str(key)).encode())
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)


def uniforms(keys: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Draw ``index`` of the stream with key ``keys``, elementwise (the two
    broadcast together), as a uniform in [0, 1): a multiple of 2**-53."""
    # uint64 arrays wrap as SplitMix64 does, and Python ints act as uint64
    z = keys + (np.atleast_1d(np.asarray(index, dtype=np.uint64)) + 1) * _GAMMA
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    z ^= z >> 31
    return (z >> 11).astype(np.float64) * 2.0**-53


def draws(keys: np.ndarray, counts: np.ndarray, width: int, first: int = 0) -> np.ndarray:
    """Fixed slots of the streams ``keys``: ``counts[g]`` rows of ``width``
    uniforms from stream g, row j taking its draws ``first + width * j``
    onward; an ``(sum(counts), width)`` array, stream after stream."""
    counts = np.asarray(counts, dtype=np.intp)
    stream = np.repeat(np.arange(len(counts)), counts)
    row = np.arange(len(stream)) - np.repeat(np.cumsum(counts) - counts, counts)
    index = first + width * row[:, None] + np.arange(width)
    return uniforms(keys[stream][:, None], index)


# Wichura's AS 241 (Applied Statistics 37, 1988), PPND16: the coefficients of
# each rational function, highest power first, as numerator and denominator
_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _horner(coefs: tuple, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The numerator and denominator of the rational function ``coefs`` at
    ``r``, each by Horner's rule."""
    num, den = (np.full_like(r, c[0]) for c in coefs)
    for a, b in zip(*(c[1:] for c in coefs)):
        num = num * r + a
        den = den * r + b
    return num, den


def normal_quantile(q: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The standard normal quantile of ``p = 0.5 + q`` by AS 241, given
    ``q`` and ``tail = min(p, 1 - p)``, both exact; ``tail`` must be > 0.
    Within ``|q| <= 0.425`` it is a rational function of ``q``; past it, of
    ``sqrt(-log(tail))``, whose ``log`` is ``math.log``."""
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    num, den = _horner(_CENTRAL, 0.180625 - qc * qc)
    x[central] = num * qc / den
    far = ~central
    logs = np.fromiter(map(math.log, tail[far].tolist()), np.float64, int(far.sum()))
    r = np.sqrt(-logs)
    near = r <= 5.0
    t = np.empty_like(r)
    for rows, coefs, shift in ((near, _NEAR, 1.6), (~near, _FAR, 5.0)):
        num, den = _horner(coefs, r[rows] - shift)
        t[rows] = num / den
    x[far] = np.where(q[far] < 0.0, -t, t)
    return x


def normals(u: np.ndarray) -> np.ndarray:
    """Standard normals by inversion of uniforms ``u``: the quantile of the
    centre of each one's 2**-53 cell, ``p = u + 2**-54``, which is never 0
    or 1. ``q = p - 0.5`` and ``min(p, 1 - p) = 0.5 - |q|`` are exact, and
    ``u`` and ``1 - 2**-53 - u`` give normals of opposite sign."""
    q = (u - 0.5) + 2.0**-54
    return normal_quantile(q, 0.5 - np.abs(q))


def poissons(lam: float, u: np.ndarray) -> np.ndarray:
    """Poisson(``lam``) variates by inversion of uniforms ``u``: the least k
    whose distribution function exceeds u. The probabilities run down and up
    from the mode m, whose own is ``exp(m log lam - lam - lgamma(m + 1))``,
    until they fall below 2**-64, and are normalized by their sum, so a
    ``lam`` past ``exp(-lam)``'s underflow (about 745) is drawn as exactly as
    a small one. ``lam`` is at most 2**32, which keeps the table short."""
    if not 0.0 <= lam <= 2.0**32:
        raise ValueError(f"Poisson rate must be in [0, 2**32], got {lam}")
    if lam == 0.0:
        return np.zeros(len(u), dtype=np.intp)
    mode = math.floor(lam)
    # below[i] is the probability of mode - i, above[j] that of mode + j
    below = [math.exp(mode * math.log(lam) - lam - math.lgamma(mode + 1))]
    while len(below) <= mode and below[-1] >= 2.0**-64:
        below.append(below[-1] * (mode + 1 - len(below)) / lam)
    above = below[:1]
    while above[-1] >= 2.0**-64:
        above.append(above[-1] * lam / (mode + len(above)))
    cdf = np.cumsum(below[:0:-1] + above)
    return mode + 1 - len(below) + np.searchsorted(cdf / cdf[-1], u, side="right")


def binomials(keys: np.ndarray, n: int, p: float) -> np.ndarray:
    """Binomial(``n``, ``p``) per stream of ``keys``: how many of its draws
    0 .. n - 1 fall below ``p``, computed 65,536 draws at a time."""
    rows = max(1, 2**16 // max(n, 1))
    index = np.arange(n)
    blocks = [
        (uniforms(keys[start:start + rows, None], index) < p).sum(axis=1)
        for start in range(0, len(keys), rows)
    ]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.intp)


def integers(n, u: np.ndarray) -> np.ndarray:
    """Uniform integers in [0, n) from uniforms ``u``: ``floor(n * u)``. For
    an integer n below 2**53, ``n * u`` never rounds up to ``n``: it is at
    most ``n - n * 2**-53``, more than half a spacing of the floats below
    ``n``, or exact where n is a power of two."""
    return np.floor(n * u).astype(np.int64)
