"""The keyed streams and their variates, against published values, the
scalar oracle and the distributions they draw from."""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np
import pytest

from boxrefine.noise import _survivors
from boxrefine.streams import (
    binomials,
    integers,
    normal_quantile,
    normals,
    poissons,
    stream_keys,
    uniforms,
)

from oracles import StreamRef, keyed_uniforms_ref, normal_quantile_ref, splitmix64_ref

# 200,000 uniforms of one stream, with both ends of the range added
U = np.concatenate((uniforms(stream_keys(2026, ("test",), ["u"]), np.arange(200_000)),
                    [0.0, 0.5, 1.0 - 2.0**-53]))


def test_splitmix64_known_answers():
    # SplitMix64's published first outputs for seed 0
    outputs = list(itertools.islice(splitmix64_ref(0), 3))
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = uniforms(np.zeros(1, np.uint64), np.arange(3))
    assert got.tolist() == [(x >> 11) * 2.0**-53 for x in outputs]


def test_uniforms_are_53_bit_and_uniform():
    u = U[:-3]
    assert ((0.0 <= u) & (u < 1.0)).all()
    assert (u * 2.0**53 == np.floor(u * 2.0**53)).all()
    assert abs(u.mean() - 0.5) < 0.005
    assert np.histogram(u, bins=10, range=(0.0, 1.0))[0].min() > 19_000


@pytest.mark.parametrize(
    "p, want",
    # Phi^-1(p) to 20 digits (mpmath); p = 1e-20 reaches the far-tail branch
    [(0.975, 1.9599639845400542355), (0.025, -1.9599639845400542355), (0.5, 0.0),
     (0.07, -1.4757910281791707352), (1e-10, -6.3613409024040562047),
     (1e-20, -9.2623400897984075737)],
)
def test_as241_at_published_points(p, want):
    q, tail = np.array([p - 0.5]), np.array([min(p, 1.0 - p)])
    (got,) = normal_quantile(q, tail).tolist()
    assert got == pytest.approx(want, rel=1e-15, abs=1e-16)
    assert got == normal_quantile_ref(q[0], tail[0])
    assert got == pytest.approx(statistics.NormalDist().inv_cdf(p), rel=1e-15, abs=1e-16)
    # the mirror point 1 - p, given exactly as (-q, tail)
    assert normal_quantile(-q, tail).tolist() == [-got]


def test_normals_equal_scalar_oracle_and_are_symmetric():
    z = normals(U)
    oracle = StreamRef(U.tolist())
    assert z.tolist() == [oracle.normal() for _ in range(len(U))]
    # u and 1 - 2**-53 - u are mirror images
    assert (normals(1.0 - 2.0**-53 - U) == -z).all()
    assert np.isfinite(z).all() and z[-3] == -z[-1] < -8.0


def test_normal_moments_and_quantiles():
    z = normals(U[:-3])
    assert abs(z.mean()) < 0.015
    assert abs(z.var() - 1.0) < 0.02
    lo, mid, hi = np.quantile(z, [0.025, 0.5, 0.975])
    assert abs(lo + 1.96) < 0.03 and abs(mid) < 0.015 and abs(hi - 1.96) < 0.03


@pytest.mark.parametrize("lam", [0.1, 1.0, 3.5, 30.0])
def test_poisson_equals_scalar_inversion(lam):
    u = U[:5000]
    oracle = StreamRef(u.tolist())
    assert poissons(lam, u).tolist() == [oracle.poisson(lam) for _ in range(len(u))]


@pytest.mark.parametrize("lam", [0.1, 1.0, 3.5, 30.0, 1000.0, 1e5])
def test_poisson_mean_and_variance(lam):
    # past about 745, exp(-lam) underflows to 0: inversion from 0 would
    # always return its last k
    k = poissons(lam, U[:-3])
    n = len(k)
    assert abs(k.mean() - lam) < 6.0 * math.sqrt(lam / n)
    assert abs(k.var() / lam - 1.0) < 0.03
    assert k.dtype.kind == "i" and k.min() >= 0


def test_poisson_edges():
    assert poissons(0.0, U).tolist() == [0] * len(U)
    assert poissons(2.0, np.zeros(0)).shape == (0,)
    for lam in (-1.0, float("nan"), float("inf"), 2.0**33):
        with pytest.raises(ValueError, match="Poisson rate"):
            poissons(lam, U)


def test_binomials_are_counts_of_comparisons():
    keys = stream_keys(7, ("binomial",), range(20_000))
    k = binomials(keys, 10, 0.5)
    assert abs(k.mean() - 5.0) < 0.05 and abs(k.var() - 2.5) < 0.15
    # the first streams, draw by draw; 2**16 // 10 streams go in a block, so
    # the streams here span two blocks
    for key, got in zip(keys[6550:6560].tolist(), k[6550:6560].tolist()):
        assert got == StreamRef(keyed_uniforms_ref(key)).binomial(10, 0.5)
    assert binomials(keys, 0, 0.5).tolist() == [0] * len(keys)
    assert binomials(keys[:50], 10, 0.0).tolist() == [0] * 50
    assert binomials(keys[:50], 10, 1.0).tolist() == [10] * 50
    assert binomials(keys[:0], 10, 0.5).shape == (0,)


def test_integers_are_uniform_and_in_range():
    k = integers(7, U[:-3])
    counts = np.bincount(k, minlength=7)
    assert len(counts) == 7 and (np.abs(counts - len(k) / 7) < 5 * math.sqrt(len(k) / 7)).all()
    oracle = StreamRef(U.tolist())
    assert integers(7, U).tolist() == [oracle.integers(0, 7) for _ in range(len(U))]
    # the largest uniform stays below n, powers of two included
    top = 1.0 - 2.0**-53
    n = np.array([1, 2, 3, 5, 7, 1000, 1024, 10_000, 2**40 + 1, 2**52 + 3])
    assert (integers(n, np.full(len(n), top)) == n - 1).all()


def test_choice_without_replacement_is_uniform():
    # removing 3 of 10 rows: every row equally likely to go, and a sample of
    # 3 from its 10
    removed = np.zeros(10)
    keys = stream_keys(11, ("choice",), range(20_000))
    for key in keys:
        kept = _survivors(uniforms(key, np.arange(10)), 0.3)
        assert len(kept) == 7 and (np.diff(kept) > 0).all()
        removed[np.setdiff1d(np.arange(10), kept)] += 1
    share = removed / len(keys)
    assert (np.abs(share - 0.3) < 5 * math.sqrt(0.3 * 0.7 / len(keys))).all()
    # ties go to the earlier row
    assert _survivors(np.array([0.5, 0.5, 0.5, 0.1]), 0.5).tolist() == [1, 2]
