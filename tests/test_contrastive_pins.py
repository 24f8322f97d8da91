"""Pinned bits of ``cosine_sim`` and ``nt_xent`` on rows whose norm leaves
[2**-500, 2**500], so that a change to the rescale that moves a bit fails.

Every entry is a small dyadic number times a power of ten, and each row's
largest magnitude is that power of ten times a power of two.  Divided by it,
every row is exact, and so is every product and sum up to the final square
roots, divisions, ``exp`` and ``log``.  The pins therefore do not depend on
BLAS kernels or summation order.
"""

import numpy as np
import pytest

from cnfaug import cosine_sim, nt_xent

DYADIC = np.array([0.5, -0.25, 1.0, 0.75])
OTHER = np.array([4.0, 1.0, -2.0, 0.5])

# rows 2k and 2k+1 point the same way or are orthogonal, so every cosine is
# 0 or 1 exactly
AXES = np.array([[2.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, -1.0, 0.0],
                 [0.0, 0.0, 4.0], [0.0, 0.0, -0.25], [0.0, 3.0, 0.0]])
MIXED = np.array([[1e-300], [1.0], [1e300], [1e-170], [1.0], [1e300]])

NT_XENT = {0.1: "0x1.d9392cc83fd1dp-1", 0.5: "0x1.1731564a2d469p+0"}


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (DYADIC * 1e-300, OTHER, "0x1.44739893955d0p-6"),
        (OTHER, DYADIC * 1e-170, "0x1.44739893955d0p-6"),
        (DYADIC * 1e300, OTHER, "0x1.44739893955d0p-6"),
        (DYADIC * 1e-300, OTHER * 1e300, "0x1.44739893955d0p-6"),
        # a 2-D array, whose ravel() is a view of it
        ((DYADIC * 1e300).reshape(2, 2), OTHER[::-1], "0x1.8149452f415e7p-1"),
    ],
    ids=["1e-300", "1e-170", "1e300", "both", "view"],
)
def test_cosine_sim_bits_where_the_rescale_runs(a, b, expected):
    a_before, b_before = a.copy(), b.copy()
    assert cosine_sim(a, b).hex() == expected
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


@pytest.mark.parametrize("temperature", sorted(NT_XENT))
@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e300, MIXED], ids=["1e-300", "1e-170", "1e300", "mixed"])
def test_nt_xent_bits_where_the_rescale_runs(scale, temperature):
    batch = AXES * scale
    before = batch.copy()
    assert nt_xent(batch, temperature).hex() == NT_XENT[temperature]
    assert np.array_equal(batch, before)
