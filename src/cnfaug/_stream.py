"""The one source of randomness: numpy ``Generator`` draws replayed from
PCG64's raw output, and the random clause drawn from them.

Every seeded draw in :mod:`cnfaug.gen`, :mod:`cnfaug.lpa` and
:mod:`cnfaug.laa` goes through a :class:`Stream` or, for a whole UR
instance, through :func:`random_clauses`.  For the calls it stands in for,
a stream on ``seed`` returns exactly the values of
``numpy.random.Generator(numpy.random.PCG64(seed))``, so outputs stay a pure
function of the seed and equal those of the numpy calls the generators and
transformations were written with; per call it skips numpy's dispatch and
array overhead.  A random clause is a sample of variables, one fair coin
each for its sign, sorted by variable (:meth:`Stream.clause`).  A UR
instance's bounds are fixed by its shape, so :func:`random_clauses` takes
all its clauses in one array pass (:func:`integer_rounds`); it draws them
through a stream instead when a draw lands in Lemire's rejection zone,
where numpy may draw again, or numpy samples by its tail shuffle.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

_RAW_BLOCK = 128
_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1
_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
# numpy scalars, so that uint64 arrays never meet a Python int (NumPy 1.x
# promotes a uint64 and int64 mix to float64)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


class Stream:
    """The draws of a PCG64 ``Generator`` for four of its calls, read from
    the bit generator's raw 64-bit outputs fetched ``_RAW_BLOCK`` at a time.

    numpy's bounded draws are Lemire's multiply-and-reject method (Lemire,
    "Fast Random Integer Generation in an Interval", ACM TOMACS 2019): on
    32-bit values for bounds up to ``2**32``, on whole raw outputs above.
    A 32-bit value is the held high half of the last raw output if there is
    one, else the low half of the next output, whose high half is then held.
    A double or a 64-bit value takes a whole raw output and leaves any held
    half in place.  The same calls in the same order give the same values as
    the ``Generator``.
    """

    __slots__ = ("_bits", "_raw", "_half")

    def __init__(self, seed: int) -> None:
        self._bits = np.random.PCG64(seed)
        self._raw: list[int] = []  # reversed, so pop() yields the next output
        self._half: int | None = None

    def _refill(self) -> list[int]:
        self._raw = self._bits.random_raw(_RAW_BLOCK).tolist()[::-1]
        return self._raw

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = (self._raw or self._refill()).pop()
        self._half = raw >> 32
        return raw & _MASK32

    def integers(self, bound: int) -> int:
        """``Generator.integers(bound)`` for ``1 <= bound <= 2**64``; a bound
        of 1 consumes nothing.  ``Generator.integers(lo, hi)`` is
        ``lo + integers(hi - lo)``."""
        if 1 < bound <= _TWO32:
            m = self._next32() * bound
            if m & _MASK32 < bound:
                threshold = _TWO32 % bound
                while m & _MASK32 < threshold:
                    m = self._next32() * bound
            return m >> 32
        if bound == 1:
            return 0
        if not 1 < bound <= _TWO64:
            raise ValueError(f"bound must lie in [1, 2**64], got {bound}")
        m = (self._raw or self._refill()).pop() * bound
        if m & _MASK64 < bound:
            threshold = _TWO64 % bound
            while m & _MASK64 < threshold:
                m = (self._raw or self._refill()).pop() * bound
        return m >> 64

    def random(self) -> float:
        """``Generator.random()``: the top 53 bits of one raw output."""
        return ((self._raw or self._refill()).pop() >> 11) * 2.0**-53

    def sample(self, n: int, k: int) -> list[int]:
        """``Generator.choice(n, k, replace=False)``.

        As numpy does, this runs Floyd's algorithm and then shuffles
        positions ``k-1 .. 1`` when ``n <= 10000 or k <= n // 50``.  Other
        shapes take the tail of a Fisher-Yates shuffle of ``range(n)``: for
        ``i`` from ``n-1`` down to ``max(n-k, 1)``, positions ``i`` and
        ``integers(i+1)`` swap, and the sample is positions ``n-k .. n-1``.
        Only swapped positions are stored, so both branches take O(k).
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n} without replacement")
        if not floyd_shape(n, k):
            moved: dict[int, int] = {}
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self.integers(i + 1)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(n - k, n)]
        chosen: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            v = self.integers(j + 1)
            if v in seen:
                v = j
            seen.add(v)
            chosen.append(v)
        for i in range(k - 1, 0, -1):
            j = self.integers(i + 1)
            chosen[i], chosen[j] = chosen[j], chosen[i]
        return chosen

    def clause(self, variables: Iterable[int]) -> tuple[int, ...]:
        """The clause on the distinct 0-based ``variables``, as ``sample``
        gives them: variable ``v`` is literal ``v + 1``, negated when its
        ``integers(2)`` coin, drawn in order, comes up 1; sorted by ``|lit|``,
        which is canonical for distinct variables."""
        return tuple(sorted([-v - 1 if self.integers(2) else v + 1 for v in variables], key=abs))

    @staticmethod
    def cdf(p: Iterable[float]) -> list[float]:
        """The cumulative table ``Generator.choice(len(p), p=p)`` builds: the
        running sums of ``p``, added in order as ``cumsum`` does, each
        divided by the last."""
        sums = list(accumulate(p))
        last = sums[-1]
        return [s / last for s in sums]

    def pick(self, cdf: list[float]) -> int:
        """``Generator.choice(len(p), p=p)`` for ``cdf == Stream.cdf(p)``."""
        return bisect_right(cdf, self.random())


def floyd_shape(n: int, k: int) -> bool:
    """Whether ``Generator.choice(n, k, replace=False)`` runs Floyd's
    algorithm rather than shuffling the tail of ``range(n)``."""
    return n <= 10000 or k <= n // 50


def integer_rounds(seed: int, bounds: Sequence[int], rounds: int) -> np.ndarray | None:
    """``Generator(PCG64(seed)).integers(b)`` for each ``b`` of ``bounds`` in
    turn, the whole sequence ``rounds`` times over, as a ``(rounds,
    len(bounds))`` int64 array; or ``None``.

    Bounds are positive.  A bound of 1 draws nothing and gives 0.  For
    bounds up to ``2**32`` every other draw takes the next 32-bit half of the
    raw output, low half first, all from one ``random_raw`` block, and is
    Lemire's ``(x * b) >> 32`` (see :class:`Stream`).  When the low 32 bits
    of some product ``x * b`` fall below ``b``, numpy may reject ``x`` and
    draw again; this then returns ``None`` without testing further, as it
    does for a bound above ``2**32``, and the caller draws through a
    :class:`Stream` instead.
    """
    if max(bounds, default=1) > _TWO32:
        return None
    columns = [i for i, b in enumerate(bounds) if b > 1]
    count = rounds * len(columns)
    raw = np.random.PCG64(seed).random_raw(-(-count // 2))
    # little-endian 32-bit halves of little-endian words: low, then high
    halves = raw.astype("<u8", copy=False).view("<u4")[:count].reshape(rounds, len(columns))
    limits = np.array([bounds[i] for i in columns], dtype=np.uint64)
    products = halves * limits
    if (products & _LOW32 < limits).any():
        return None
    out = np.zeros((rounds, len(bounds)), dtype=np.int64)
    out[:, columns] = products >> _SHIFT32
    return out


def random_clauses(n: int, m: int, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """The ``m`` clauses ``stream.clause(stream.sample(n, k))`` draws on
    ``stream = Stream(seed)``, from one :func:`integer_rounds` block when
    that can give them, else through the stream.

    Each clause is ``sample(n, k)`` by Floyd's algorithm, then ``k`` coins,
    so its bounds are the same ``3k - 1`` every time: Floyd's
    ``n-k+1 .. n``, the shuffle's ``k .. 2``, and ``2`` for each coin.  Floyd's
    duplicate rule, the swaps, the signs and the sort by ``|lit|`` then run
    over all clauses at once, in O(m k) memory and O(m k**2) comparisons.
    """
    drawn = None
    if floyd_shape(n, k):
        drawn = integer_rounds(seed, [*range(n - k + 1, n + 1), *range(k, 1, -1), *[2] * k], m)
    if drawn is None:
        stream = Stream(seed)
        return tuple(stream.clause(stream.sample(n, k)) for _ in range(m))
    chosen = drawn[:, :k]  # a view: Floyd's draws become the sample in place
    for t in range(1, k):
        seen = (chosen[:, :t] == chosen[:, t, None]).any(axis=1)
        chosen[seen, t] = n - k + t
    rows = np.arange(m)
    for i, j in zip(range(k - 1, 0, -1), drawn[:, k:2 * k - 1].T):
        chosen[rows, i], chosen[rows, j] = chosen[rows, j], chosen[rows, i]
    # variables are distinct within a clause, so sorting 2 * variable + coin
    # sorts the literals by |lit| and keeps each coin with its variable
    keys = np.sort(2 * chosen + drawn[:, 2 * k - 1:], axis=1)
    variables = keys >> 1
    literals = np.where(keys & 1, ~variables, variables + 1)
    return tuple(map(tuple, literals.tolist()))
