"""A fixed unit of work that measures how fast the host runs right now.

It imports nothing but `time`, so a fresh interpreter can calibrate itself
before importing hallforge without loading any module hallforge needs.
"""

from time import process_time

# Seconds one chunk takes on a quiet 2-core Xeon with Python 3.11; the
# benchmark reports its timings at this reference speed.
CHUNK_REF_S = 0.0002

_A = {(i * 7919) & 4095: (i - 11) or 5 for i in range(30)}
_B = {(i * 104729) & 4095: 2 * i + 1 for i in range(30)}


class _Ratio:
    """An exact rational in lowest terms, with the Python-level method calls
    and gcd steps of fractions.Fraction (which hallforge uses)."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        a, b = n, d
        while b:
            a, b = b, a % b
        self.n, self.d = n // a, d // a

    def __add__(self, other):
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)

    def __mul__(self, other):
        return _Ratio(self.n * other.n, self.d * other.d)


def chunk():
    """The two inner loops of hallforge's kernels: a product of int-keyed
    sparse dicts with int coefficients (Poly.__mul__), and a sum of products
    of exact rationals (the q-series convolutions)."""
    out = {}
    for k2, c2 in _B.items():
        for k1, c1 in _A.items():
            k = k1 + k2
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]
    total = _Ratio(0, 1)
    for i in range(1, 40):
        total = total + _Ratio(i, i + 2) * _Ratio(2 * i + 1, 3 * i)
    return out, total


def calibrate(rounds):
    """Reference seconds per CPU second now, from `rounds` chunks."""
    start = process_time()
    for _ in range(rounds):
        chunk()
    return rounds * CHUNK_REF_S / (process_time() - start)
