"""Reference implementations that only the tests use.

Not collected by pytest (no test_ prefix); the test modules import it from
their own directory.
"""

from hallforge.coha import generator_complement
from hallforge.errors import HallforgeError
from hallforge.linalg import Echelon
from hallforge.poly import Poly
from hallforge.series import TORUS


def _distinct_permutations(items):
    """Distinct permutations of a sorted list, in lexicographic order."""
    items = sorted(items)
    out = []

    def rec(remaining, prefix):
        if not remaining:
            out.append(tuple(prefix))
            return
        seen = set()
        for i, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            rec(remaining[:i] + remaining[i + 1 :], prefix + [v])

    rec(items, [])
    return out


def monomial_sym(lam, n, offset=0, ring_n=None):
    """Monomial symmetric polynomial m_lam: sum of distinct permutations."""
    ring_n = n if ring_n is None else ring_n
    lam = tuple(x for x in lam if x)
    if len(lam) > n:
        raise HallforgeError("partition length %d exceeds %d variables" % (len(lam), n))
    padded = list(lam) + [0] * (n - len(lam))
    terms = {}
    for perm in _distinct_permutations(padded):
        key = [0] * ring_n
        for j, e in enumerate(perm):
            key[offset + j] = e
        terms[tuple(key)] = 1
    return Poly.from_exponents(ring_n, terms)


def char_mul(a, b):
    """Torus product a * b in the character normalization: the twist enters
    as (-q^(1/2))^(chi(d'',d') - chi(d',d'')), matching graded dimensions of
    the twisted tensor product.  Coincides with `QSeries.torus_mul` when chi
    is symmetric."""
    a._check_compat(b)
    q = a.quiver
    add = lambda d1, d2: tuple(x + y for x, y in zip(d1, d2))
    tw = lambda d1, d2: q.euler_form(d2, d1) - q.euler_form(d1, d2)
    return a._convolve(b, TORUS, add, tw, signed=True)


def full_image_echelon(quiver, pairs, slice_basis, form, act, k):
    """`coha.image_echelon` without its stop rule: every product of every
    pair, even after the echelon spans the slice."""
    ech = Echelon()
    for a, rest in pairs:
        for k1 in range(quiver.euler_form(a, a), k - form(quiver, rest) + 1):
            gens = generator_complement(quiver, a, k1)
            if not gens:
                continue
            for b in slice_basis(quiver, rest, k - k1):
                for c in gens:
                    ech.add(act(c, b).poly.terms)
    return ech


def full_complement(ech, elements):
    """`linalg.complement` without its shortcut for a full echelon."""
    return [x for x in elements if ech.add(x.poly.terms)]
