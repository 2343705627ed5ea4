"""Sparse multivariate polynomials with exact rational coefficients.

This is the computational core: polynomials live in a fixed ordered tuple of
abstract variables (index 0..n-1).  Monomials are packed into single integers
(SHIFT bits per variable), so monomial multiplication is integer addition;
coefficients are Python ints wherever possible and fractions.Fraction
otherwise.  No floating point anywhere.

Products of factors are expanded by `expand_factors`, one pass over the
terms per factor term.
Pushes along flags are not polynomial operations here: they straighten
packed monomials into Schur coordinates (`symfun`).  The exact divisions
`divexact_linear`/`divexact_mono` remain as test oracles; an inexact
division raises.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExponentOverflowError, HallforgeError, InexactCoefficientError, InexactDivisionError
from .quiver import MAX_POLY_PAIRS, MAX_PUSH_WORK

SHIFT = 10
MASK = (1 << SHIFT) - 1
MAXDEG = MASK


def _num(c):
    """Normalize a coefficient: plain int when integral, Fraction otherwise.
    A float is refused, not read as its binary fraction."""
    if isinstance(c, int):
        return c
    if isinstance(c, float):
        raise InexactCoefficientError("coefficient %r is a float; pass an int, a Fraction or a string" % (c,))
    c = Fraction(c)
    if c.denominator == 1:
        return c.numerator
    return c


def unpack_exponents(key, n):
    return tuple((key >> (SHIFT * i)) & MASK for i in range(n))


def _var_maxima(terms, n):
    """Largest exponent of each of the n variables over the packed terms."""
    top = [0] * n
    for k in terms:
        i = 0
        while k:
            if k & MASK > top[i]:
                top[i] = k & MASK
            k >>= SHIFT
            i += 1
    return top


def mul_bound(n, a, abound, b, bbound):
    """The exponent bound of the product of the term dicts a and b in n
    variables, bounded by abound and bbound: their sum, or, when that
    passes MAXDEG (the bounds are loose when the factors share few
    variables), the largest per-variable sum of their exponents; raises
    ExponentOverflowError when that passes MAXDEG too."""
    bound = abound + bbound
    if bound > MAXDEG:
        bound = max(map(sum, zip(_var_maxima(a, n), _var_maxima(b, n))), default=0)
        if bound > MAXDEG:
            raise ExponentOverflowError("packed exponent range exceeded in product")
    return bound


def _check_pairs(pairs):
    if pairs > MAX_POLY_PAIRS:
        raise HallforgeError("a polynomial product of %d term pairs exceeds the work cap of %d" % (pairs, MAX_POLY_PAIRS))


def check_push_work(terms, per_term):
    """Refuse to straighten `terms` terms at `per_term` work each, at least
    1, when the product passes MAX_PUSH_WORK (see its charge points there)."""
    per_term = max(1, per_term)
    if terms * per_term > MAX_PUSH_WORK:
        raise HallforgeError(
            "straightening %d terms at a work of %d each exceeds the work cap of %d" % (terms, per_term, MAX_PUSH_WORK)
        )


def _mul_terms(small, big):
    """The terms of a product: small the (key, coeff) pairs of one factor,
    big the term dict of the other, walked once per pair; zero sums are
    dropped."""
    out = {}
    for k2, c2 in small:
        for k1, c1 in big.items():
            k = k1 + k2
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def expand_factors(n, consts, factors):
    """The polynomials in n variables consts[i] times the factors (i,
    terms, step) with that i, in order: terms the packed (key, coeff) terms
    of c x_a^step + ..., multiplied in by one `_mul_terms` pass each.  Each
    factor is charged against MAX_POLY_PAIRS before it is formed, and the
    exponent bound grows by step, or by `mul_bound` past MAXDEG."""
    out = [({0: c}, 0) for c in consts]
    for i, factor, step in factors:
        terms, bound = out[i]
        _check_pairs(len(terms) * len(factor))
        bound += step
        if bound > MAXDEG:
            bound = mul_bound(n, terms, bound - step, dict(factor), step)
        out[i] = _mul_terms(factor, terms), bound
    return [Poly(n, terms, bound) for terms, bound in out]


def key_degree(key):
    deg = 0
    while key:
        deg += key & MASK
        key >>= SHIFT
    return deg


class Poly:
    """Polynomial in n ordered variables; terms maps packed exponents to
    nonzero coefficients.  `bound` conservatively dominates every single
    variable's exponent, guarding the packed representation."""

    __slots__ = ("n", "terms", "bound")

    def __init__(self, n, terms=None, bound=None):
        self.n = n
        self.terms = terms if terms is not None else {}
        if bound is None:
            bound = 0
            for k in self.terms:
                for e in unpack_exponents(k, n):
                    if e > bound:
                        bound = e
        self.bound = bound

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {}, 0)

    @classmethod
    def const(cls, n, c):
        c = _num(c)
        return cls(n, {0: c} if c else {}, 0)

    @classmethod
    def variable(cls, n, i, exp=1):
        if exp > MAXDEG:
            raise ExponentOverflowError("exponent %d out of packed range" % exp)
        return cls(n, {exp << (SHIFT * i): 1}, exp)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.n, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return Poly(self.n, out, max(self.bound, other.bound))

    def __neg__(self):
        return Poly(self.n, {k: -c for k, c in self.terms.items()}, self.bound)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        bound = mul_bound(self.n, self.terms, self.bound, other.terms, other.bound)
        small, big = sorted((self.terms, other.terms), key=len)
        _check_pairs(len(small) * len(big))
        return Poly(self.n, _mul_terms(small.items(), big), bound)

    __rmul__ = __mul__

    def scale(self, c):
        c = _num(c)
        if not c:
            return Poly(self.n, {}, 0)
        if c == 1:
            return self
        return Poly(self.n, {k: v * c for k, v in self.terms.items()}, self.bound)

    # -- division -----------------------------------------------------------

    def divexact_mono(self, a, exp=1):
        """Exact division by x_a**exp."""
        sh = SHIFT * a
        ka = exp << sh
        out = {}
        for k, c in self.terms.items():
            if (k >> sh) & MASK < exp:
                raise InexactDivisionError("monomial division left remainder")
            out[k - ka] = c
        return Poly(self.n, out, self.bound)

    def divexact_linear(self, ca, a, cb=None, b=None):
        """Exact division by ca*x_a (+ cb*x_b); raises on remainder."""
        if b is None or b == a:
            if b == a:
                ca = _num(ca) + _num(cb)
                if not ca:
                    raise ZeroDivisionError("zero divisor")
            out = self.divexact_mono(a)
            return out.scale(Fraction(1, 1) / _num(ca))
        ca, cb = _num(ca), _num(cb)
        sha, shb = SHIFT * a, SHIFT * b
        ka, kb = 1 << sha, 1 << shb
        rem = dict(self.terms)
        quo = {}
        while rem:
            m = max((k >> sha) & MASK for k in rem)
            if m == 0:
                raise InexactDivisionError("linear division left remainder")
            lead = [(k, c) for k, c in rem.items() if (k >> sha) & MASK == m]
            for k, c in lead:
                qk = k - ka
                qc = c if ca == 1 else (-c if ca == -1 else Fraction(c, ca) if isinstance(c, int) else c / ca)
                qc = _num(qc)
                v = quo.get(qk, 0) + qc
                if v:
                    quo[qk] = v
                else:
                    del quo[qk]
                del rem[k]
                kk = qk + kb
                v = rem.get(kk, 0) - qc * cb
                if v:
                    rem[kk] = v
                else:
                    rem.pop(kk, None)
        return Poly(self.n, quo, self.bound)

    # -- structure ----------------------------------------------------------

    def degree(self):
        """Total degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(key_degree(k) for k in self.terms)

    def is_homogeneous(self):
        degs = {key_degree(k) for k in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self):
        comps = {}
        for k, c in self.terms.items():
            comps.setdefault(key_degree(k), {})[k] = c
        return {d: Poly(self.n, t, self.bound) for d, t in sorted(comps.items())}

    # -- variable maps ------------------------------------------------------

    def map_variables(self, n_new, mapping):
        """Image under x_i -> c_i * y_{j_i} (or 0 when mapping[i] is None).

        mapping is a sequence with entries (c, j) or None, one per variable.
        """
        out = {}
        shifts = [SHIFT * m[1] if m is not None else 0 for m in mapping]
        for k, c in self.terms.items():
            coeff = c
            key = 0
            dead = False
            kk = k
            i = 0
            while kk:
                e = kk & MASK
                if e:
                    m = mapping[i]
                    if m is None:
                        dead = True
                        break
                    ci = m[0]
                    if ci == -1:
                        if e & 1:
                            coeff = -coeff
                    elif ci != 1:
                        coeff = coeff * _num(ci) ** e
                    key += e << shifts[i]
                kk >>= SHIFT
                i += 1
            if dead:
                continue
            v = out.get(key, 0) + coeff
            if v:
                out[key] = v
            else:
                del out[key]
        return Poly(n_new, out, self.bound)

    def sorted_terms(self):
        """Deterministic term order: graded lexicographic on exponent tuples."""
        decorated = [
            (key_degree(k), unpack_exponents(k, self.n), c) for k, c in self.terms.items()
        ]
        decorated.sort(key=lambda t: (t[0], t[1]))
        return [(exps, c) for _, exps, c in decorated]

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                "x%d^%d" % (i, e) if e > 1 else "x%d" % i for i, e in enumerate(exps) if e
            )
            bits.append("%s*%s" % (c, mono) if mono else str(c))
        return "Poly(" + " + ".join(bits) + ")"
