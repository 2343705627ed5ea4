"""Truncated Lambda-graded Laurent series in q^(1/2).

A QSeries stores coefficients c[(d, k)] where d is a dimension-vector class
and k the integer power of q^(1/2).  Each class carries validity metadata
(suppmin, hi): every weight k <= hi is known exactly (stored or zero), hi =
None meaning the class is exact; suppmin is a proven lower bound for the
support, used to propagate windows through products.  Coefficients follow
the `poly` convention: plain ints wherever they are integral by
construction (Pochhammer factors, DT series, their products, inverses and
powers), fractions.Fraction only where a division makes one (the 1/j of
`log`, the m/n echoes of the factorization inversion).  Nothing is ever
floated; the public rendering follows the (-q^(1/2))^k convention.

Torus series multiply with the twist q^((chi(d,d') - chi(d',d))/2); module
series are acted on via t^d * xi^e = q^(gamma(d,e)/2) xi^(H(d)+e).  Numerical
factorization identities use the plain commutative product `cmul`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GradingError, KindMismatchError, NonIntegralError
from .poly import _num

TORUS = "torus"
MODULE = "module"


def sign_pow(k):
    """(-1)**k as an exact int for any integer k."""
    return -1 if k % 2 else 1


def _min_hi(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_hi(a, b):
    if a is None or b is None:
        return None
    return a + b


class QSeries:
    """Truncated series; immutable by convention."""

    __slots__ = ("quiver", "kind", "maxdim", "terms", "meta")

    def __init__(self, quiver, kind, maxdim, terms=None, meta=None):
        if kind not in (TORUS, MODULE):
            raise KindMismatchError("unknown series kind %r" % kind)
        self.quiver = quiver
        self.kind = kind
        self.maxdim = maxdim
        self.terms = terms if terms is not None else {}
        self.meta = meta if meta is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, quiver, kind, maxdim):
        zero = quiver.zero()
        return cls(quiver, kind, maxdim, {(zero, 0): 1}, {zero: (0, None)})

    @classmethod
    def monomial(cls, quiver, kind, maxdim, dvec, k, coeff=1):
        dvec = tuple(dvec)
        if kind == MODULE:
            quiver.check_selfdual_dim(dvec)
        return cls(
            quiver, kind, maxdim, {(dvec, k): _num(coeff)}, {dvec: (k, None)}
        )

    # -- metadata -----------------------------------------------------------

    def hi(self, dvec):
        m = self.meta.get(tuple(dvec))
        return None if m is None else m[1]

    def suppmin(self, dvec):
        m = self.meta.get(tuple(dvec))
        return None if m is None else m[0]

    def classes(self):
        return sorted(self.meta, key=lambda d: (sum(d), d))

    def coefficient(self, dvec, k):
        return self.terms.get((tuple(dvec), k), 0)

    def class_laurent(self, dvec):
        """Laurent dict {k: coeff} of one class (within its validity)."""
        dvec = tuple(dvec)
        return {k: c for (d, k), c in self.terms.items() if d == dvec}

    def by_class(self):
        """{class: Laurent dict} of every class with a stored term, in one scan."""
        out = {}
        for (d, k), c in self.terms.items():
            out.setdefault(d, {})[k] = c
        return out

    def _check_compat(self, other, same_kind=True):
        if self.quiver is not other.quiver and self.quiver != other.quiver:
            raise KindMismatchError("series over different quivers")
        if same_kind and self.kind != other.kind:
            raise KindMismatchError("mixed series kinds %r / %r" % (self.kind, other.kind))

    # -- linear structure ----------------------------------------------------

    def scale(self, c):
        c = _num(c)
        if not c:
            return QSeries(self.quiver, self.kind, self.maxdim, {}, dict(self.meta))
        return QSeries(
            self.quiver, self.kind, self.maxdim,
            {key: v * c for key, v in self.terms.items()}, dict(self.meta),
        )

    def __add__(self, other):
        self._check_compat(other)
        maxdim = min(self.maxdim, other.maxdim)
        meta = {}
        for src in (self.meta, other.meta):
            for d, (lo, hi) in src.items():
                if d in meta:
                    lo0, hi0 = meta[d]
                    meta[d] = (min(lo0, lo), _min_hi(hi0, hi))
                else:
                    meta[d] = (lo, hi)
        terms = {}
        for src in (self.terms, other.terms):
            for key, c in src.items():
                v = terms.get(key, 0) + c
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        out = {}
        for (d, k), c in terms.items():
            hi = meta[d][1]
            if sum(d) <= maxdim and (hi is None or k <= hi):
                out[(d, k)] = c
        return QSeries(self.quiver, self.kind, maxdim, out, meta)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    # -- products ------------------------------------------------------------

    def _convolve(self, other, out_kind, class_fn, twist_fn, signed=False):
        maxdim = min(self.maxdim, other.maxdim)
        meta = {}
        pair_tw = {}
        for d1, (lo1, hi1) in self.meta.items():
            for d2, (lo2, hi2) in other.meta.items():
                d = class_fn(d1, d2)
                if sum(d) > maxdim:
                    continue
                tw = twist_fn(d1, d2)
                pair_tw[(d1, d2)] = tw
                lo = lo1 + lo2 + tw
                hi = _min_hi(_add_hi(hi1, lo2), _add_hi(lo1, hi2))
                if hi is not None:
                    hi += tw
                if d in meta:
                    lo0, hi0 = meta[d]
                    meta[d] = (min(lo0, lo), _min_hi(hi0, hi))
                else:
                    meta[d] = (lo, hi)
        by_class_a, by_class_b = {}, {}
        for (d, k), c in self.terms.items():
            by_class_a.setdefault(d, []).append((k, c))
        for (d, k), c in other.terms.items():
            by_class_b.setdefault(d, []).append((k, c))
        terms = {}
        for (d1, d2), tw in pair_tw.items():
            ta = by_class_a.get(d1)
            tb = by_class_b.get(d2)
            if not ta or not tb:
                continue
            d = class_fn(d1, d2)
            hi = meta[d][1]
            sgn = sign_pow(tw) if signed else 1
            for k1, c1 in ta:
                for k2, c2 in tb:
                    k = k1 + k2 + tw
                    if hi is not None and k > hi:
                        continue
                    key = (d, k)
                    v = terms.get(key, 0) + sgn * c1 * c2
                    if v:
                        terms[key] = v
                    else:
                        del terms[key]
        return QSeries(self.quiver, out_kind, maxdim, terms, meta)

    def cmul(self, other):
        """Plain commutative product (numerical series identities)."""
        self._check_compat(other)
        add = lambda d1, d2: tuple(a + b for a, b in zip(d1, d2))
        return self._convolve(other, self.kind, add, lambda d1, d2: 0)

    def torus_mul(self, other):
        """Quantum torus product with twist chi(d,d') - chi(d',d)."""
        self._check_compat(other)
        if self.kind != TORUS:
            raise KindMismatchError("torus_mul needs torus series")
        q = self.quiver
        add = lambda d1, d2: tuple(a + b for a, b in zip(d1, d2))
        tw = lambda d1, d2: q.euler_form(d1, d2) - q.euler_form(d2, d1)
        return self._convolve(other, TORUS, add, tw)

    def module_star(self, x):
        """Action of a torus series on a module series."""
        self._check_compat(x, same_kind=False)
        if self.kind != TORUS or x.kind != MODULE:
            raise KindMismatchError("module_star needs torus * module")
        q = self.quiver
        cls = lambda d1, e2: tuple(a + b for a, b in zip(q.hyperbolic(d1), e2))
        tw = lambda d1, e2: q.star_twist(d1, e2)
        return self._convolve(x, MODULE, cls, tw)

    def char_star(self, x):
        """Module action in the character normalization: twist
        (-q^(1/2))^(-gamma(d,e)).  Coincides with module_star for
        sigma-symmetric quivers."""
        self._check_compat(x, same_kind=False)
        q = self.quiver
        cls = lambda d1, e2: tuple(a + b for a, b in zip(q.hyperbolic(d1), e2))
        tw = lambda d1, e2: -q.star_twist(d1, e2)
        return self._convolve(x, MODULE, cls, tw, signed=True)

    def power(self, n):
        if n < 0:
            return self.inverse().power(-n)
        out = QSeries.one(self.quiver, self.kind, self.maxdim)
        base = self
        while n:
            if n & 1:
                out = out.cmul(base)
            n >>= 1
            if n:
                base = base.cmul(base)
        return out

    def _nilpotent_part(self, op):
        zero = self.quiver.zero()
        const = self.class_laurent(zero)
        if const != {0: 1}:
            raise NonIntegralError("series must have constant term 1 for %s" % op)
        x = self + QSeries.monomial(self.quiver, self.kind, self.maxdim, zero, 0, -1)
        x.terms.pop((zero, 0), None)
        return x

    def inverse(self):
        """Multiplicative inverse for constant term exactly 1."""
        x = self._nilpotent_part("inverse")
        out = QSeries.one(self.quiver, self.kind, self.maxdim)
        pw = QSeries.one(self.quiver, self.kind, self.maxdim)
        for j in range(1, self.maxdim + 1):
            pw = pw.cmul(x)
            if not pw.terms:
                break
            out = out + pw.scale((-1) ** j)
        # inherit the windows of self on every class the inverse can reach
        for d, m in x.meta.items():
            if d in out.meta:
                lo0, hi0 = out.meta[d]
                out.meta[d] = (lo0, _min_hi(hi0, m[1]))
        return out

    def log(self):
        """Formal logarithm for constant term exactly 1."""
        x = self._nilpotent_part("log")
        out = QSeries(self.quiver, self.kind, self.maxdim, {}, {self.quiver.zero(): (0, None)})
        pw = QSeries.one(self.quiver, self.kind, self.maxdim)
        for j in range(1, self.maxdim + 1):
            pw = pw.cmul(x)
            if not pw.terms and all(m[1] is None for m in pw.meta.values()):
                break
            out = out + pw.scale(Fraction((-1) ** (j + 1), j))
        return out

    # -- comparison / reporting ----------------------------------------------

    def agrees_with(self, other):
        """(equal, report): compare on the intersection of validity windows."""
        self._check_compat(other)
        classes = set(self.meta) | set(other.meta)
        mine, theirs = self.by_class(), other.by_class()
        mismatches = []
        windows = {}
        for d in sorted(classes, key=lambda d: (sum(d), d)):
            hi = _min_hi(self.hi(d), other.hi(d))
            windows[d] = hi
            la, lb = mine.get(d, {}), theirs.get(d, {})
            ks = set(la) | set(lb)
            for k in sorted(ks):
                if hi is not None and k > hi:
                    continue
                ca, cb = la.get(k, 0), lb.get(k, 0)
                if ca != cb:
                    mismatches.append({"d": list(d), "k": k, "lhs": str(ca), "rhs": str(cb)})
        return not mismatches, {"mismatches": mismatches, "windows": windows}

    def sorted_entries(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1]))

    def to_json_dict(self, window=None):
        eff = {
            ",".join(map(str, d)): (None if hi is None else hi)
            for d, (lo, hi) in sorted(self.meta.items())
        }
        return {
            "kind": self.kind,
            "trunc": {"maxdim": self.maxdim, "window": window},
            "effective_hi": eff,
            "terms": [
                {"d": list(d), "k": k, "c": str(c)} for (d, k), c in self.sorted_entries()
            ],
        }

    @classmethod
    def from_json_dict(cls, quiver, doc):
        terms = {}
        meta = {}
        lows = {}
        for t in doc["terms"]:
            d = tuple(int(x) for x in t["d"])
            k = int(t["k"])
            terms[(d, k)] = _num(t["c"])
            lows[d] = min(lows.get(d, k), k)
        for key, hi in doc.get("effective_hi", {}).items():
            d = tuple(int(x) for x in key.split(","))
            meta[d] = (lows.get(d, 0), None if hi is None else int(hi))
        for d, lo in lows.items():
            if d not in meta:
                meta[d] = (lo, None)
        return cls(quiver, doc["kind"], int(doc["trunc"]["maxdim"]), terms, meta)


# -- closed forms --------------------------------------------------------------


def _add_class(terms, meta, cls, lead, sign, steps, window):
    """Class cls of a closed form: sign q^(lead/2) / prod_(step in steps)
    (1 - q^(step/2)), known up to q^((lead + window)/2).

    Dense over the window: dividing by one factor is the running sum
    out[i] += out[i - step], so each factor costs O(window).
    """
    out = [sign] + [0] * window
    for step in steps:
        for i in range(step, window + 1):
            out[i] += out[i - step]
    for i, c in enumerate(out):
        if c:
            terms[(cls, lead + i)] = c
    meta[cls] = (lead, lead + window)


def qpochhammer_inf(quiver, kind, k0, dvec, maxdim, window, base=1):
    """(q^(k0/2) t^dvec ; q^base)_inf, truncated.

    The coefficient of t^(n*dvec) is (-1)^n q^(n*k0/2 + base*n(n-1)/2)
    / prod_{j=1..n} (1 - q^(base*j)), expanded within the window.
    """
    dvec = tuple(dvec)
    if all(x == 0 for x in dvec):
        raise GradingError("q-Pochhammer needs a nonzero dimension vector")
    if kind == MODULE:
        quiver.check_selfdual_dim(dvec)
    zero = quiver.zero()
    terms = {(zero, 0): 1}
    meta = {zero: (0, None)}
    size = sum(dvec)
    nmax = maxdim // size
    for n in range(1, nmax + 1):
        cls = tuple(n * x for x in dvec)
        kstart = n * k0 + base * n * (n - 1)
        steps = [2 * base * j for j in range(1, n + 1)]
        _add_class(terms, meta, cls, kstart, sign_pow(n), steps, window)
    return QSeries(quiver, kind, maxdim, terms, meta)


def qdilog(quiver, maxdim, window):
    """E_q(t) = (q^(1/2) t ; q)_inf on a one-node grading."""
    if len(quiver.nodes) != 1:
        raise GradingError("qdilog needs a one-node quiver")
    return qpochhammer_inf(quiver, TORUS, 1, (1,), maxdim, window)


def quantum_integer(n, base_power=1):
    """[n]_{q^b} as a Laurent dict {k: coeff} with k the power of q^(1/2)."""
    if n < 0:
        raise GradingError("[n]_q needs n >= 0")
    return {2 * base_power * j: 1 for j in range(n)}


def dt_series(quiver, maxdim, window):
    """A_Q = sum_d (-q^(1/2))^chi(d,d) / prod_i prod_{j<=d_i} (1-q^j) t^d."""
    terms, meta = {}, {}
    for d in quiver.dimension_vectors(maxdim):
        chi = quiver.euler_form(d, d)
        steps = [2 * j for di in d for j in range(1, di + 1)]
        _add_class(terms, meta, d, chi, sign_pow(chi), steps, window)
    return QSeries(quiver, TORUS, maxdim, terms, meta)


def module_classes(quiver, maxdim):
    """sigma-invariant admissible classes with |e| <= maxdim, graded-lex order."""
    out = []
    for e in quiver.dimension_vectors(maxdim):
        if quiver.sigma_dim(e) != e:
            continue
        ok = True
        for nd in quiver.q0_sigma:
            if quiver.s[nd] == -1 and e[quiver.node_index[nd]] % 2:
                ok = False
                break
        if ok:
            out.append(e)
    out.sort(key=lambda e: (sum(e), e))
    return out


def ori_dt_series(quiver, maxdim, window):
    """A^sigma_Q per the equivariant-contractibility closed form."""
    terms, meta = {}, {}
    idx = quiver.node_index
    for e in module_classes(quiver, maxdim):
        ee = quiver.sd_euler_form(e)
        steps = [2 * j for nd in quiver.q0_plus for j in range(1, e[idx[nd]] + 1)]
        steps += [4 * j for nd in quiver.q0_sigma for j in range(1, e[idx[nd]] // 2 + 1)]
        _add_class(terms, meta, e, ee, sign_pow(ee), steps, window)
    return QSeries(quiver, MODULE, maxdim, terms, meta)


# -- invariant tables -----------------------------------------------------------


class InvariantTable:
    """Integer multiplicities per (dimension class, weight k)."""

    def __init__(self, quiver, kind, entries, validity=None, maxdim=None):
        self.quiver = quiver
        self.kind = kind
        self.entries = {k: int(v) for k, v in entries.items() if v}
        self.validity = dict(validity or {})
        self.maxdim = maxdim

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1]))

    def rendered(self, dvec):
        """Laurent dict of the class: coefficient of q^(k/2) is m*(-1)^k."""
        dvec = tuple(dvec)
        return {
            k: m * sign_pow(k)
            for (d, k), m in self.entries.items()
            if d == dvec
        }

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "entries": [
                {"d": list(d), "k": k, "mult": m} for (d, k), m in self.sorted_entries()
            ],
        }

    def __eq__(self, other):
        return isinstance(other, InvariantTable) and self.entries == other.entries


def invert_pochhammer_factorization(series):
    """Exponent table of A = prod (q^(k/2) t^d ; q)_inf^(-Omega_(d,k)).

    Layer-by-layer in total dimension: log A = sum Omega_(d,k) sum_{n>=1}
    q^(nk/2) t^(nd) / (n (1 - q^n)); divisor contributions are subtracted and
    the primitive layer is read off after multiplying by (1 - q).
    """
    L = series.log()
    table = {}
    raw = {}  # class -> {k: multiplicity}, filled in layer by layer
    validity = {}
    per_class = L.by_class()
    for D in L.classes():
        if not any(D):
            continue
        lau = dict(per_class.get(D, {}))
        hi = L.hi(D)
        if hi is None:
            hi = max(lau, default=0)
        # subtract the n >= 2 echoes of smaller classes
        g = _gcd_vec(D)
        for n in range(2, g + 1):
            if any(x % n for x in D):
                continue
            for k0, m in raw.get(tuple(x // n for x in D), {}).items():
                echo = Fraction(m, n)
                for k in range(n * k0, hi + 1, 2 * n):
                    v = lau.get(k, 0) - echo
                    if v:
                        lau[k] = v
                    else:
                        lau.pop(k, None)
        # multiply by (1 - q): the n = 1 layer is Omega_D(q) / (1 - q)
        out = {}
        for k, c in lau.items():
            if k <= hi:
                out[k] = out.get(k, 0) + c
            if k + 2 <= hi:
                out[k + 2] = out.get(k + 2, 0) - c
        for k in sorted(out):
            c = out[k]
            if not c:
                continue
            if c.denominator != 1:
                raise NonIntegralError(
                    "non-integer exponent %s at class %r weight %d" % (c, D, k)
                )
            # stored multiplicities are dimensions: the Pochhammer exponent is
            # the rendered coefficient m * (-1)^k
            raw.setdefault(D, {})[k] = int(c)
            table[(D, k)] = int(c) * sign_pow(k)
        validity[D] = hi
    return InvariantTable(series.quiver, series.kind, table, validity, series.maxdim)


def _gcd_vec(d):
    from math import gcd

    g = 0
    for x in d:
        g = gcd(g, x)
    return g


def _inverse_q2_pochhammer(quiver, k0, dvec, maxdim, window):
    """1 / (q^(k0/2) xi^dvec ; q^2)_inf, truncated as `qpochhammer_inf`.

    By the q-binomial theorem the coefficient of xi^(n*dvec) is
    q^(n*k0/2) / prod_{j=1..n} (1 - q^(2j)): n running sums.
    """
    zero = quiver.zero()
    terms, meta = {(zero, 0): 1}, {zero: (0, None)}
    for n in range(1, maxdim // sum(dvec) + 1):
        steps = [4 * j for j in range(1, n + 1)]
        _add_class(terms, meta, tuple(n * x for x in dvec), n * k0, 1, steps, window)
    return QSeries(quiver, MODULE, maxdim, terms, meta)


def pochhammer_q2_product(signed_table, maxdim, window):
    """A_Q(e') = prod (q^(k/2 + [lambda = -]) xi^e ; q^2)_inf^(-Omega~^lambda).

    The assembled windows are capped so that factors the table cannot know
    about (exponents beyond its per-class validity) lie outside every claimed
    coefficient."""
    quiver = signed_table.quiver
    out = QSeries.one(quiver, MODULE, maxdim)
    for (e, k), (plus, minus) in sorted(
        signed_table.entries.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1])
    ):
        if sum(e) > maxdim or not any(e):
            continue
        # exponents follow the rendered-coefficient convention m * (-1)^k
        for k0, mult in ((k, plus), (k + 2, minus)):
            power = -mult * sign_pow(k)
            if power > 0:
                out = out.cmul(qpochhammer_inf(quiver, MODULE, k0, e, maxdim, 3 * window, base=2).power(power))
            elif power < 0:
                out = out.cmul(_inverse_q2_pochhammer(quiver, k0, e, maxdim, 3 * window).power(-power))
    if signed_table.validity:
        meta = {}
        for d, (lo, hi) in out.meta.items():
            cap = hi
            for e0, top in signed_table.validity.items():
                if sum(e0) == 0 or any(a > b for a, b in zip(e0, d)):
                    continue
                rest = tuple(b - a for a, b in zip(e0, d))
                base = out.suppmin(rest)
                if base is None:
                    base = 0
                cap = _min_hi(cap, top + base)
            meta[d] = (lo, cap)
        out = QSeries(quiver, MODULE, maxdim, dict(out.terms), meta)
    return out


class SignedInvariantTable:
    """Z2-equivariant multiplicities: (class, k) -> (plus, minus).

    `validity` maps each scanned class to the largest weight at which the
    table is known complete; entries beyond it are unknown, not zero."""

    def __init__(self, quiver, entries, maxdim=None, validity=None):
        self.quiver = quiver
        self.entries = {
            k: (int(p), int(m)) for k, (p, m) in entries.items() if p or m
        }
        self.maxdim = maxdim
        self.validity = dict(validity or {})

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1]))

    def rendered(self, dvec, slot):
        dvec = tuple(dvec)
        i = 0 if slot == "+" else 1
        return {
            k: pm[i] * sign_pow(k)
            for (d, k), pm in self.entries.items()
            if d == dvec and pm[i]
        }

    def to_json_dict(self):
        return {
            "entries": [
                {"d": list(d), "k": k, "plus": p, "minus": m}
                for (d, k), (p, m) in self.sorted_entries()
            ]
        }

    def __eq__(self, other):
        return isinstance(other, SignedInvariantTable) and self.entries == other.entries
