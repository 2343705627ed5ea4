"""Truncated Lambda-graded Laurent series in q^(1/2).

A QSeries stores one row per class, rows = {d: ascending [(k, c)]}, where d
is a dimension-vector class, k the integer power of q^(1/2) and c a nonzero
coefficient; a class with no term has no row.  Products and recurrences sum
each class they compute on one dense list over its window of weights, then
read off its nonzero row; the cells of one product or recurrence are charged
to MAX_SERIES_CELLS before they are allocated.  Each class carries validity
metadata (suppmin, hi): every weight k <= hi is known exactly (stored or
zero), hi = None meaning the class is exact; suppmin is a proven lower bound
for the support, used to propagate windows through products.  No row holds
a class over maxdim or a weight over its class's hi.  Rows are never written
after construction, so series share them; `terms` is a flat read-only view
for reporting, which no product reads.  Coefficients are plain ints,
fractions.Fraction only in `QSeries.log` (its 1/|d|); nothing is ever
floated, and the public rendering follows the (-q^(1/2))^k convention.  The
inverse, the logarithm (through E(log A), E the Euler derivation t^d -> |d|
t^d) and the q^2-Pochhammer product (an exponential) are one triangular
integer recurrence each, `_triangular`.

Torus series multiply with the twist q^((chi(d,d') - chi(d',d))/2); module
series are acted on via t^d * xi^e = q^(gamma(d,e)/2) xi^(H(d)+e).  Numerical
factorization identities use the plain commutative product `cmul`.  A
product walks the rows of each class pair only up to its target window, and
takes the twist of a pair from per-class rows: chi(d,e) - chi(e,d) = r(d).e.
A q-Pochhammer factor acts unexpanded (`PochhammerFactor.char_star`, the
dilogarithm check's products): class n of (q^(k0/2) t^d ; q^base)_inf is a
sign and a shift over prod_(j<=n) (1 - q^(base j)), so each acted-on row is
divided on one dense list, one running sum per j, shared by its targets;
`QSeries.char_star` on the expanded `qpochhammer_inf` is its test oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add, mul, sub
from types import MappingProxyType

from .errors import GradingError, HallforgeError, KindMismatchError, NonIntegralError
from .poly import _num
from .quiver import MAX_PRODUCT_PAIRS, MAX_SERIES_CELLS

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


def _merge_windows(meta, other):
    """Windows of a sum, in place: least suppmin and least hi per class."""
    for d, (lo, hi) in other.items():
        lo0, hi0 = meta.get(d, (lo, hi))
        meta[d] = (min(lo0, lo), _min_hi(hi0, hi))


def _rows(cells):
    """The rows of {class: {k: c}}: ascending and nonzero, no empty row."""
    rows = {}
    for d, cell in cells.items():
        row = sorted(kc for kc in cell.items() if kc[1])
        if row:
            rows[d] = row
    return rows


def _windows(meta_a, meta_b, maxdim, lift=None):
    """Window half of a product: its {class: (suppmin, hi)} and the (d1, d2,
    d, twist) of every class pair landing within maxdim.  lift[d1] = (h,
    |h|, row, c) sends the pair to the class h + d2 with twist c + row.d2;
    without it h = d1 and there is no twist.  Sizes add, so a pair over
    maxdim is rejected before its class is built.  The rule is associative
    and commutative, so a product's windows need no term."""
    meta, pairs = {}, []
    right = [(d2, sum(d2), lo2, hi2) for d2, (lo2, hi2) in meta_b.items()]
    for d1, (lo1, hi1) in meta_a.items():
        h, size, row, c = lift[d1] if lift else (d1, sum(d1), None, 0)
        room = maxdim - size
        for d2, size2, lo2, hi2 in right:
            if size2 > room:
                continue
            tw = c + sum(map(mul, row, d2)) if row else 0
            d = tuple(map(add, h, d2))
            pairs.append((d1, d2, d, tw))
            lo = lo1 + lo2 + tw
            # hi = min(hi1 + lo2, lo1 + hi2) + tw, None (exact) on both sides
            if hi1 is None:
                hi = None if hi2 is None else lo1 + hi2 + tw
            else:
                hi = hi1 + lo2 + tw if hi2 is None else min(hi1 + lo2, lo1 + hi2) + tw
            old = meta.get(d)
            if old is not None:
                lo = min(old[0], lo)
                hi = old[1] if hi is None else hi if old[1] is None else min(old[1], hi)
            meta[d] = (lo, hi)
    return meta, pairs


def _action_lift(quiver, classes, sign):
    """Lift (H(d), 2|d|, sign r(d), sign (E(sigma d) - E(d))) of every class
    d of an acting series, for `_windows`: t^d * xi^e lands in H(d) + e with
    twist sign gamma(d, e), gamma(d, e) = r(d).e + E(sigma d) - E(d)."""
    lift = {}
    for d in classes:
        shift = quiver.sd_euler_form(quiver.sigma_dim(d)) - quiver.sd_euler_form(d)
        row = tuple(sign * x for x in quiver.skew_row(d))
        lift[d] = (quiver.hyperbolic(d), 2 * sum(d), row, sign * shift)
    return lift


def _chain_windows(x):
    """Windows of sum_j c_j x^j: the fixed point of the product rule
    P = P * x from the windows of 1, settled in one pass.  x keeps its zero
    class (zero up to its hi h0, suppmin 0), and a nonzero class f of x
    raises the size, so a class d takes its windows from the smaller classes
    d - f alone, as the pairs (d - f, f) of `_windows` combine them, and
    its zero-class pair then caps hi(d) at lo(d) + h0.  The classes are
    settled in order of size; at the fixed point hi(d) <= lo_f + hi(d - f)
    for every class f of x."""
    zero, maxdim = x.quiver.zero(), x.maxdim
    h0 = x.meta[zero][1]
    steps = [(f, sum(f), lo, hi) for f, (lo, hi) in x.meta.items() if any(f)]
    levels = [{} for _ in range(maxdim + 1)]
    levels[0][zero] = (0, None)
    out = {}
    for size, level in enumerate(levels):
        for d, (lo, hi) in level.items():
            hi = _min_hi(hi, _add_hi(lo, h0))
            out[d] = (lo, hi)
            for f, fsize, flo, fhi in steps:
                if size + fsize > maxdim:
                    continue
                t = tuple(map(add, d, f))
                lo2, hi2 = lo + flo, _min_hi(_add_hi(hi, flo), _add_hi(lo, fhi))
                lo0, hi0 = levels[size + fsize].get(t, (lo2, hi2))
                levels[size + fsize][t] = (min(lo0, lo2), _min_hi(hi0, hi2))
    return out


def _needs(order, claim, low):
    """Highest weight of X_d that the claimed weights (claim[d], None for all)
    need in X_d = ... - sum_f F_f X_(d-f), F_f of least weight low[f]."""
    need = dict(claim)
    for d in reversed(order):
        top = need[d]
        for f, lo in low.items():
            rest = tuple(a - b for a, b in zip(d, f))
            if need.get(rest) is not None:
                need[rest] = None if top is None else max(need[rest], top - lo)
    return need


def _charge_pairs(work):
    """Refuse a series product of up to `work` term pairs over MAX_PRODUCT_PAIRS."""
    if work > MAX_PRODUCT_PAIRS:
        raise HallforgeError("a series product of up to %d term pairs exceeds the work cap of %d" % (work, MAX_PRODUCT_PAIRS))


def _charge_cells(cells, what):
    """cells, once the dense cells of one product or recurrence fit the cap."""
    if cells > MAX_SERIES_CELLS:
        raise HallforgeError("a series %s of %d dense cells exceeds the work cap of %d" % (what, cells, MAX_SERIES_CELLS))
    return cells


def _triangular(order, factor, first, need, divide=False):
    """Solve w(d) X_d = first_d - sum_(0 < f <= d) factor_f X_(d-f) in one
    pass over `order` (ascending |d|, the zero class first, X_0 = first_0),
    w(d) = |d| when divide else 1.  The data and X_d are ascending (k, c)
    rows per class (`QSeries.rows`); X_d is kept up to weight need[d]
    (None: all), and a division with a remainder raises at its least weight.

    X_d fills one list over its window: from the least weight that first_d
    or a pair (factor_f, X_(d-f)) reaches, read off the rows' first terms, to
    need[d] or the highest such weight, read off their last terms.  Each
    class's cells are charged before its list is allocated, and a recurrence
    whose cells sum past MAX_SERIES_CELLS raises."""
    factor = [(f, fl) for f, fl in factor.items() if fl]
    X, cells = {}, 0
    for d in order:
        row = first.get(d, ())
        lo, hi = (row[0][0], row[-1][0]) if row else (None, None)
        pairs = []
        if any(d):
            for f, fl in factor:
                xl = X.get(tuple(a - b for a, b in zip(d, f)))
                if xl:
                    pairs.append((fl, xl))
                    a, b = fl[0][0] + xl[0][0], fl[-1][0] + xl[-1][0]
                    lo, hi = (a, b) if lo is None else (min(lo, a), max(hi, b))
        if need[d] is not None and hi is not None:
            hi = min(hi, need[d])
        if lo is None or lo > hi:
            X[d] = []
            continue
        cells = _charge_cells(cells + hi - lo + 1, "recurrence")
        acc = [0] * (hi - lo + 1)
        for k, c in row:
            if k > hi:
                break
            acc[k - lo] = c
        for fl, xl in pairs:
            for k1, c1 in fl:
                room = hi - k1
                if xl[0][0] > room:
                    break
                at = k1 - lo
                for k2, c2 in xl:
                    if k2 > room:
                        break
                    acc[at + k2] -= c1 * c2
        if divide and any(d):
            w = sum(d)
            for i, c in enumerate(acc):
                if c % w:
                    raise NonIntegralError("inexact division by %d at class %r weight %d" % (w, d, lo + i))
                acc[i] = c // w
        X[d] = [(lo + i, c) for i, c in enumerate(acc) if c]
    return X


def _term_half(cuts, spans, signed):
    """Term half of a product: {class d: ascending nonzero row} summed over
    the cuts (d, tw, ta, tb, room) of its class pairs, ta and tb ascending
    (k, c) rows and room = hi - tw the target window left for k1 + k2.  A
    class fills one list over its span (lo, hi) of `spans`.  Each row is cut
    where k + (the other's least weight) + tw > hi; the outer loop walks the
    shorter one, the inner ends where k1 + k2 + tw > hi, and a signed pair
    of odd twist enters negated."""
    acc = {d: [0] * (hi - lo + 1) for d, (lo, hi) in spans.items()}
    for d, tw, ta, tb, room in cuts:
        out = acc[d]
        if len(tb) < len(ta):  # the outer loop walks the shorter row
            ta, tb = tb, ta
        negate = signed and tw % 2
        shift = tw - spans[d][0]
        for k1, c1 in ta:
            rest = room - k1
            if negate:
                c1 = -c1
            at = k1 + shift
            for k2, c2 in tb:
                if k2 > rest:
                    break
                out[at + k2] += c1 * c2
    rows = {}
    for d, out in acc.items():
        lo = spans[d][0]
        row = [(lo + i, c) for i, c in enumerate(out) if c]
        if row:
            rows[d] = row
    return rows


class QSeries:
    """Truncated series in per-class rows."""

    __slots__ = ("quiver", "kind", "maxdim", "rows", "meta")

    def __init__(self, quiver, kind, maxdim, rows=None, meta=None):
        if kind not in (TORUS, MODULE):
            raise KindMismatchError("unknown series kind %r" % kind)
        self.quiver = quiver
        self.kind = kind
        self.maxdim = maxdim
        self.rows = rows if rows is not None else {}
        self.meta = meta if meta is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, quiver, kind, maxdim):
        zero = quiver.zero()
        return cls(quiver, kind, maxdim, {zero: [(0, 1)]}, {zero: (0, None)})

    @classmethod
    def monomial(cls, quiver, kind, maxdim, dvec, k, coeff=1):
        """coeff q^(k/2) t^dvec; the weight k is an int (a float, a bool or
        a string raises GradingError, as in from_json_dict)."""
        _check_int("weight k", k)
        dvec = quiver.check_selfdual_dim(dvec) if kind == MODULE else quiver.check_dim(dvec)
        c = _num(coeff)
        return cls(quiver, kind, maxdim, {dvec: [(k, c)]} if c and sum(dvec) <= maxdim else {}, {dvec: (k, None)})

    # -- metadata -----------------------------------------------------------

    def hi(self, dvec):
        m = self.meta.get(tuple(dvec))
        return None if m is None else m[1]

    @property
    def terms(self):
        """Read-only flat view {(d, k): c} of the rows, built on each read."""
        return MappingProxyType({(d, k): c for d, row in self.rows.items() for k, c in row})

    def coefficient(self, dvec, k):
        return self.class_laurent(dvec).get(k, 0)

    def class_laurent(self, dvec):
        """Laurent dict {k: coeff} of one class (within its validity)."""
        return dict(self.rows.get(tuple(dvec), ()))

    def _check_compat(self, other, same_kind=True):
        if self.quiver is not other.quiver and self.quiver != other.quiver:
            raise KindMismatchError("series over different quivers")
        if same_kind and self.kind != other.kind:
            raise KindMismatchError("mixed series kinds %r / %r" % (self.kind, other.kind))

    # -- linear structure ----------------------------------------------------

    def scale(self, c):
        c = _num(c)
        rows = {d: [(k, v * c) for k, v in row] for d, row in self.rows.items()} if c else {}
        return QSeries(self.quiver, self.kind, self.maxdim, rows, dict(self.meta))

    def __add__(self, other):
        self._check_compat(other)
        maxdim = min(self.maxdim, other.maxdim)
        meta = dict(self.meta)
        _merge_windows(meta, other.meta)
        rows = {}
        for d in self.rows.keys() | other.rows.keys():
            ra, rb, hi = self.rows.get(d), other.rows.get(d), meta[d][1]
            row = ra or rb  # a row of one side is shared
            if ra and rb:
                acc = dict(ra)
                for k, c in rb:
                    acc[k] = acc.get(k, 0) + c
                row = sorted(kc for kc in acc.items() if kc[1])
            if row and hi is not None and row[-1][0] > hi:
                row = row[: bisect_left(row, (hi + 1,))]
            if row and sum(d) <= maxdim:
                rows[d] = row
        return QSeries(self.quiver, self.kind, maxdim, rows, meta)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    # -- products ------------------------------------------------------------

    def _convolve(self, other, out_kind, lift=None, signed=False):
        """Product on the class pairs of `_windows` (lift: see there), the
        twist tw entering as q^(tw/2), or as (-q^(1/2))^tw when signed.  The
        terms of either row that fit the target window next to the other
        row's least weight bound a class pair's term pairs; a product whose
        bounds sum to more than MAX_PRODUCT_PAIRS raises before the term
        half.  A class's span runs from the least to the highest weight its
        cut pairs reach; the spans' dense cells are charged to
        MAX_SERIES_CELLS before the term half allocates them."""
        maxdim = min(self.maxdim, other.maxdim)
        meta, pairs = _windows(self.meta, other.meta, maxdim, lift)
        work, cuts, spans = 0, [], {}
        for d1, d2, d, tw in pairs:
            ta, tb = self.rows.get(d1), other.rows.get(d2)
            if not ta or not tb:
                continue
            hi = meta[d][1]
            # room for k1 + k2; with no window every pair lands
            room = ta[-1][0] + tb[-1][0] if hi is None else hi - tw
            na = bisect_left(ta, (room - tb[0][0] + 1,))
            nb = bisect_left(tb, (room - ta[0][0] + 1,))
            if na and nb:
                work += na * nb
                cuts.append((d, tw, ta[:na], tb[:nb], room))
                lo, top = ta[0][0] + tb[0][0] + tw, min(ta[na - 1][0] + tb[nb - 1][0], room) + tw
                span = spans.get(d)
                spans[d] = (lo, top) if span is None else (min(span[0], lo), max(span[1], top))
        _charge_pairs(work)
        _charge_cells(sum(hi - lo + 1 for lo, hi in spans.values()), "product")
        return QSeries(self.quiver, out_kind, maxdim, _term_half(cuts, spans, signed), meta)

    def cmul(self, other):
        """Plain commutative product (numerical series identities)."""
        self._check_compat(other)
        return self._convolve(other, self.kind)

    def torus_mul(self, other):
        """Quantum torus product with twist chi(d,d') - chi(d',d) = r(d).d'."""
        self._check_compat(other)
        if self.kind != TORUS:
            raise KindMismatchError("torus_mul needs torus series")
        q = self.quiver
        lift = {d: (d, sum(d), q.skew_row(d), 0) for d in self.meta}
        return self._convolve(other, TORUS, lift)

    def module_star(self, x):
        """Action of a torus series on a module series."""
        self._check_compat(x, same_kind=False)
        if self.kind != TORUS or x.kind != MODULE:
            raise KindMismatchError("module_star needs torus * module")
        return self._convolve(x, MODULE, _action_lift(self.quiver, self.meta, 1))

    def char_star(self, x):
        """Module action in the character normalization: twist
        (-q^(1/2))^(-gamma(d,e)).  Coincides with module_star for
        sigma-symmetric quivers."""
        self._check_compat(x, same_kind=False)
        if self.kind != TORUS or x.kind != MODULE:
            raise KindMismatchError("char_star needs torus * module")
        return self._convolve(x, MODULE, _action_lift(self.quiver, self.meta, -1), signed=True)

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
        """x = A - 1 for A with constant term exactly 1: A without its zero
        class's row, that class kept in the windows with suppmin 0 (x_0 is
        zero up to its hi, which holds weight 0)."""
        zero = self.quiver.zero()
        if self.rows.get(zero) != [(0, 1)]:
            raise NonIntegralError("series must have constant term 1 for %s" % op)
        rows = {d: row for d, row in self.rows.items() if d != zero}
        return QSeries(self.quiver, self.kind, self.maxdim, rows, {**self.meta, zero: (0, self.hi(zero))})

    def _solve(self, op):
        """({class: sorted (k, c)} within the windows, windows) of X = 1/A
        (op "inverse": X_d = [d = 0] - sum_f A_f X_(d-f)) or X = E(log A)
        (op "log": X_d = |d| A_d - sum_f A_f X_(d-f)), f over the nonzero
        classes, in the windows of the power series sum_j c_j (A - 1)^j
        (`_chain_windows`): as hi(d) <= lo_f + hi(d - f) there, no class
        needs a weight above its own window."""
        x = self._nilpotent_part(op)
        meta = _chain_windows(x)
        if op == "inverse":
            first = {self.quiver.zero(): [(0, 1)]}
        else:
            first = {d: [(k, sum(d) * c) for k, c in row] for d, row in x.rows.items()}
        order = sorted(meta, key=lambda d: (sum(d), d))
        return _triangular(order, x.rows, first, {d: m[1] for d, m in meta.items()}), meta

    def inverse(self):
        """Multiplicative inverse for constant term exactly 1."""
        X, meta = self._solve("inverse")
        return QSeries(self.quiver, self.kind, self.maxdim, {d: row for d, row in X.items() if row}, meta)

    def log(self):
        """Formal logarithm for constant term exactly 1: E(log A) / |d|."""
        X, meta = self._solve("log")
        rows = {d: [(k, _num(Fraction(c, sum(d)))) for k, c in row] for d, row in X.items() if row}
        return QSeries(self.quiver, self.kind, self.maxdim, rows, meta)

    # -- comparison / reporting ----------------------------------------------

    def agrees_with(self, other):
        """(equal, report): compare on the intersection of validity windows."""
        self._check_compat(other)
        classes = set(self.meta) | set(other.meta)
        mine, theirs = self.rows, other.rows
        mismatches, windows = [], {}
        for d in sorted(classes, key=lambda d: (sum(d), d)):
            hi = _min_hi(self.hi(d), other.hi(d))
            windows[d] = hi
            la, lb = dict(mine.get(d, ())), dict(theirs.get(d, ()))
            for k in sorted(set(la) | set(lb)):
                if hi is not None and k > hi:
                    continue
                ca, cb = la.get(k, 0), lb.get(k, 0)
                if ca != cb:
                    mismatches.append({"d": list(d), "k": k, "lhs": str(ca), "rhs": str(cb)})
        return not mismatches, {"mismatches": mismatches, "windows": windows}

    def sorted_entries(self):
        return [((d, k), c) for d in sorted(self.rows, key=lambda d: (sum(d), d)) for k, c in self.rows[d]]

    def to_json_dict(self, window=None):
        eff = {",".join(map(str, d)): hi for d, (lo, hi) in sorted(self.meta.items())}
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
        """Inverse of to_json_dict, on exact input as element JSON: class
        entries, weights, maxdim and windows are ints (a window may be null),
        a coefficient an int or a string such as "-3/4".  A float or a bool
        (never rounded), a malformed document or term, a class without one
        int >= 0 per node, a term over maxdim or its class's window, or a
        repeated (d, k) raises GradingError; a zero coefficient is dropped."""
        trunc = doc.get("trunc") if isinstance(doc, dict) else None
        if not (isinstance(trunc, dict) and isinstance(doc.get("terms"), list) and isinstance(doc.get("effective_hi", {}), dict)):
            raise GradingError('a series document is an object {"kind": ..., "trunc": {"maxdim": ...}, "terms": [...]}')
        maxdim, window = trunc.get("maxdim"), trunc.get("window")
        if type(maxdim) is not int or not (window is None or type(window) is int):
            raise GradingError("series truncation %r needs an integer maxdim and an integer or null window" % (trunc,))

        def dim_class(entries):
            if not (isinstance(entries, list) and len(entries) == len(quiver.nodes)
                    and all(type(x) is int and x >= 0 for x in entries)):
                raise GradingError("class %r needs one entry per node of %r, each an int >= 0" % (entries, quiver.nodes))
            return tuple(entries)

        cells, meta, lows = {}, {}, {}
        for t in doc["terms"]:
            if not (isinstance(t, dict) and t.keys() >= {"d", "k", "c"}):
                raise GradingError('series term %r is not an object {"d": [...], "k": ..., "c": ...}' % (t,))
            d, k, c = dim_class(t["d"]), t["k"], t["c"]
            if type(k) is not int or type(c) not in (int, str):
                raise GradingError("series term %r needs an integer k and an int or string coefficient" % (t,))
            try:
                c = _num(c)
            except (ValueError, ZeroDivisionError):
                raise GradingError("series term %r needs a rational coefficient" % (t,)) from None
            if sum(d) > maxdim:
                raise GradingError("series term %r lies over maxdim %d" % (t, maxdim))
            cell = cells.setdefault(d, {})
            if k in cell:
                raise GradingError("series term %r repeats the (d, k) of an earlier term" % (t,))
            cell[k] = c
            lows[d] = min(lows.get(d, k), k)
        for key, hi in doc.get("effective_hi", {}).items():
            # a key is "d1,d2,...": a part other than digits stays a str, refused
            d = dim_class([int(x) if x.isascii() and x.isdigit() else x for x in key.split(",")])
            if not (hi is None or type(hi) is int):
                raise GradingError("window %r of class %r is neither an integer nor null" % (hi, d))
            meta[d] = (lows.get(d, 0), hi)
        for d, lo in lows.items():
            meta.setdefault(d, (lo, None))
        for d, cell in cells.items():
            if meta[d][1] is not None and max(cell) > meta[d][1]:
                raise GradingError("series class %r has a term above its window %d" % (d, meta[d][1]))
        return cls(quiver, doc.get("kind"), maxdim, _rows(cells), meta)


# -- closed forms --------------------------------------------------------------


def _dense(classes, window):
    """classes, once their dense cells, classes x (window + 1), fit the cap;
    a window that is not an int >= 0 raises GradingError."""
    check_sizes(window=window)
    _charge_cells(len(classes) * (window + 1), "closed form")
    return classes


def _add_class(rows, meta, cls, lead, sign, steps, window, memo):
    """Class cls of a closed form: sign q^(lead/2) / prod_(step in steps)
    (1 - q^(step/2)), known up to q^((lead + window)/2).

    Dense over the window: dividing by one factor is the running sum
    out[i] += out[i - step], so each factor costs O(window).  memo holds the
    expansion of every nonempty step prefix met so far in the closed form:
    its classes extend each other's steps, so a class costs one running sum
    per step that no earlier class had.
    """
    steps = tuple(steps)
    n = len(steps)
    while n and steps[:n] not in memo:
        n -= 1
    out = memo[steps[:n]] if n else [1] + [0] * window
    for j in range(n, len(steps)):
        out, step = out[:], steps[j]
        for i in range(step, window + 1):
            out[i] += out[i - step]
        memo[steps[: j + 1]] = out
    rows[cls] = [(lead + i, sign * c) for i, c in enumerate(out) if c]
    meta[cls] = (lead, lead + window)


def _pochhammer_classes(quiver, kind, k0, dvec, maxdim, window, base):
    """(n, n dvec, L_n) for the classes n = 1 .. maxdim // |dvec| of
    (q^(k0/2) t^dvec ; q^base)_inf, L_n = n k0 + base n(n - 1), once their
    dense cells fit the cap.  k0 and base are ints (a float, a bool or a
    string raises GradingError), base >= 1 and dvec a nonzero class."""
    _check_int("k0", k0)
    _check_int("base", base)
    if base < 1:
        raise GradingError("q-Pochhammer needs base >= 1, not %d" % base)
    dvec = quiver.check_selfdual_dim(dvec) if kind == MODULE else quiver.check_dim(dvec)
    if not any(dvec):
        raise GradingError("q-Pochhammer needs a nonzero dimension vector")
    ns = _dense(range(1, maxdim // sum(dvec) + 1), window)
    return [(n, tuple(n * x for x in dvec), n * k0 + base * n * (n - 1)) for n in ns]


def qpochhammer_inf(quiver, kind, k0, dvec, maxdim, window, base=1):
    """(q^(k0/2) t^dvec ; q^base)_inf, truncated.

    The coefficient of t^(n*dvec) is (-1)^n q^(L_n/2) / prod_{j=1..n}
    (1 - q^(base*j)), L_n = n*k0 + base*n(n-1), expanded within the window
    (`_pochhammer_classes` checks the arguments).  `PochhammerFactor` acts
    as this series does without expanding it.
    """
    zero = quiver.zero()
    rows, meta, memo = {zero: [(0, 1)]}, {zero: (0, None)}, {}
    for n, cls, lead in _pochhammer_classes(quiver, kind, k0, dvec, maxdim, window, base):
        steps = [2 * base * j for j in range(1, n + 1)]
        _add_class(rows, meta, cls, lead, sign_pow(n), steps, window, memo)
    return QSeries(quiver, kind, maxdim, rows, meta)


class PochhammerFactor:
    """The torus series qpochhammer_inf(quiver, TORUS, k0, dvec, maxdim,
    window, base) described, not expanded: the same checks and closed-form
    cell charge, then only its windows, its `_action_lift` (sign -1) and, per
    class, (n, L_n, the weight span of its row).  Its rows are known without
    building them: [(0, 1)] for the zero class, the weights L_n + 2 base m,
    m <= window // (2 base), for class n dvec."""

    __slots__ = ("quiver", "maxdim", "step", "meta", "lift", "classes")

    def __init__(self, quiver, k0, dvec, maxdim, window, base=1):
        classes = _pochhammer_classes(quiver, TORUS, k0, dvec, maxdim, window, base)
        zero, step = quiver.zero(), 2 * base
        width = window - window % step
        self.quiver, self.maxdim, self.step = quiver, maxdim, step
        self.meta = {zero: (0, None), **{cls: (lead, lead + window) for _, cls, lead in classes}}
        self.lift = _action_lift(quiver, self.meta, -1)
        self.classes = {zero: (0, 0, 0), **{cls: (n, lead, width) for n, cls, lead in classes}}

    def char_star(self, x):
        """The expanded factor's `QSeries.char_star(x)`, row for row and
        window for window, from `_windows` of the factor's windows and lift.

        A row X of x, of class e, is divided on one dense list: G_0 = X and
        G_n = G_(n-1) / (1 - q^(base n)), a running sum, and G_n lands in
        H(n dvec) + e shifted by L_n + tw and signed by (-1)^(n + tw).  The
        list's stride is the gcd of 2 base and X's weight steps; it is cut
        at the highest weight that a later target still reads.  As x's rows
        start at or above their suppmin, no target reads the factor past its
        window.  Before any running sum, the term pairs that `_convolve`
        would multiply with the expanded factor are charged to
        MAX_PRODUCT_PAIRS, with its message, and then the lists' and the
        targets' dense cells to MAX_SERIES_CELLS."""
        q = self.quiver
        if q is not x.quiver and q != x.quiver:
            raise KindMismatchError("series over different quivers")
        if x.kind != MODULE:
            raise KindMismatchError("char_star needs torus * module")
        maxdim = min(self.maxdim, x.maxdim)
        meta, pairs = _windows(self.meta, x.meta, maxdim, self.lift)
        step, classes, xrows = self.step, self.classes, x.rows
        work, chains, spans = 0, {}, {}
        for d1, e, d, tw in pairs:
            row = xrows.get(e)
            if not row:
                continue
            n, lead, width = classes[d1]
            x0, hi = row[0][0], meta[d][1]
            top = row[-1][0] + width if hi is None else hi - tw - lead  # of G_n
            if top < x0:
                continue
            nb = bisect_left(row, (top + 1,))
            work += (min(width, top - x0) // step + 1) * nb
            chain = chains.get(e)
            if chain is None:
                chain = chains[e] = (gcd(step, *[k - x0 for k, _ in row]), [])
            stride, plan = chain
            count, w0 = (top - x0) // stride + 1 if n else nb, x0 + lead + tw
            plan.append((n, d, sub if (n + tw) & 1 else add, w0, count))
            w1 = w0 + (row[nb - 1][0] - x0 if n == 0 else stride * (count - 1))
            span = spans.get(d)
            if span is None:
                spans[d] = (w0, w1, stride, 1)
            else:
                lo, up, s, fan = span
                spans[d] = (min(lo, w0), max(up, w1), gcd(s, stride, w0 - lo), fan + 1)
        _charge_pairs(work)
        # a target of one contribution takes its row as it is made
        dense = {d: (up - lo) // s + 1 for d, (lo, up, s, fan) in spans.items() if fan > 1}
        lists = [max(p[4] for p in plan if p[0]) for _, plan in chains.values() if plan[-1][0]]
        _charge_cells(sum(dense.values()) + sum(lists), "product")
        acc = {d: [0] * cells for d, cells in dense.items()}
        for e, (stride, plan) in chains.items():
            _pochhammer_chain(xrows[e], stride, plan, step // stride, spans, acc)
        rows = {}
        for d, (lo, _, s, fan) in spans.items():
            row = acc[d] if fan == 1 else [(lo + s * i, c) for i, c in enumerate(acc[d]) if c]
            if row:
                rows[d] = row
        return QSeries(q, MODULE, maxdim, rows, meta)


def _pochhammer_chain(row, stride, plan, unit, spans, acc):
    """Add G_n of `PochhammerFactor.char_star` for each (n, target, add or
    sub, first weight, count) of plan, n ascending, to its target: into the
    target's dense list in acc over its (lo, hi, stride, fan-in) span, or, for
    a target of no list, as acc's row for it.  G_0 is X = row, whose first
    count terms land unshifted and unsigned (the zero class has no twist);
    for n >= 1 G_n = G_(n-1) / (1 - q^(base n)) is a
    running sum of step unit n on one list, X's weights stride apart, cut
    first at the count that plan's rest still reads."""
    if plan[0][0] == 0:
        _, d, _, _, count = plan[0]
        if d in acc:
            out, (lo, _, s, _) = acc[d], spans[d]
            for k, c in row[:count]:
                out[(k - lo) // s] += c
        else:
            acc[d] = row[:count]
        plan = plan[1:]
        if not plan:
            return
    keep, need = [], 0
    for p in reversed(plan):
        need = max(need, p[4])
        keep.append(need)
    keep.reverse()
    x0 = row[0][0]
    g = [0] * need
    for k, c in row:
        i = (k - x0) // stride
        if i >= need:
            break
        g[i] = c
    at = 0
    for (n, d, op, w0, count), size in zip(plan, keep):
        while at < n:
            at += 1
            del g[size:]
            t = unit * at
            for i in range(t, size):
                g[i] += g[i - t]
        if d in acc:
            out, (lo, _, s, _) = acc[d], spans[d]
            r = stride // s
            a = (w0 - lo) // s
            cut = slice(a, a + r * (count - 1) + 1, r)
            out[cut] = map(op, out[cut], g[:count])
        else:
            sign = -1 if op is sub else 1
            acc[d] = [(w0 + stride * i, sign * c) for i, c in enumerate(g[:count]) if c]


def _check_int(name, x):
    """Refuse a weight or a count that is not an int: a float, a bool (an
    int subclass) or a string would reach the rows and their JSON."""
    if type(x) is not int:
        raise GradingError("%s must be an int, not %r" % (name, x))


def check_sizes(**sizes):
    """Refuse a size (maxdim, window) that is not an int >= 0: a float, a
    bool or a negative value raises GradingError before any work, as the
    CLI's flags and the PBW checks' window are refused."""
    for name, x in sizes.items():
        if type(x) is not int or x < 0:
            raise GradingError("%s must be an int >= 0, not %r" % (name, x))


def qdilog(quiver, maxdim, window):
    """E_q(t) = (q^(1/2) t ; q)_inf on a one-node grading."""
    if len(quiver.nodes) != 1:
        raise GradingError("qdilog needs a one-node quiver")
    return qpochhammer_inf(quiver, TORUS, 1, (1,), maxdim, window)


def quantum_integer(n, base_power=1):
    """[n]_{q^b} as a Laurent dict {k: coeff} with k the power of q^(1/2);
    n and b are ints, and terms that meet (b = 0) add up."""
    _check_int("n", n)
    _check_int("base_power", base_power)
    if n < 0:
        raise GradingError("[n]_q needs n >= 0")
    return dict(Counter(2 * base_power * j for j in range(n)))


def dt_series(quiver, maxdim, window):
    """A_Q = sum_d (-q^(1/2))^chi(d,d) / prod_i prod_{j<=d_i} (1-q^j) t^d."""
    check_sizes(maxdim=maxdim, window=window)
    rows, meta = {}, {}
    memo = {}
    for d in _dense(quiver.dimension_vectors(maxdim), window):
        chi = quiver.euler_form(d, d)
        steps = [2 * j for di in d for j in range(1, di + 1)]
        _add_class(rows, meta, d, chi, sign_pow(chi), steps, window, memo)
    return QSeries(quiver, TORUS, maxdim, rows, meta)


def module_classes(quiver, maxdim):
    """sigma-invariant admissible classes with |e| <= maxdim, graded-lex order."""
    idx = quiver.node_index
    out = [
        e for e in quiver.dimension_vectors(maxdim)
        if quiver.sigma_dim(e) == e and not any(quiver.s[nd] == -1 and e[idx[nd]] % 2 for nd in quiver.q0_sigma)
    ]
    return sorted(out, key=lambda e: (sum(e), e))


def ori_dt_series(quiver, maxdim, window):
    """A^sigma_Q per the equivariant-contractibility closed form."""
    check_sizes(maxdim=maxdim, window=window)
    rows, meta = {}, {}
    idx = quiver.node_index
    memo = {}
    for e in _dense(module_classes(quiver, maxdim), window):
        ee = quiver.sd_euler_form(e)
        steps = [2 * j for nd in quiver.q0_plus for j in range(1, e[idx[nd]] + 1)]
        steps += [4 * j for nd in quiver.q0_sigma for j in range(1, e[idx[nd]] // 2 + 1)]
        _add_class(rows, meta, e, ee, sign_pow(ee), steps, window, memo)
    return QSeries(quiver, MODULE, maxdim, rows, meta)


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
        return {k: m * sign_pow(k) for (d, k), m in self.entries.items() if d == dvec}

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "entries": [{"d": list(d), "k": k, "mult": m} for (d, k), m in self.sorted_entries()],
        }

    def __eq__(self, other):
        return isinstance(other, InvariantTable) and self.entries == other.entries


def invert_pochhammer_factorization(series):
    """Exponent table of A = prod (q^(k/2) t^d ; q)_inf^(-Omega_(d,k)).

    Layer by layer in total dimension, on M = E(log A) (`QSeries._solve`):
    M = sum Omega_(d,k) |d| sum_{n>=1} q^(nk/2) t^(nd) / (1 - q^n), so the
    n >= 2 echo of an exponent m of class D/n is the integer |D/n| m, and
    after multiplying by (1 - q) the rest of M_D is |D| Omega_D(q).
    """
    M, meta = series._solve("log")
    table, validity = {}, {}
    raw = {}  # class -> {k: multiplicity}, filled in layer by layer
    for D, kcs in M.items():
        if not any(D):
            continue
        size = sum(D)
        lau = dict(kcs)
        hi = max(lau, default=0) if meta[D][1] is None else meta[D][1]
        # subtract the n >= 2 echoes of smaller classes
        for n in range(2, gcd(*D) + 1):
            if any(x % n for x in D):
                continue
            for k0, m in raw.get(tuple(x // n for x in D), {}).items():
                for k in range(n * k0, hi + 1, 2 * n):
                    lau[k] = lau.get(k, 0) - size // n * m
        # multiply by (1 - q): the n = 1 layer is |D| Omega_D(q) / (1 - q)
        shifted = {k + 2 for k in lau if k + 2 <= hi}
        out = {k: lau.get(k, 0) - lau.get(k - 2, 0) for k in shifted | set(lau)}
        for k, c in sorted(out.items()):
            if not c:
                continue
            if c % size:
                raise NonIntegralError("non-integer exponent %s at class %r weight %d" % (Fraction(c, size), D, k))
            # stored multiplicities are dimensions: the Pochhammer exponent is
            # the rendered coefficient m * (-1)^k
            raw.setdefault(D, {})[k] = c // size
            table[(D, k)] = c // size * sign_pow(k)
        validity[D] = hi
    return InvariantTable(series.quiver, series.kind, table, validity, series.maxdim)


def pochhammer_q2_product(signed_table, maxdim, window):
    """A_Q(e') = prod (q^(k/2 + [lambda = -]) xi^e ; q^2)_inf^(-Omega~^lambda).

    The exponential of sum power * log (x; q^2)_inf, x = q^(k0/2) xi^e:
    G = -E(log A_Q(e')) = sum power |e| sum_n x^n / (1 - q^(2n)) is integral,
    and |d| A_d = -sum_f G_f A_(d-f).  The windows are those of the product
    of the factors truncated at 3 * window, capped so that factors the table
    cannot know about (exponents beyond its per-class validity) lie outside
    every claimed coefficient."""
    quiver = signed_table.quiver
    zero = quiver.zero()
    meta, low, runs = {zero: (0, None)}, {}, []  # runs: G_f = c at k0, k0 + step, ...
    for (e, k), (plus, minus) in signed_table.sorted_entries():
        if sum(e) > maxdim or not any(e):
            continue
        quiver.check_selfdual_dim(e)
        for k0, mult in ((k, plus), (k + 2, minus)):
            power = -mult * sign_pow(k)
            if not power:
                continue
            fmeta = {zero: (0, None)}
            for n in range(1, maxdim // sum(e) + 1):
                f = tuple(n * x for x in e)
                runs.append((f, n * k0, 4 * n, power * sum(e)))
                low[f] = min(low.get(f, n * k0), n * k0)
                # xi^(ne) leads at q^(n k0/2 + n(n-1)) in (x; q^2)_inf, at q^(n k0/2) in its inverse
                lo = n * k0 + (2 * n * (n - 1) if power > 0 else 0)
                fmeta[f] = (lo, lo + 3 * window)
            p = abs(power)  # meta times fmeta^p by squaring (`_windows` is associative)
            while p:
                if p & 1:
                    meta = _windows(meta, fmeta, maxdim)[0]
                p >>= 1
                if p:
                    fmeta = _windows(fmeta, fmeta, maxdim)[0]
    for d, (lo, hi) in meta.items():
        for e0, top in signed_table.validity.items():
            if any(e0) and all(a <= b for a, b in zip(e0, d)):
                hi = _min_hi(hi, top + meta.get(tuple(b - a for a, b in zip(e0, d)), (0,))[0])
        meta[d] = (lo, hi)
    order = sorted(meta, key=lambda d: (sum(d), d))
    claim = {d: m[1] for d, m in meta.items()}
    need = _needs(order, claim, low)
    g = {}
    for f, k0, step, c in runs:
        rests = [(d, tuple(a - b for a, b in zip(d, f))) for d in order]
        lau = g.setdefault(f, {})
        for k in range(k0, max(need[d] - meta[r][0] for d, r in rests if r in meta) + 1, step):
            lau[k] = lau.get(k, 0) + c
    g = {f: sorted(lau.items()) for f, lau in g.items()}
    X = _triangular(order, g, {zero: [(0, 1)]}, need, divide=True)
    rows = {d: [kc for kc in X[d] if claim[d] is None or kc[0] <= claim[d]] for d in order}
    return QSeries(quiver, MODULE, maxdim, {d: row for d, row in rows.items() if row}, meta)


class SignedInvariantTable:
    """Z2-equivariant multiplicities: (class, k) -> (plus, minus).

    `validity` maps each scanned class to the largest weight at which the
    table is known complete; entries beyond it are unknown, not zero."""

    def __init__(self, quiver, entries, maxdim=None, validity=None):
        self.quiver = quiver
        self.entries = {k: (int(p), int(m)) for k, (p, m) in entries.items() if p or m}
        self.maxdim = maxdim
        self.validity = dict(validity or {})

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1]))

    def rendered(self, dvec, slot):
        dvec = tuple(dvec)
        i = 0 if slot == "+" else 1
        return {k: pm[i] * sign_pow(k) for (d, k), pm in self.entries.items() if d == dvec and pm[i]}

    def to_json_dict(self):
        return {
            "entries": [
                {"d": list(d), "k": k, "plus": p, "minus": m}
                for (d, k), (p, m) in self.sorted_entries()
            ]
        }

    def __eq__(self, other):
        return isinstance(other, SignedInvariantTable) and self.entries == other.entries
