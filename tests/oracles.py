"""Reference implementations that only the tests use.

Not collected by pytest (no test_ prefix); the test modules import it from
their own directory.
"""

from fractions import Fraction
from math import gcd

from hallforge import series as series_module
from hallforge.coha import CohaElement, _ideal_echelon, _mul_integrand, generator_complement, s_label, schur_mul
from hallforge.cohm import CohmElement, _act_integrand, _fixed_node_type, schur_act
from hallforge.errors import ExponentOverflowError, GradingError, HallforgeError, InexactDivisionError, NonIntegralError
from hallforge.finite_type import _bucket, _letter_partitions, _slice_report, hom_ext
from hallforge.linalg import Echelon
from hallforge.poly import MASK, MAXDEG, SHIFT, Poly, _check_pairs, _mul_terms, _num, check_push_work, mul_bound
from hallforge.quiver import QuiverWithDuality
from hallforge.series import (
    MODULE,
    TORUS,
    InvariantTable,
    QSeries,
    _add_hi,
    _closed_form,
    _merge_windows,
    _min_hi,
    _rows,
    _windows,
    qpochhammer_inf,
    sign_pow,
)
from hallforge.symfun import _lead_key, _straightener, _type_b_push, lead_terms, partitions, straighten_blocks, weight_basis_size


def q3(loops):
    """Nodes 1 <-> 3 swapped and 2 fixed; arrows a: 1->2, b: 2->1, c: 2->3,
    e: 3->2 with sigma swapping a <-> c and b <-> e (tau = +1), plus `loops`
    sigma-fixed loops at node 2 with tau = -1; s = +1 everywhere."""
    arrows = [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3"), ("e", "3", "2")]
    sigma_arrows = {"a": "c", "c": "a", "b": "e", "e": "b"}
    tau = {"a": 1, "b": 1, "c": 1, "e": 1}
    for j in range(1, loops + 1):
        arrows.append(("l%d" % j, "2", "2"))
        sigma_arrows["l%d" % j] = "l%d" % j
        tau["l%d" % j] = -1
    return QuiverWithDuality(
        ["1", "2", "3"], arrows, {"1": "3", "2": "2", "3": "1"}, sigma_arrows,
        {"1": 1, "2": 1, "3": 1}, tau,
    )


def loop_euler_form(quiver, d, dp):
    """chi(d, d') by the loop over the arrow triples, with a node-index
    lookup per arrow: the oracle for `QuiverWithDuality.euler_form`."""
    total = sum(x * y for x, y in zip(d, dp))
    for _, t, h in quiver.arrows:
        total -= d[quiver.node_index[t]] * dp[quiver.node_index[h]]
    return total


def loop_sd_euler_form(quiver, d):
    """E(d) by the four loops over nodes and arrows, with dict lookups
    throughout: the oracle for `QuiverWithDuality.sd_euler_form`."""
    idx = quiver.node_index
    total = 0
    for n in quiver.q0_sigma:
        total += d[idx[n]] * (d[idx[n]] - quiver.s[n]) // 2
    for n in quiver.q0_plus:
        total += d[idx[quiver.sigma_nodes[n]]] * d[idx[n]]
    for a, t, h in quiver.arrows:
        if quiver.sigma_arrows[a] == a:
            total -= d[idx[h]] * (d[idx[h]] + quiver.tau[a] * quiver.s[h]) // 2
    plus_arrows = set(quiver.arrow_partition[2])
    for a, t, h in quiver.arrows:
        if a in plus_arrows:
            total -= d[idx[quiver.sigma_nodes[t]]] * d[idx[h]]
    return total


def rescan_ar_order(rs):
    """`finite_type.ar_order` as it found each next root by rescanning every
    unplaced root for one whose predecessors are all placed, O(R^3) for R
    roots: the oracle of the one-pass (Kahn) version."""
    roots = rs.roots
    table = {(r, t): hom_ext(rs, r, t) for r in roots for t in roots if r != t}
    preds = {r: set() for r in roots}  # the roots that must precede r
    for (r, t), (hom, ext) in table.items():
        if hom:
            preds[r].add(t)
        if ext:
            preds[t].add(r)
    order, placed = [], set()
    while len(order) < len(roots):
        ready = [r for r in roots if r not in placed and preds[r] <= placed]
        if not ready:
            raise HallforgeError("cycle in AR constraints (bug for type A)")
        pick = min(ready)
        order.append(pick)
        placed.add(pick)
    for i, r in enumerate(order):
        for t in order[i + 1 :]:
            if table[(r, t)][0] or table[(t, r)][1]:
                raise HallforgeError("AR order violates the vanishing conditions")
    return order


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


def from_exponents(n, tuple_terms):
    """The Poly in n variables of {exponent tuple: coeff}, zero
    coefficients dropped; an exponent outside 0..MAXDEG raises
    ExponentOverflowError."""
    terms = {}
    for exps, c in tuple_terms.items():
        c = _num(c)
        if c:
            key = 0
            for i, e in enumerate(exps):
                if e < 0 or e > MAXDEG:
                    raise ExponentOverflowError("exponent %d out of packed range" % e)
                key |= e << (SHIFT * i)
            terms[key] = c
    return Poly(n, terms)


def recursive_weight_labels(block_spec, degree):
    """`symfun.weight_labels` by recursion over every degree of every
    block, each block's partition lists built for all degrees up to the
    target and each label grown one partition at a time."""
    if degree < 0:
        return []
    choices = []
    for (_, kind, nv) in block_spec:
        step = 1 if kind == "GL" else 2
        choices.append([(deg, partitions(deg // step, nv)) for deg in range(0, degree + 1, step)])
    labels = []

    def rec(i, rem, picked):
        if i == len(block_spec):
            if rem == 0:
                labels.append(tuple(picked))
            return
        for deg, parts in choices[i]:
            if deg > rem:
                break
            for lam in parts:
                rec(i + 1, rem - deg, picked + [lam])

    rec(0, degree, [])
    return labels


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
    return from_exponents(ring_n, terms)


def label_degree(cls, quiver, d, label):
    """Polynomial degree of the basis element of a label: |lam| on a GL
    block, 2|lam| on a BCD block."""
    return sum(sum(lam) * (1 if kind == "GL" else 2) for (_, kind, _), lam in zip(cls.blocks(quiver, d), label))


def slice_dim(cls, quiver, d, k):
    """The dimension of the (d, k) slice of cls, 0 when it is empty: entry
    deg of the count list `symfun.weight_basis_size` up to its degree."""
    deg = cls.slice_degree(quiver, d, k)
    if deg is None:
        return 0
    return weight_basis_size(cls.blocks(quiver, d), deg)[deg]


def add_classes(d1, d2):
    return tuple(x + y for x, y in zip(d1, d2))


def series_from_terms(quiver, kind, maxdim, terms, meta):
    """A QSeries from a flat {(d, k): c}, zero coefficients dropped."""
    rows = {}
    for (d, k), c in sorted(terms.items(), key=lambda kv: kv[0]):
        if c:
            rows.setdefault(d, []).append((k, c))
    return QSeries(quiver, kind, maxdim, rows, meta)


def assert_rows(series):
    """The layout every series producer keeps: each class with a term has one
    nonempty row of ascending distinct weights and nonzero coefficients, no
    weight over the class's hi, and the class lies in meta and within maxdim."""
    for d, row in series.rows.items():
        assert row and d in series.meta and sum(d) <= series.maxdim, (d, row)
        ks = [k for k, _ in row]
        assert all(a < b for a, b in zip(ks, ks[1:])), (d, ks)
        assert all(c for _, c in row), (d, row)
        hi = series.meta[d][1]
        assert hi is None or ks[-1] <= hi, (d, ks[-1], hi)


def assert_window_rule(series, result):
    """The windows of result = 1/A or log A (A = series) are a fixed point of
    the product rule with A's: for every class f of A, its zero class with
    suppmin 0 (it is exactly 1 up to its hi), and e of the result with
    |e + f| <= maxdim, d = e + f is a class of the result with
    hi(d) <= lo_f + hi(e) and hi(d) <= hi_f + lo(e)."""
    zero = series.quiver.zero()
    le = lambda a, b: b is None or (a is not None and a <= b)
    for f, (lo_f, hi_f) in {**series.meta, zero: (0, series.hi(zero))}.items():
        for e, (lo_e, hi_e) in result.meta.items():
            d = add_classes(e, f)
            if sum(d) > result.maxdim:
                continue
            assert d in result.meta, (f, e)
            hi = result.meta[d][1]
            assert le(hi, _add_hi(lo_f, hi_e)) and le(hi, _add_hi(hi_f, lo_e)), (f, e, hi)


def flat_add(a, b):
    """The series sum as `QSeries.__add__` computed it on flat terms: merged
    windows, and each sum kept where it is nonzero, within maxdim and within
    its class's window."""
    maxdim = min(a.maxdim, b.maxdim)
    meta = dict(a.meta)
    _merge_windows(meta, b.meta)
    terms = dict(a.terms)
    for key, c in b.terms.items():
        terms[key] = terms.get(key, 0) + c
    terms = {
        (d, k): c for (d, k), c in terms.items() if sum(d) <= maxdim and (meta[d][1] is None or k <= meta[d][1])
    }
    return series_from_terms(a.quiver, a.kind, maxdim, terms, meta)


def flat_convolve(a, b, out_kind, class_fn, twist_fn, signed=False):
    """The series product as `QSeries._convolve` computed it before it walked
    sorted rows: every class pair of the two windows' classes within maxdim,
    its twist from twist_fn(d1, d2), and every term pair multiplied before
    its weight is checked against the target window."""
    maxdim = min(a.maxdim, b.maxdim)
    meta, pairs = {}, []
    for d1, (lo1, hi1) in a.meta.items():
        for d2, (lo2, hi2) in b.meta.items():
            d = class_fn(d1, d2)
            if sum(d) > maxdim:
                continue
            tw = twist_fn(d1, d2)
            pairs.append((d1, d2, d, tw))
            lo = lo1 + lo2 + tw
            hi = _add_hi(_min_hi(_add_hi(hi1, lo2), _add_hi(lo1, hi2)), tw)
            lo0, hi0 = meta.get(d, (lo, hi))
            meta[d] = (min(lo0, lo), _min_hi(hi0, hi))
    by_a, by_b = {}, {}
    for series, by in ((a, by_a), (b, by_b)):
        for (d, k), c in series.terms.items():
            by.setdefault(d, {})[k] = c
    terms = {}
    for d1, d2, d, tw in pairs:
        ta, tb = by_a.get(d1), by_b.get(d2)
        if not ta or not tb:
            continue
        hi = meta[d][1]
        sgn = sign_pow(tw) if signed else 1
        for k1, c1 in ta.items():
            for k2, c2 in tb.items():
                k = k1 + k2 + tw
                if hi is None or k <= hi:
                    terms[(d, k)] = terms.get((d, k), 0) + sgn * c1 * c2
    return series_from_terms(a.quiver, out_kind, maxdim, terms, meta)


def flat_products(a, b, x):
    """{name: product} of `flat_convolve` for cmul(a, b), torus_mul(a, b),
    module_star(a, x) and char_star(a, x), the twists read off
    `star_twist` and `euler_form` pair by pair."""
    q = a.quiver
    hyper = lambda d1, e2: add_classes(q.hyperbolic(d1), e2)
    return {
        "cmul": flat_convolve(a, b, a.kind, add_classes, lambda d1, d2: 0),
        "torus_mul": flat_convolve(a, b, TORUS, add_classes, lambda d1, d2: q.euler_form(d1, d2) - q.euler_form(d2, d1)),
        "module_star": flat_convolve(a, x, MODULE, hyper, q.star_twist),
        "char_star": flat_convolve(a, x, MODULE, hyper, lambda d1, e2: -q.star_twist(d1, e2), signed=True),
    }


def char_mul(a, b):
    """Torus product a * b in the character normalization: the twist enters
    as (-q^(1/2))^(chi(d'',d') - chi(d',d'')), matching graded dimensions of
    the twisted tensor product.  Coincides with `QSeries.torus_mul` when chi
    is symmetric."""
    a._check_compat(b)
    q = a.quiver
    tw = lambda d1, d2: q.euler_form(d2, d1) - q.euler_form(d1, d2)
    return flat_convolve(a, b, TORUS, add_classes, tw, signed=True)


def _div(a, b):
    """Exact a / b staying in int when possible."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if not r:
            return q
        return Fraction(a, b)
    out = Fraction(a) / Fraction(b)
    return out.numerator if out.denominator == 1 else out


class RationalEchelon:
    """`linalg.Echelon` as it was over the rationals: rows keyed by the
    labels themselves, int or Fraction entries, the pivot of a row its
    smallest key and every pivot row normalized to leading coefficient 1."""

    def __init__(self):
        self.pivots = {}
        self.rank = 0

    def _reduce(self, row):
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row, lead
            c = row[lead]
            for k, v in piv.items():
                w = row.get(k, 0) - c * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
        return row, None

    def reduce(self, row):
        """Residual of row against the current pivots (row is not inserted)."""
        return self._reduce(row)[0]

    def copy(self):
        """An independent echelon with the same pivots (pivot rows are never
        mutated, so they are shared)."""
        out = RationalEchelon()
        out.pivots, out.rank = dict(self.pivots), self.rank
        return out

    def add(self, row):
        """Insert a row; returns True when it increased the rank."""
        res, lead = self._reduce(row)
        if not res:
            return False
        c = res[lead]
        self.pivots[lead] = {k: _div(v, c) for k, v in res.items()}
        self.rank += 1
        return True


def rational_complement(ech, labels):
    """The basis labels whose unit rows raise the rank of ech when added in
    order; ech is extended.  When the labels span a space containing the
    rows of ech, the chosen ones span a complement of them; under that
    condition rank == len(labels) means ech already spans them all, so the
    answer is [] and no label is read."""
    if ech.rank == len(labels):
        return []
    return [lab for lab in labels if ech.add({lab: 1})]


def plan_rows(quiver, plan, slice_labels, act, k, complement_of=generator_complement):
    """The product rows of the eager image step, lazily and in its order:
    over the steps (a, k1) of plan, as in `coha.image_echelon`, every
    factor of complement_of(quiver, a, k1) acting on every b, with no stop
    rule.  Rows are in Schur coordinates, as there."""
    for a, rest, chi_a, form_rest in plan:
        for k1 in range(chi_a, k - form_rest + 1, 2):
            gens = complement_of(quiver, a, k1)
            if not gens:
                continue
            for b in slice_labels(quiver, rest, k - k1):
                for c in gens:
                    yield act(quiver, a, {c: 1}, rest, {b: 1})


def image_rows(quiver, pairs, slice_labels, form, act, k, complement_of=generator_complement):
    """Every row of `plan_rows` over the pairs and their forms: every
    product of every pair, even after the rows span the slice."""
    plan = [(a, rest, quiver.euler_form(a, a), form(quiver, rest)) for a, rest in pairs]
    return list(plan_rows(quiver, plan, slice_labels, act, k, complement_of))


def full_image_echelon(quiver, pairs, slice_labels, form, act, k, labels, complement_of=generator_complement):
    """`coha.image_echelon` without its stop rule: the integer echelon on
    the target slice's labels of every row of `image_rows`."""
    ech = Echelon(labels)
    for row in image_rows(quiver, pairs, slice_labels, form, act, k, complement_of):
        ech.add(row)
    return ech


def eager_image_echelon(quiver, plan, slice_labels, act, k, labels):
    """`coha.image_echelon` with its stop rule but the eager rule for the
    factors: each step asks for its generator complement before it acts.
    A row of `plan_rows` is pulled only while the echelon does not span
    the slice, so nothing is computed after it does."""
    ech = Echelon(labels)
    rows = plan_rows(quiver, plan, slice_labels, act, k)
    while ech.rank < len(labels):
        row = next(rows, None)
        if row is None:
            break
        ech.add(row)
    return ech


def full_coha_pairs(quiver, d):
    """Every (a, rest) of decompositions(d, |d| - 1), the pairs of the
    CoHA ideal; `coha._coha_plan` keeps those with 2|a| <= |d|."""
    return quiver.decompositions(d, sum(d) - 1)


def full_cohm_pairs(quiver, e):
    """Every (a, rest) with H(a) <= e, the pairs of the CoHM image;
    `cohm._cohm_plan` keeps those with sigma(a) <= a."""
    return quiver.decompositions(e, sum(e) // 2, quiver.hyperbolic)


class DirectQuotients:
    """The quotient image steps with every product of the full pairs: no
    stop rule and no S_H shortcut for sigma(d) < d.  The factor complements come from this oracle too, kept
    in a dict of its own, so nothing is read from the quiver's memo."""

    def __init__(self, quiver):
        self.quiver = quiver
        self.memo = {}

    def ideal(self, d, k):
        """The echelon of every product of H_+ . H_+ into the (d, k) slice."""
        key = ("ideal", d, k)
        if key not in self.memo:
            q = self.quiver
            labels = CohaElement.slice_labels(q, d, k)
            self.memo[key] = full_image_echelon(
                q, full_coha_pairs(q, d), CohaElement.slice_labels, CohaElement.weight_form, schur_mul, k, labels, self.complement
            )
        return self.memo[key]

    def complement(self, quiver, d, k):
        """`coha.generator_complement` on `ideal`."""
        key = ("complement", d, k)
        if key not in self.memo:
            labels = CohaElement.slice_labels(quiver, d, k)
            if CohaElement.slice_degree(quiver, d, k) is None or sum(d) <= 1:
                self.memo[key] = labels
            else:
                self.memo[key] = full_complement(self.ideal(d, k).copy(), labels)
        return self.memo[key]

    def wprim(self, e, k):
        """`cohm._wprim_slice`: (rank, complement labels) of every product of
        H_+ . M into the (e, k) slice."""
        q = self.quiver
        labels = CohmElement.slice_labels(q, e, k)
        ech = full_image_echelon(
            q, full_cohm_pairs(q, e), CohmElement.slice_labels, CohmElement.weight_form, schur_act, k, labels, self.complement
        )
        return ech.rank, full_complement(ech.copy(), labels)


def same_span(ech, full):
    """ech and full, echelons on the same labels, span the same space: equal
    rank, and every pivot row of full reduces to zero against ech.  Equal
    pivot positions would not do: two spans can share them."""
    assert ech.labels == full.labels
    probe = ech.copy()
    return ech.rank == full.rank and not any(
        probe.add({full.labels[i]: v for i, v in row.items()}) for row in full.pivots.values()
    )


def full_complement(ech, labels):
    """The unit-row complement without its shortcut for a full echelon: the
    labels whose unit rows raise the rank when added in order (ech is
    extended)."""
    return [lab for lab in labels if ech.add({lab: 1})]


def quotient_involution_matrix(quiver, d, k):
    """Matrix of S_H on V_(d,k) = H_(d,k)/ideal (sigma(d) = d): row j holds
    the coordinates of S_H(c_j) in the stored complement basis c.  This is
    how `coha.equivariant_dt` read the eigenspaces before it took them from
    ranks.  The solve keeps, with every pivot row, its coordinates modulo the
    ideal: none for an ideal row, e_j - (the reduction) for c_j.  Rows are in
    Schur coordinates filed on the positions of the slice labels, where S_H
    moves each node's partition to its sigma image with the sign (-1)^(total
    size); the ideal's pivots are integer rows led by their largest
    position, so the solve divides by each lead in Fractions."""
    gens = generator_complement(quiver, d, k)
    index = {lab: i for i, lab in enumerate(CohaElement.slice_labels(quiver, d, k))}
    ideal = _ideal_echelon(quiver, d, k).pivots if sum(d) > 1 else {}
    pivots = {lead: (row, {}) for lead, row in ideal.items()}

    def reduce(row):
        # returns (residual, coordinates of row - residual)
        row, coords = dict(row), {}
        while row and max(row) in pivots:
            lead = max(row)
            prow, pcoords = pivots[lead]
            c = Fraction(row[lead]) / prow[lead]
            for key, v in prow.items():
                w = row.get(key, 0) - c * v
                if w:
                    row[key] = w
                else:
                    row.pop(key, None)
            for j, v in pcoords.items():
                coords[j] = coords.get(j, 0) + c * v
        return row, coords

    for j, c in enumerate(gens):
        res, coords = reduce({index[c]: 1})
        lead = max(res)
        top = Fraction(res[lead])
        coords = {i: -v for i, v in coords.items()}
        coords[j] = coords.get(j, 0) + 1
        pivots[lead] = ({key: v / top for key, v in res.items()}, {i: v / top for i, v in coords.items()})
    mat = []
    for c in gens:
        sign, image = s_label(quiver, c)
        res, coords = reduce({index[image]: sign})
        if res:
            raise HallforgeError("S_H does not preserve ideal + complement span")
        mat.append([coords.get(i, Fraction(0)) for i in range(len(gens))])
    return mat


# -- the power chains of the series layer ---------------------------------------
#
# `QSeries.inverse`, `QSeries.log`, `invert_pochhammer_factorization` and
# `pochhammer_q2_product` solve one triangular recurrence each; these are the
# power-series sums and repeated products they replaced.


def round_chain_windows(x):
    """Windows of sum_j c_j x^j as `series._chain_windows` found them before
    it settled the classes in one pass: those of 1, x, x^2, ..., each
    power's from the last by the product rule (`series._windows`), until
    they repeat.  x keeps its zero class, so a power's windows hold every
    earlier power's and a class of size s is settled at x^(s + 1)."""
    pw = {x.quiver.zero(): (0, None)}
    for _ in range(x.maxdim + 1):
        prev, pw = pw, _windows(pw, x.meta, x.maxdim)[0]
        if pw == prev:
            break
    return pw


def check_chain_windows(monkeypatch):
    """Route every `series._chain_windows` call through a comparison with
    `round_chain_windows`; the returned list holds the class count of each
    compared call."""
    one_pass = series_module._chain_windows
    seen = []

    def checked(x):
        got = one_pass(x)
        assert got == round_chain_windows(x), (x.rows, x.meta)
        seen.append(len(got))
        return got

    monkeypatch.setattr(series_module, "_chain_windows", checked)
    return seen


def dict_triangular(order, factor, first, need, divide=False):
    """`series._triangular` as it summed each class in a dict and sorted it,
    its weights bounded by (|d| + 1) times the largest |k| of the data; a
    division with a remainder raises at the first such weight it summed."""
    big = (1 + max(map(sum, order))) * max(
        [abs(k) for row in (*factor.values(), *first.values()) for k, _ in row], default=0
    )
    X = {}
    for d in order:
        top = big if need[d] is None else need[d]
        acc = {k: c for k, c in first.get(d, ()) if k <= top}
        if any(d):
            for f, fl in factor.items():
                xl = X.get(tuple(a - b for a, b in zip(d, f)))
                if not xl:
                    continue
                for k1, c1 in fl:
                    room = top - k1
                    if xl[0][0] > room:
                        break
                    for k2, c2 in xl:
                        if k2 > room:
                            break
                        acc[k1 + k2] = acc.get(k1 + k2, 0) - c1 * c2
            if divide:
                w = sum(d)
                for k, c in acc.items():
                    if c % w:
                        raise NonIntegralError("inexact division by %d at class %r weight %d" % (w, d, k))
                    acc[k] = c // w
        X[d] = sorted(kc for kc in acc.items() if kc[1])
    return X


def dict_term_half(cuts, signed):
    """`series._term_half` as it summed each class in a dict, {class: {k: c}},
    before `series._rows` sorted it."""
    acc = {}
    for d, tw, ta, tb, room in cuts:
        out = acc.setdefault(d, {})
        negate = signed and tw % 2
        for k1, c1 in ta:
            rest = room - k1
            if negate:
                c1 = -c1
            k1 += tw
            for k2, c2 in tb:
                if k2 > rest:
                    break
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return acc


def dict_convolve(a, b, out_kind, lift=None, signed=False):
    """`QSeries._convolve` on the dict term half (`dict_term_half`), with no
    cap: the cuts of every class pair at its target window."""
    maxdim = min(a.maxdim, b.maxdim)
    meta, pairs = _windows(a.meta, b.meta, maxdim, lift)
    cuts = []
    for d1, d2, d, tw in pairs:
        ta, tb = a.rows.get(d1), b.rows.get(d2)
        if ta and tb:
            hi = meta[d][1]
            room = ta[-1][0] + tb[-1][0] if hi is None else hi - tw
            cuts.append((d, tw, [kc for kc in ta if kc[0] + tb[0][0] <= room], tb, room))
    return QSeries(a.quiver, out_kind, maxdim, _rows(dict_term_half(cuts, signed)), meta)


def typed_rows(rows):
    """Rows with each coefficient's type, so that 2 and Fraction(2) differ."""
    return {d: [(k, c, type(c)) for k, c in row] for d, row in rows.items()}


def check_dense_kernels(monkeypatch):
    """Route every `series._term_half` and `series._triangular` call through a
    comparison with the dict kernels (`dict_term_half`, `dict_triangular`):
    the same rows, coefficient types included, or a NonIntegralError from
    both at the same class.  The returned list names each compared call."""
    term_half, triangular = series_module._term_half, series_module._triangular
    seen = []

    def checked_term_half(cuts, spans, signed):
        got = term_half(cuts, spans, signed)
        assert typed_rows(got) == typed_rows(_rows(dict_term_half(cuts, signed))), cuts
        seen.append("product")
        return got

    def checked_triangular(order, factor, first, need, divide=False):
        try:
            want = dict_triangular(order, factor, first, need, divide)
        except NonIntegralError as exc:
            want = str(exc).split(" weight ")[0]
        try:
            got = triangular(order, factor, first, need, divide)
        except NonIntegralError as exc:
            assert str(exc).split(" weight ")[0] == want
            seen.append("inexact")
            raise
        assert not isinstance(want, str), want
        assert typed_rows(got) == typed_rows(want), (factor, first, need)
        seen.append("recurrence")
        return got

    monkeypatch.setattr(series_module, "_term_half", checked_term_half)
    monkeypatch.setattr(series_module, "_triangular", checked_triangular)
    return seen


def chain_inverse(series):
    """1/A = sum_j (-x)^j, x = A - 1, one `cmul` per power up to x^(maxdim + 1),
    whose windows settle the classes of size maxdim (x keeps a zero class)."""
    x = series._nilpotent_part("inverse")
    out = QSeries.one(series.quiver, series.kind, series.maxdim)
    pw = QSeries.one(series.quiver, series.kind, series.maxdim)
    for j in range(1, series.maxdim + 2):
        pw = pw.cmul(x)
        out = out + pw.scale((-1) ** j)
    return out


def chain_log(series):
    """log A = sum_j (-1)^(j+1) x^j / j, x = A - 1, in Fractions, up to
    x^(maxdim + 1) as `chain_inverse`."""
    x = series._nilpotent_part("log")
    out = QSeries(series.quiver, series.kind, series.maxdim, {}, {series.quiver.zero(): (0, None)})
    pw = QSeries.one(series.quiver, series.kind, series.maxdim)
    for j in range(1, series.maxdim + 2):
        pw = pw.cmul(x)
        out = out + pw.scale(Fraction((-1) ** (j + 1), j))
    return out


def chain_invert_pochhammer_factorization(series):
    """The factorization inversion on `chain_log`, with Fraction echoes m/n."""
    L = chain_log(series)
    table = {}
    raw = {}  # class -> {k: multiplicity}, filled in layer by layer
    validity = {}
    per_class = L.rows
    for D in sorted(L.meta, key=lambda d: (sum(d), d)):
        if not any(D):
            continue
        lau = dict(per_class.get(D, ()))
        hi = L.hi(D)
        if hi is None:
            hi = max(lau, default=0)
        # subtract the n >= 2 echoes of smaller classes
        for n in range(2, gcd(*D) + 1):
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
            raw.setdefault(D, {})[k] = int(c)
            table[(D, k)] = int(c) * sign_pow(k)
        validity[D] = hi
    return InvariantTable(series.quiver, series.kind, table, validity, series.maxdim)


def inverse_q2_pochhammer(quiver, k0, dvec, maxdim, window):
    """1 / (q^(k0/2) xi^dvec ; q^2)_inf, truncated as `qpochhammer_inf`: the
    coefficient of xi^(n*dvec) is q^(n*k0/2) / prod_{j=1..n} (1 - q^(2j))."""
    classes = []
    for n in range(1, maxdim // sum(dvec) + 1):
        steps = [4 * j for j in range(1, n + 1)]
        classes.append((tuple(n * x for x in dvec), n * k0, 1, steps))
    return _closed_form(quiver, MODULE, maxdim, window, None, classes)


def loop_q2_windows(signed_table, maxdim, window):
    """The windows (`meta`) of `pochhammer_q2_product`: each factor's
    windows combined into the product abs(power) times, one `_windows`
    call each, and then capped by the table's validity."""
    quiver = signed_table.quiver
    zero = quiver.zero()
    meta = {zero: (0, None)}
    for (e, k), (plus, minus) in signed_table.sorted_entries():
        if sum(e) > maxdim or not any(e):
            continue
        for k0, mult in ((k, plus), (k + 2, minus)):
            power = -mult * sign_pow(k)
            fmeta = {zero: (0, None)}
            for n in range(1, maxdim // sum(e) + 1):
                lo = n * k0 + (2 * n * (n - 1) if power > 0 else 0)
                fmeta[tuple(n * x for x in e)] = (lo, lo + 3 * window)
            for _ in range(abs(power)):
                meta = _windows(meta, fmeta, maxdim)[0]
    for d, (lo, hi) in meta.items():
        for e0, top in signed_table.validity.items():
            if any(e0) and all(a <= b for a, b in zip(e0, d)):
                hi = _min_hi(hi, top + meta.get(tuple(b - a for a, b in zip(e0, d)), (0,))[0])
        meta[d] = (lo, hi)
    return meta


def chain_pochhammer_q2_product(signed_table, maxdim, window):
    """`pochhammer_q2_product` as one `cmul` per factor, each factor raised to
    its power by squaring; the capped windows keep no term above them."""
    quiver = signed_table.quiver
    out = QSeries.one(quiver, MODULE, maxdim)
    for (e, k), (plus, minus) in signed_table.sorted_entries():
        if sum(e) > maxdim or not any(e):
            continue
        for k0, mult in ((k, plus), (k + 2, minus)):
            power = -mult * sign_pow(k)
            if power > 0:
                out = out.cmul(qpochhammer_inf(quiver, MODULE, k0, e, maxdim, 3 * window, base=2).power(power))
            elif power < 0:
                out = out.cmul(inverse_q2_pochhammer(quiver, k0, e, maxdim, 3 * window).power(-power))
    if signed_table.validity:
        meta = {}
        for d, (lo, hi) in out.meta.items():
            cap = hi
            for e0, top in signed_table.validity.items():
                if sum(e0) == 0 or any(a > b for a, b in zip(e0, d)):
                    continue
                base = out.meta.get(tuple(b - a for a, b in zip(e0, d)), (0,))[0]
                cap = _min_hi(cap, top + base)
            meta[d] = (lo, cap)
        terms = {(d, k): c for (d, k), c in out.terms.items() if meta[d][1] is None or k <= meta[d][1]}
        out = series_from_terms(quiver, MODULE, maxdim, terms, meta)
    return out


# -- products in Schur coordinates through polynomials -------------------------


def lead_product(f, fside, g, gside, nvars):
    """sum over the labels a of f and b of g of f_a g_b x^lead(a) x^lead(b),
    a Poly in nvars variables whose bound is the largest lead exponent of
    either side: `symfun.lead_terms` as a polynomial, the leads read by
    `_lead_key` off the slots of the sides (slots, lead table)."""
    terms = {}
    right = [(_lead_key(b, gside[0]), cb) for b, cb in g.items()]
    top = max([tb for (_, _, tb), _ in right], default=0)
    for a, ca in f.items():
        ka, sa, ta = _lead_key(a, fside[0])
        top = max(top, ta)
        for (kb, sb, _), cb in right:
            k = ka + kb
            terms[k] = terms.get(k, 0) + sa * sb * ca * cb
    return Poly(nvars, {k: c for k, c in terms.items() if c}, top)


def straighten_terms(terms, blocks):
    """partial_w0 on each block (offset, size) of a polynomial's terms, in
    Schur coordinates, with the block cuts computed per call."""
    out = {}
    cuts = [(SHIFT * off, (1 << (SHIFT * size)) - 1, size) for off, size in blocks]
    for key, c in terms.items():
        label = []
        for shift, mask, size in cuts:
            r = _straightener(size)((key >> shift) & mask)
            if r is None:
                break
            if r[0] < 0:
                c = -c
            label.append(r[1])
        else:
            label = tuple(label)
            v = out.get(label, 0) + c
            if v:
                out[label] = v
            else:
                del out[label]
    return out


# the integrand builder and the target degree of the product (CohaElement)
# and of the action (CohmElement), for the references over one integrand
PRODUCTS = {
    CohaElement: (_mul_integrand, lambda quiver, d1, d2: add_classes(d1, d2)),
    CohmElement: (_act_integrand, lambda quiver, d, e: add_classes(quiver.hyperbolic(d), e)),
}


def poly_push(cls, quiver, d1, f, d2, g):
    """`coha.schur_mul` (cls CohaElement) or `cohm.schur_act` (cls
    CohmElement) through polynomials: the lead product times the cached
    integrand's kernel by `Poly.__mul__`, with fixed nodes the B_D push of
    the summed terms and the deferred factors by `Poly.__mul__`, then
    straightened on blocks read off the layout of the target."""
    build, target = PRODUCTS[cls]
    it = build(quiver, d1, d2)
    product = lead_product(f, it.fside, g, it.gside, it.kernel.n) * it.kernel
    if it.fixed:
        pushed = {}
        for key, c in product.terms.items():
            for shift, mask, dn, m in it.fixed:
                block = (key >> shift) & mask
                r = _type_b_push(block, dn, m)
                if r is None:
                    break
                if r[0] < 0:
                    c = -c
                key += (r[1] - block) << shift
            else:
                v = pushed.get(key, 0) + c
                if v:
                    pushed[key] = v
                else:
                    del pushed[key]
        product = Poly(it.kernel.n, pushed, product.bound) * it.deferred
    degree = target(quiver, d1, d2)
    offsets, _ = cls.layout(quiver, degree)
    blocks = [(offsets[n], size) for n, _, size in cls.blocks(quiver, degree)]
    return straighten_terms(product.terms, blocks)


def pair_loop_push(integrand, leads, top):
    """`symfun._push` of an integrand over every pair of a lead and a
    kernel term, each fixed node's B_D push dropping the pairs with an even
    y exponent; the parity groups are not read."""
    kernel, fixed, cuts = integrand.kernel, integrand.fixed, integrand.cuts
    bound = mul_bound(kernel.n, leads, top, kernel.terms, kernel.bound)
    if not fixed:
        return straighten_blocks(leads, kernel.terms, cuts)
    pushed = {}
    for k1, c1 in leads.items():
        for k2, c2 in kernel.terms.items():
            key, c = k1 + k2, c1 * c2
            for shift, mask, dn, m in fixed:
                block = (key >> shift) & mask
                r = _type_b_push(block, dn, m)
                if r is None:
                    break
                if r[0] < 0:
                    c = -c
                key += (r[1] - block) << shift
            else:
                v = pushed.get(key, 0) + c
                if v:
                    pushed[key] = v
                else:
                    del pushed[key]
    deferred = integrand.deferred
    check_push_work(len(pushed) * len(deferred.terms), sum(dn + m for _, _, dn, m in fixed))
    mul_bound(kernel.n, pushed, bound, deferred.terms, deferred.bound)
    return straighten_blocks(pushed, deferred.terms, cuts)


# -- the element products through F * G * K ------------------------------------------


def _on_slots(poly, side, nvars):
    """poly in nvars variables, its variables in order on the slots
    (first, size, step, shift, sign) of a side (slots, lead table), each
    times sign."""
    return poly.map_variables(nvars, [(sign, first + j) for first, size, _, _, sign in side[0] for j in range(size)])


def fg_integrand(integrand, fpoly, gpoly):
    """A cached integrand built with f and g: its kernel sign * K replaced
    by sign * F * G * K, F = f on the signed f lead slots (x'_n -> -z on a
    Q0^- node of the action) and G = g on the g lead slots; a type D
    node's prod y_l stays the shift of its f lead slots.  F * G multiplies
    the cached sign * K: the same polynomial as the arrow numerators
    multiplied into sign * F * G one linear factor at a time.  The parity
    groups, those of K, are dropped."""
    kernel = integrand.kernel
    total = kernel * _on_slots(fpoly, integrand.fside, kernel.n) * _on_slots(gpoly, integrand.gside, kernel.n)
    return integrand._replace(kernel=total, parity=None)


def _unit_leads(fside, gside):
    """The leads of the unit labels (x'^delta x''^delta, the type D shift
    and a fixed node's z^(2 delta)) under the slots of two sides."""
    return lead_terms({((),) * len(fside[0]): 1}, fside, {((),) * len(gside[0]): 1}, gside)


def fgk_product(cls, f, g):
    """`coha.shuffle_mul` (cls CohaElement) or `cohm.cohm_action` (cls
    CohmElement) through F * G * K: the integrand built with f and g
    (`fg_integrand`) pushed from the leads of the unit labels over every
    pair (`pair_loop_push`), and the row expanded."""
    build, target = PRODUCTS[cls]
    quiver = f.quiver
    it = fg_integrand(build(quiver, f.degree, g.degree), f.poly, g.poly)
    leads, top = _unit_leads(it.fside, it.gside)
    return cls.from_labels(quiver, target(quiver, f.degree, g.degree), pair_loop_push(it, leads, top))


# -- the factorization check per module class ------------------------------------------


def per_class_factorization_rhs(quiver, maxdim, window):
    """sum_e A_Q(e) Omega^sigma_{Q,e} xi^e as `cohm.general_factorization_check`
    summed it before it grouped the classes by Witt class: one `cmul` and
    one `__add__` per module class e with a nonzero Omega row, A_Q(e)
    computed once per Witt class."""
    from hallforge.cohm import equivariant_dt, ori_dt_invariants, witt_representative
    from hallforge.series import module_classes, pochhammer_q2_product

    table = ori_dt_invariants(quiver, maxdim, window).table()
    rhs, acache, by_class = QSeries(quiver, MODULE, maxdim, {}, {}), {}, {}
    for (e, k), m in table.entries.items():
        by_class.setdefault(e, {})[k] = m
    for e in module_classes(quiver, maxdim):
        lau = by_class.get(e)
        if not lau:
            continue
        w = quiver.witt_class(e)
        if w not in acache:
            sig = equivariant_dt(quiver, witt_representative(quiver, w), maxdim, window)
            acache[w] = pochhammer_q2_product(sig, maxdim, window)
        factor = QSeries(
            quiver, MODULE, maxdim,
            {e: [(k, m * sign_pow(k)) for k, m in sorted(lau.items())]},
            {e: (min(lau), table.validity.get(e))},
        )
        rhs = rhs + acache[w].cmul(factor)
    return rhs


# -- the divided-difference operators ------------------------------------------------


def divided_difference(p, i, step=1):
    """(P - s_i P) / (x_i^step - x_{i+1}^step), term by term with no division.

    For a > b, x_i^a x_{i+1}^b maps to (x_i x_{i+1})^b times
    sum_{j<(a-b)/step} x_i^(a-b-step-step*j) x_{i+1}^(step*j); for a < b it
    maps to minus the same with a and b swapped; for a == b to 0.  With
    step = 2 this is the operator in squared variables, and a - b must be
    even.
    """
    shi = SHIFT * i
    shj = shi + SHIFT
    move = step * ((1 << shj) - (1 << shi))
    out = {}
    for k, c in p.terms.items():
        a = (k >> shi) & MASK
        b = (k >> shj) & MASK
        if a == b:
            continue
        kk = k - (a << shi) - (b << shj)
        if a < b:
            a, b, c = b, a, -c
        gap, odd = divmod(a - b, step)
        if odd:
            raise InexactDivisionError("divided difference left remainder")
        # from x_i^(a-step) x_{i+1}^b on, trade x_i^step for x_{i+1}^step
        kk += ((a - step) << shi) + (b << shj)
        for _ in range(gap):
            v = out.get(kk, 0) + c
            if v:
                out[kk] = v
            else:
                del out[kk]
            kk += move
    return Poly(p.n, out, p.bound)


def shuffle_push(p, start, d1, d2, step=1):
    """Sum over (d1, d2)-shuffles w of w(P / prod(x'^step - x''^step)),
    for P symmetric in the d1 slots x' from `start` on and in the d2 slots
    x'' after them: the divided differences at slots j..j+d2-1 for
    j = d1-1 down to 0 (the push-forward along a Grassmannian)."""
    for j in range(d1 - 1, -1, -1):
        for i in range(j, j + d2):
            p = divided_difference(p, start + i, step)
    return p


def flip(p, i):
    """(P - P|_{x_i -> -x_i}) / (2 x_i): the terms odd in x_i, lowered by one."""
    sh = SHIFT * i
    one = 1 << sh
    return Poly(p.n, {k - one: c for k, c in p.terms.items() if (k >> sh) & 1}, p.bound)


def double_exponents(p):
    """z -> z^2 on every variable (BCD squared basis)."""
    if 2 * p.bound > MAXDEG:
        raise ExponentOverflowError("packed exponent range exceeded")
    return Poly(p.n, {2 * k: c for k, c in p.terms.items()}, 2 * p.bound)


def full_divided_difference(p, n):
    """partial_w0 on the first n variables, along the reduced word s_1,
    s_2 s_1, ..., s_(n-1) ... s_1 of w0."""
    for k in range(1, n):
        for i in range(k, 0, -1):
            p = divided_difference(p, i - 1)
    return p


def dd_schur(lam, n):
    """s_lam in n variables as partial_w0(x^(lam + delta)), the divided
    differences of a single monomial."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    return full_divided_difference(from_exponents(n, {tuple(x + n - 1 - i for i, x in enumerate(lam)): 1}), n)


# -- polynomial factors one at a time --------------------------------------------------


def mul_powers(p, factor, step):
    """p times a factor given as its terms (packed c x_i^step), one pass over
    the terms of p: the per-factor reference of `poly.expand_factors`, with
    the same MAX_POLY_PAIRS charge and exponent bound."""
    _check_pairs(len(p.terms) * len(factor))
    bound = p.bound + step
    if bound > MAXDEG:
        bound = mul_bound(p.n, p.terms, p.bound, dict(factor), step)
    return Poly(p.n, _mul_terms(factor, p.terms), bound)


def mul_linear(p, ca, a, cb=None, b=None):
    """p times ca*x_a (+ cb*x_b), without building the factor."""
    first = (1 << (SHIFT * a), _num(ca))
    return mul_powers(p, (first,) if b is None else (first, (1 << (SHIFT * b), _num(cb))), 1)


def mul_square_difference(p, a, b):
    """p times x_a^2 - x_b^2 (a != b), without building the factor."""
    return mul_powers(p, ((2 << (SHIFT * a), 1), (2 << (SHIFT * b), -1)), 2)


def chain_mul_integrand(quiver, d1, d2):
    """sign * K of `coha._mul_integrand`, one `mul_linear` per arrow factor
    from the constant sign on."""
    offsets, nvars = CohaElement.layout(quiver, add_classes(d1, d2))
    mid = {n: offsets[n] + d1[quiver.node_index[n]] for n in quiver.nodes}
    return _arrow_numerators(quiver, offsets, mid, d1, d2, Poly.const(nvars, sign_pow(sum(a * b for a, b in zip(d1, d2)))))


def chain_act_integrand(quiver, d, e):
    """(sign * K, the deferred product) of `cohm._act_integrand`, one
    `mul_linear` or `mul_square_difference` per factor in the order they
    are met (`_direct_action_integrand`), K scaled by the sign of the
    pushes."""
    idx, et = quiver.node_index, add_classes(quiver.hyperbolic(d), e)
    _, kernel, _, deferred = _direct_action_integrand(quiver, d, e)
    sign = 1
    for n in quiver.q0_plus:
        dn, en, dsn = d[idx[n]], e[idx[n]], d[idx[quiver.sigma_nodes[n]]]
        sign *= sign_pow(dn * en + dn * dsn + en * dsn)
    for n in quiver.q0_sigma:
        D, typ = d[idx[n]], _fixed_node_type(quiver, n, et[idx[n]])
        sign *= sign_pow(D * (D + 1) // 2 + (typ == "D") * D) << (0 if typ == "C" else D)
    return kernel.scale(sign), deferred


# -- the element products with their own layouts and signs ---------------------------


def _arrow_numerators(quiver, offsets, mid, d1, d2, total):
    """total times K = prod_{a: t->h} prod (x''_{h,b} - x'_{t,a'}), with
    x'_{n,a} at slot offsets[n] + a and x''_{n,b} at mid[n] + b."""
    idx = quiver.node_index
    for _, t, h in quiver.arrows:
        for b in range(d2[idx[h]]):
            for a in range(d1[idx[t]]):
                total = mul_linear(total, 1, mid[h] + b, -1, offsets[t] + a)
    return total


def direct_shuffle_mul(f, g):
    """`coha.shuffle_mul` by divided differences, with its own layout and
    sign: f and g on their slots times the arrow numerators, one
    `shuffle_push` per node, and the sign (-1)^(sum d1 d2) scaled in at the
    end."""
    quiver = f.quiver
    idx = quiver.node_index
    d = add_classes(f.d, g.d)
    offsets, nvars = CohaElement.layout(quiver, d)
    if f.is_zero() or g.is_zero():
        return CohaElement(quiver, d, Poly.zero(nvars), check=False)
    mid = {n: offsets[n] + f.d[idx[n]] for n in quiver.nodes}
    fmap = [(1, offsets[n] + a) for n in quiver.nodes for a in range(f.d[idx[n]])]
    gmap = [(1, mid[n] + b) for n in quiver.nodes for b in range(g.d[idx[n]])]
    total = f.poly.map_variables(nvars, fmap) * g.poly.map_variables(nvars, gmap)
    total = _arrow_numerators(quiver, offsets, mid, f.d, g.d, total)
    sign = 1
    for n in quiver.nodes:
        d1, d2 = f.d[idx[n]], g.d[idx[n]]
        total = shuffle_push(total, offsets[n], d1, d2)
        if d1 * d2 % 2:
            sign = -sign
    return CohaElement(quiver, d, total.scale(sign), check=False)


def _direct_action_integrand(quiver, d, e, fpoly=None, gpoly=None):
    """(block offsets, F * G * K, deferred pairs, deferred product) of the
    action H_d x M_e at the identity sigma-shuffle, unsigned and without
    type D's prod(-y_l), one `mul_linear` or `mul_square_difference` per
    factor (K alone without f and g): in order the (fixed node, y, z) slots
    of the factors y^2 - z^2 that wait for the end of its B_D/S_D push, and
    their product prod (u_y - v_z), each factor multiplied in where it is
    met, between the factors of K."""
    idx = quiver.node_index
    et = add_classes(quiver.hyperbolic(d), e)
    off, nvars = CohmElement.layout(quiver, et)
    fixed = set(quiver.q0_sigma)
    xp, zs, gmap = {}, {}, []
    for n in quiver.nodes:
        if n not in off:
            continue
        sn, o, dn = quiver.sigma_nodes[n], off[n], d[idx[n]]
        cnt = e[idx[n]] // 2 if n in fixed else e[idx[n]]
        for l in range(dn):
            xp[(n, l)] = (1, o + l)
        for k in range(cnt):
            zs[(n, k)] = (1, o + dn + k)
            zs[(sn, k)] = (1 if sn == n else -1, o + dn + k)
            gmap.append((1, o + dn + k))
        if sn != n:
            for m in range(d[idx[sn]]):
                xp[(sn, m)] = (-1, o + dn + cnt + m)

    def xs(n):
        return [xp[(n, l)] for l in range(d[idx[n]])]

    fmap = [x for n in quiver.nodes for x in xs(n)]
    total = Poly.const(nvars, 1) if fpoly is None else fpoly.map_variables(nvars, fmap) * gpoly.map_variables(nvars, gmap)
    after_push, deferred = [], Poly.const(nvars, 1)

    def lin(u, v):
        nonlocal total
        total = mul_linear(total, u[0], u[1], -v[0], v[1])

    def mono(c, u):
        nonlocal total
        total = mul_linear(total, c * u[0], u[1])

    def neg(u):
        return (-u[0], u[1])

    def v_tilde(i, points, gl):
        nonlocal total, deferred
        cnt = e[idx[i]] // 2 if i in fixed else e[idx[i]]
        own = i in fixed and points == xs(i)
        for x in points:
            for k in range(cnt):
                z = zs[(i, k)]
                if own:
                    after_push.append((i, x[1], z[1]))
                    deferred = mul_linear(deferred, 1, x[1], -1, z[1])
                elif i in fixed:
                    total = mul_square_difference(total, x[1], z[1])
                else:
                    gl(x, z)
            if i in fixed and e[idx[i]] % 2:
                mono(-1, x)

    plus_arrows = set(quiver.arrow_partition[2])
    for aid, t, h in quiver.arrows:
        if quiver.sigma_arrows[aid] == aid:
            x = xs(t)
            v_tilde(h, x, lambda u, z: lin(z, u))
            strict = quiver.s[h] * quiver.tau[aid] == -1
            for j in range(len(x)):
                if not strict:
                    mono(-2, x[j])
                for k in range(j + 1, len(x)):
                    lin(neg(x[j]), x[k])
        elif aid in plus_arrows:
            y = xs(quiver.sigma_nodes[h])
            v_tilde(t, y, lambda u, z: lin(neg(u), z))
            v_tilde(h, xs(t), lambda u, z: lin(z, u))
            for u in y:
                for x in xs(t):
                    lin(neg(u), x)
    return off, total, after_push, deferred


def direct_cohm_action(f, g):
    """`cohm.cohm_action` by divided differences and flips, with its own
    sign and deferred factors: the Q0^+ pushes and their block signs, then per fixed node prod(-y_l) for
    type D, the B_D / S_D push, its factors y^2 - z^2 one
    `mul_square_difference` each, the squared `shuffle_push` and the
    scalar (-1)^(D(D+1)/2), times 2^D for types B and D."""
    quiver = f.quiver
    d, e = f.d, g.e
    et = add_classes(quiver.hyperbolic(d), e)
    if f.is_zero() or g.is_zero():
        return CohmElement(quiver, et, Poly.zero(CohmElement.layout(quiver, et)[1]), check=False)
    idx = quiver.node_index
    off, total, after_push, _ = _direct_action_integrand(quiver, d, e, f.poly, g.poly)
    sign = 1
    for n in quiver.q0_plus:
        o, dn, en = off[n], d[idx[n]], e[idx[n]]
        dsn = d[idx[quiver.sigma_nodes[n]]]
        total = shuffle_push(shuffle_push(total, o, dn, en), o, dn + en, dsn)
        if (dn * en + dn * dsn + en * dsn) % 2:
            sign = -sign
    for n in quiver.q0_sigma:
        o, D = off[n], d[idx[n]]
        typ = _fixed_node_type(quiver, n, et[idx[n]])
        if typ == "D":
            for l in range(D):
                total = mul_linear(total, -1, o + l)
        for k in range(D):
            total = flip(total, o + D - 1)
            for i in range(D - 2, k - 1, -1):
                total = divided_difference(total, o + i)
        for y, z in [(y, z) for m, y, z in after_push if m == n]:
            total = mul_square_difference(total, y, z)
        total = shuffle_push(total, o, D, e[idx[n]] // 2, step=2)
        if D * (D + 1) // 2 % 2:
            sign = -sign
        if typ != "C":
            sign <<= D
    return CohmElement(quiver, et, total.scale(sign), check=False)


# -- PBW products through a suffix memo -------------------------------------------


def memo_pbw_report(rs, cls, act, step, words, bound, window, dims):
    """`finite_type._pbw_report` as it shared suffix products through a
    memo keyed by (seed class, suffix word), each product computed by a
    recursive closure when a whole word reaches its leaf: the oracle of the
    letter trie, same signature.  Slice report of the products of `words`
    that land in the window.

    A word is (seed, slots): letter slots (root, m, odd) that act right to
    left on the seed, a class whose unit the word starts from, or None for
    the unit of the algebra, which a word starts from its rightmost letter
    instead of multiplying.  A letter (root, lam, m) is the Schur image
    psi(s_lam) in m parts, and act(quiver, d, f, e, g) multiplies rows in
    Schur coordinates (schur_mul or schur_act).  The slots alone fix the
    classes of the word's suffixes and the shift chained by `step` over
    them, so each word within the bound gets the budget window // 2 - shift
    for its letter sizes, and each product lands in the slice k = 2 (sum of
    letter sizes + shift) + weight form of its class.  Steps, letters,
    letter partitions and weight forms are memoized for the report;
    products, rows, are shared through a memo of (seed class, suffix), and
    slice dimensions through dims, the check's memo (`_slice_report`).
    """
    quiver = rs.quiver
    buckets, zeros, reached, memo = {}, [], set(), {}
    steps, letters, forms, sized = {}, {}, {}, {}

    def psi(letter):
        if letter not in letters:
            letters[letter] = rs.psi(*letter)
        return letters[letter]

    def product(seed, e0, chain, word):
        """The row of `word` acting on the seed; chain[j] is the class of
        its last j letters acting on it."""
        if not word:
            return {tuple(() for _ in cls.blocks(quiver, e0)): 1}
        key = (e0, word)
        row = memo.get(key)
        if row is None:
            d, label = psi(word[0])
            rest = word[1:]
            if seed is None and not rest:
                row = {label: 1}
            else:
                row = act(quiver, d, {label: 1}, chain[len(rest)], product(seed, e0, chain, rest))
            memo[key] = row
        return row

    def rec(seed, e0, slots, chain, word, left, k):
        if len(word) == len(slots):
            _bucket(buckets, zeros, chain[-1], k, product(seed, e0, chain, word))
            return
        root, m, odd = slots[-1 - len(word)]
        key = (m, odd, left)
        if key not in sized:
            sized[key] = [(lam, sum(lam)) for lam in _letter_partitions(m, odd, left)]
        for lam, size in sized[key]:
            rec(seed, e0, slots, chain, ((root, lam, m),) + word, left - size, k + 2 * size)

    for seed, slots in words:
        e0 = quiver.zero() if seed is None else seed
        chain, shift = [e0], 0
        for root, m, _ in reversed(slots):
            key = (tuple(m * x for x in rs.dim_vector(root)), chain[-1])
            if key not in steps:
                steps[key] = step(quiver, *key)
            s, e = steps[key]
            chain.append(e)
            shift += s
        e = chain[-1]
        if all(x <= cap for x, cap in zip(e, bound)):
            reached.add(e)
            if window // 2 >= shift:
                if e not in forms:
                    forms[e] = cls.weight_form(quiver, e)
                rec(seed, e0, slots, chain, (), window // 2 - shift, 2 * shift + forms[e])
    return _slice_report(cls, quiver, buckets, zeros, reached, window, dims)


# -- the element JSON codec before it went straight to packed keys -------------------


def swap_variables(p, i, j):
    """p with the variables i and j exchanged (once `Poly.swap_variables`)."""
    shi, shj = SHIFT * i, SHIFT * j
    out = {}
    for k, c in p.terms.items():
        ei = (k >> shi) & MASK
        ej = (k >> shj) & MASK
        kk = k + ((ej - ei) << shi) + ((ei - ej) << shj)
        out[kk] = c
    return Poly(p.n, out, p.bound)


def even_in(p, i):
    """Whether every exponent of variable i is even (once `Poly.even_in`)."""
    sh = SHIFT * i
    return all((k >> sh) & 1 == 0 for k in p.terms)


def tuple_is_invariant(elem):
    """`GradedElement.is_invariant` by a swapped `Poly` per adjacent pair
    and `even_in` per BCD variable: the oracle of the term-dict test."""
    p, base = elem.poly, 0
    for _, kind, size in elem.blocks(elem.quiver, elem.degree):
        if kind == "BCD":
            for j in range(base, base + size):
                if not even_in(p, j):
                    return False
        for j in range(base, base + size - 1):
            if swap_variables(p, j, j + 1) != p:
                return False
        base += size
    return True


def tuple_to_json_dict(elem):
    """`GradedElement.to_json_dict` through `Poly.sorted_terms` and
    exponent tuples: the oracle of the one-pass encoder."""
    names = elem.var_names(elem.quiver, elem.degree)
    return {
        "d": list(elem.degree),
        "poly": [
            {"exp": {names[i]: e for i, e in enumerate(k) if e}, "c": str(c)}
            for k, c in elem.poly.sorted_terms()
        ],
    }


def tuple_from_json_dict(cls, quiver, doc):
    """`GradedElement.from_json_dict` through exponent tuples, `Fraction`
    coefficients and `from_exponents`, with the invariance check of
    `tuple_is_invariant`: the oracle of the one-pass decoder.  A negative
    exponent or one over MAXDEG raises ExponentOverflowError in a nonzero
    term and passes in a zero one."""
    if not (isinstance(doc, dict) and isinstance(doc.get("d"), list) and isinstance(doc.get("poly"), list)):
        raise GradingError('an element document is an object {"d": [...], "poly": [...]}')
    # exact input only: integers, and strings for coefficients; a float
    # or a bool (an int subclass) is refused, not rounded
    if any(type(x) is not int for x in doc["d"]):
        raise GradingError("degree %r is not a list of integers" % (doc["d"],))
    d = cls.check_degree(quiver, tuple(doc["d"]))
    names = {nm: i for i, nm in enumerate(cls.var_names(quiver, d))}
    terms = {}
    for t in doc["poly"]:
        if not (isinstance(t, dict) and isinstance(t.get("exp"), dict) and "c" in t):
            raise GradingError('poly term %r is not an object {"exp": {...}, "c": ...}' % (t,))
        key = [0] * len(names)
        c = t["c"]
        try:
            for nm, e in t["exp"].items():
                if type(e) is not int:
                    raise TypeError
                key[names[nm]] = e
            if type(c) is not int and type(c) is not str:
                raise TypeError
            key = tuple(key)
            if key in terms:
                raise GradingError("poly term %r repeats the monomial of an earlier term" % (t,))
            terms[key] = Fraction(c)
        except KeyError as exc:
            raise GradingError("unknown variable %s in degree %r" % (exc, d)) from None
        except (TypeError, ValueError, ZeroDivisionError):
            raise GradingError("poly term %r needs integer exponents and a rational coefficient" % (t,)) from None
    elem = cls(quiver, d, from_exponents(len(names), terms), check=False)
    if not tuple_is_invariant(elem):
        raise GradingError("polynomial is not Weyl invariant")
    return elem
