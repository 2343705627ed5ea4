"""Symmetric-function bases and the straightening rule.

A label, one partition per block, indexes a basis element of a slice: the
product over the blocks of s_lam (a GL block) or s_lam(z^2) (a BCD block,
invariant under signed permutations of the z's); `weight_labels` lists a
slice's labels.  Every push along a flag is read in these Schur
coordinates.  partial_w0 sends a monomial x^alpha to 0 when alpha has a
repeated entry, and otherwise to sign(w) s_(w(alpha) - delta), w the
permutation sorting alpha into strictly decreasing order (Macdonald I.3:
a_(lam + delta) = s_lam a_delta).  So a push is one sort per monomial: a
product builds no polynomial, as `lead_terms` packs its inputs' lead
monomials and `straighten_blocks` straightens each product of a lead term
and an integrand term as it is formed.  `expand_labels` turns a row of
labels back into its monomials by the branching rule (Macdonald I (5.11)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import ExponentOverflowError, HallforgeError
from .poly import MASK, MAXDEG, SHIFT, Poly, unpack_exponents
from .quiver import shared_memo


def partitions(total, max_parts, min_part=1):
    """All partitions of `total` into at most `max_parts` parts, as weakly
    decreasing tuples, in a fixed deterministic (descending-lex) order."""
    return list(_partitions(total, max_parts, min_part))


@shared_memo(1 << 12)
def _partitions(total, max_parts, min_part):
    if total == 0:
        return ((),)
    if max_parts == 0:
        return ()
    out = []

    def rec(rem, largest, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for p in range(min(largest, rem), min_part - 1, -1):
            prefix.append(p)
            rec(rem - p, p, prefix)
            prefix.pop()

    rec(total, total, [])
    return tuple(out)


def schur(lam, n, offset=0, ring_n=None, squared=False):
    """s_lam, or with squared=True s_lam(z^2), in the n variables
    offset..offset+n-1 of a ring with ring_n variables: one label's
    `expand_labels`."""
    ring_n = n if ring_n is None else ring_n
    lam = tuple(x for x in lam if x)
    terms, bound = expand_labels([("", "GL", offset), ("", "BCD" if squared else "GL", n)], {((), lam): 1})
    return Poly(ring_n, terms, bound)


def straighten(alpha):
    """partial_w0(x^alpha) in Schur coordinates: None when the exponent
    tuple alpha has a repeated entry, else (sign, lam) with
    partial_w0(x^alpha) = sign * s_lam, lam = sort(alpha) - delta without
    its trailing zeros and sign that of the sorting permutation."""
    n = len(alpha)
    srt = sorted(alpha, reverse=True)
    if any(srt[i] == srt[i + 1] for i in range(n - 1)):
        return None
    swaps = sum(alpha[i] < alpha[j] for i in range(n) for j in range(i + 1, n))
    lam = [x - (n - 1 - i) for i, x in enumerate(srt)]
    while lam and not lam[-1]:
        lam.pop()
    return 1 - 2 * (swaps % 2), tuple(lam)


@lru_cache(maxsize=None)
def _straightener(size):
    """`straighten` of a packed monomial block of size variables (SHIFT bits
    each, as `poly` packs them), memoized on the packed int: the pushes of
    one pass meet the same blocks many times.  There is one function per
    size, kept here for good; `clear_caches` empties its memo."""

    @shared_memo(1 << 16)
    def straightened(block):
        return straighten(unpack_exponents(block, size))

    return straightened


@shared_memo(1 << 12)
def lead(lam, n):
    """The exponents lam + delta of the monomial whose partial_w0 is s_lam
    in n variables."""
    return tuple((lam[i] if i < len(lam) else 0) + n - 1 - i for i in range(n))


@shared_memo(1 << 16)
def _lead_key(label, slots):
    """(packed x^lead, sign, largest exponent step * (lam_1 + size - 1) +
    shift) of a label under a slot layout, as `lead_terms` reads them;
    memoized, since the products of one pass pack the same labels under the
    same layouts many times."""
    key, sign, top = 0, 1, 0
    for lam, (first, size, step, shift, base) in zip(label, slots):
        for j, x in enumerate(lead(lam, size)):
            key += (step * x + shift) << (SHIFT * (first + j))
        if size:
            top = max(top, step * ((lam[0] if lam else 0) + size - 1) + shift)
        if base < 0 and sum(lam) % 2:
            sign = -sign
    return key, sign, top


def lead_terms(f, fslots, g, gslots):
    """(terms, top): the packed f_a g_b x^lead(a) x^lead(b) over the labels a
    of f and b of g, and the largest lead exponent, their bound.  The
    slots, a tuple, hold per partition of a label (first slot, number of
    variables, step, shift, sign base): a partition lam lays out step *
    (lam + delta) + shift from the first slot on, times base^|lam|.  The
    slots of f and g are disjoint and a lead monomial determines its label,
    so distinct label pairs give distinct terms.  A lead exponent over
    MAXDEG cannot be packed and raises ExponentOverflowError."""
    terms, top, right = {}, 0, []
    for b, cb in g.items():
        kb, sb, tb = _lead_key(b, gslots)
        top = max(top, tb)
        if cb:
            right.append((kb, sb * cb))
    for a, ca in f.items():
        ka, sa, ta = _lead_key(a, fslots)
        top = max(top, ta)
        if ca:
            ca *= sa
            for kb, cb in right:
                terms[ka + kb] = ca * cb
    if top > MAXDEG:
        raise ExponentOverflowError("lead exponent %d out of packed range" % top)
    return terms, top


def block_cuts(blocks):
    """(bit shift, bit mask, `_straightener`) of each block (offset, size)."""
    return tuple((SHIFT * off, (1 << (SHIFT * size)) - 1, _straightener(size)) for off, size in blocks)


def straighten_blocks(left, right, cuts):
    """partial_w0 on each block of the product of two term dicts (packed
    monomial -> coefficient, see `poly`), in Schur coordinates: {label:
    coeff}, the label the partitions of `straighten` on the `block_cuts`
    cuts, in label order, with the signs multiplied in; a monomial with a
    repeated exponent in some block drops out.  Straightening is linear, so
    each product of two terms is straightened as it is formed."""
    out = {}
    get = out.get
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            key, c = k1 + k2, c1 * c2
            label = []
            for shift, mask, straightened in cuts:
                r = straightened((key >> shift) & mask)
                if r is None:
                    break
                if r[0] < 0:
                    c = -c
                label.append(r[1])
            else:
                label = tuple(label)
                v = get(label, 0) + c
                if v:
                    out[label] = v
                else:
                    del out[label]
    return out


def add_box(lam, nparts):
    """The partitions lam + one box with at most nparts parts (Pieri:
    s_1 s_lam is their sum)."""
    padded = lam + (0,)
    return [
        lam[:i] + (padded[i] + 1,) + lam[i + 1 :]
        for i in range(min(len(lam) + 1, nparts))
        if i == 0 or lam[i - 1] > padded[i]
    ]


# -- graded bases -------------------------------------------------------------


def weight_labels(block_spec, degree):
    """Labels of the Schur basis of the invariant slice of given total
    polynomial degree: one partition per block, in a fixed deterministic
    order (blocks in order, the degree of each block ascending, then the
    order of `partitions`).

    block_spec: list of (label, kind, nvars) with kind in {"GL", "BCD"}.
    A GL block with partition lam contributes s_lam, of degree |lam|; a BCD
    block contributes s_lam(z^2), of degree 2|lam|.

    Only the labels of this degree are enumerated: the last block takes
    the degree the others leave, a block's tails (its partition followed
    by a tail of the later blocks, at the degree left) are listed once per
    (block, degree left) and shared by every choice of the earlier blocks,
    and a block's degree with no partition (more parts than variables) is
    skipped before its tails are listed.  So every tail built ends up in a
    label, and the cost is about the number of labels times the number of
    blocks.
    """
    if degree < 0:
        return []
    blocks = [(1 if kind == "GL" else 2, nv) for _, kind, nv in block_spec]
    if not blocks:
        return [()] if degree == 0 else []
    last = len(blocks) - 1
    memo = {}

    def tails(i, rem):
        key = (i, rem)
        out = memo.get(key)
        if out is None:
            step, nv = blocks[i]
            if i == last:
                out = [(lam,) for lam in _partitions(rem // step, nv, 1)] if rem % step == 0 else []
            else:
                out = []
                for deg in range(0, rem + 1, step):
                    parts = _partitions(deg // step, nv, 1)
                    if parts:
                        rest = tails(i + 1, rem - deg)
                        for lam in parts:
                            head = (lam,)
                            out += [head + t for t in rest]
            memo[key] = out
        return out

    return tails(0, degree)


def weight_basis_size(block_spec, degree):
    """The number of `weight_labels(block_spec, degree)`, without listing them."""
    if degree < 0:
        return 0
    counts = [1] + [0] * degree
    for (_, kind, nv) in block_spec:
        step = 1 if kind == "GL" else 2
        per = [0] * (degree + 1)
        for deg in range(0, degree + 1, step):
            per[deg] = len(_partitions(deg // step, nv, 1))
        new = [0] * (degree + 1)
        for a in range(degree + 1):
            if counts[a]:
                for b in range(0, degree + 1 - a):
                    if per[b]:
                        new[a + b] += counts[a] * per[b]
        counts = new
    return counts[degree]


# -- expansion ----------------------------------------------------------------


@shared_memo(1 << 12)
def _dominant(lam, n, step):
    """The dominant monomials of s_lam(x_1^step, ..., x_n^step), those with
    weakly decreasing exponents, packed, with their Kostka numbers: by the
    branching rule s_lam(x_1..x_n) = sum of x_n^|lam/mu| s_mu(x_1..x_(n-1))
    over the horizontal strips lam/mu (Macdonald I (5.11)), keeping the
    monomials whose last exponent is at most the one before it; lam has
    at most n parts."""
    if n < 2:
        return ((step * sum(lam), 1),)
    sh, size, out = SHIFT * (n - 1), sum(lam), {}
    padded = lam + (0,) * (n - len(lam))
    # lam_1 >= mu_1 >= lam_2 >= ... >= mu_(n-1) >= lam_n
    for mu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(n - 1))):
        last = step * (size - sum(mu))
        for key, kostka in _dominant(tuple(x for x in mu if x), n - 1, step):
            if (key >> (sh - SHIFT)) & MASK >= last:
                key += last << sh
                out[key] = out.get(key, 0) + kostka
    return tuple(out.items())


def _permutations(items):
    """The distinct orderings of the tuple items, each once: each distinct
    value in turn leads, followed by the orderings of the rest, so
    repeated entries are never permuted among themselves."""
    if not items:
        return [()]
    out = []
    for x in dict.fromkeys(items):
        i = items.index(x)
        out += [(x,) + p for p in _permutations(items[:i] + items[i + 1 :])]
    return out


@shared_memo(1 << 12)
def _orbit(block, n):
    """The packed monomials of the distinct permutations of a packed block
    of n variables."""
    return tuple(sum(x << (SHIFT * j) for j, x in enumerate(p)) for p in _permutations(unpack_exponents(block, n)))


def expand_labels(block_spec, row):
    """(terms, bound): the packed monomials of a row {label: coeff} of
    Schur coordinates over block_spec (as in `weight_labels`), the sum of
    coeff times the product over the blocks of s_lam (GL) or s_lam(z^2)
    (BCD), and their largest exponent.

    The row is symmetric in each block, so a monomial's coefficient is that
    of its block-sorted monomial: the dominant monomials of each label
    (`_dominant`) are summed over the row, and each nonzero sum is spread
    over the distinct permutations of every block.  The largest exponent
    is step * lam_1 over the labels: the lexicographically largest
    partition of a block keeps its own monomial x^lam, which no other
    label's expansion holds."""
    blocks, spread, off = [], [], 0
    for _, kind, nv in block_spec:
        blocks.append((SHIFT * off, nv, 1 if kind == "GL" else 2))
        if nv > 1:
            spread.append((SHIFT * off, (1 << (SHIFT * nv)) - 1, nv))
        off += nv
    dominant, bound = {}, 0
    for label, c in row.items():
        if not c:
            continue
        part = {0: c}
        for (shift, nv, step), lam in zip(blocks, label):
            if len(lam) > nv:
                raise HallforgeError("partition length %d exceeds %d variables" % (len(lam), nv))
            if lam:
                if step * lam[0] > bound:
                    bound = step * lam[0]
                    if bound > MAXDEG:
                        raise ExponentOverflowError("exponent %d out of packed range" % bound)
                part = {k + (t << shift): v * kostka for k, v in part.items() for t, kostka in _dominant(lam, nv, step)}
        for k, v in part.items():
            dominant[k] = dominant.get(k, 0) + v
    out = {}
    for key, c in dominant.items():
        if not c:
            continue
        keys = [key]
        for shift, mask, nv in spread:
            block = (key >> shift) & mask
            orbit = _orbit(block, nv)
            if len(orbit) > 1:
                keys = [k + ((p - block) << shift) for k in keys for p in orbit]
        out.update(dict.fromkeys(keys, c))
    return out, bound
