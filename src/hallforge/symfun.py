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
and an integrand term as it is formed: `_push`, the CoHA product's and
the CoHM action's.  `expand_labels` turns a row of labels back into its
monomials by the branching rule (Macdonald I (5.11)).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .errors import ExponentOverflowError, HallforgeError
from .poly import MASK, MAXDEG, SHIFT, Poly, check_push_work, mul_bound, unpack_exponents
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


@shared_memo(1 << 16)
def _type_b_push(block, dn, m):
    """The B_D / S_D push of a fixed node's packed block (dn slots y, m
    slots z): None unless every y exponent is odd, else (sign, the packed
    exponents of u = y^2 sorted by `straighten` then v = z^2)."""
    exps = unpack_exponents(block, dn + m)
    if any(y % 2 == 0 for y in exps[:dn]):
        return None
    r = straighten(tuple((y - 1) // 2 for y in exps[:dn]))
    if r is None:
        return None
    vec = lead(r[1], dn) + tuple(z // 2 for z in exps[dn:])
    return r[0], sum(x << (SHIFT * j) for j, x in enumerate(vec))


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
    shift) of a label under a slot layout, as `lead_terms` reads them: the
    miss path of its lead tables, memoized, since a new quiver's integrands
    meet the layouts of earlier ones."""
    key, sign, top = 0, 1, 0
    for lam, (first, size, step, shift, base) in zip(label, slots):
        for j, x in enumerate(lead(lam, size)):
            key += (step * x + shift) << (SHIFT * (first + j))
        if size:
            top = max(top, step * ((lam[0] if lam else 0) + size - 1) + shift)
        if base < 0 and sum(lam) % 2:
            sign = -sign
    return key, sign, top


def lead_terms(f, fside, g, gside):
    """(terms, top): the packed f_a g_b x^lead(a) x^lead(b) over the labels a
    of f and b of g, and the largest lead exponent, their bound.  A side is
    (slots, lead table): the table maps a label to its `_lead_key` under
    the slots and is filled here on first use, so that a lead is one dict
    lookup.  The slots, a tuple, hold per partition of a label (first slot,
    number of variables, step, shift, sign base): a partition lam lays out
    step * (lam + delta) + shift from the first slot on, times base^|lam|.
    The slots of f and g are disjoint and a lead monomial determines its
    label, so distinct label pairs give distinct terms.  A lead exponent
    over MAXDEG cannot be packed and raises ExponentOverflowError."""
    (fslots, fleads), (gslots, gleads) = fside, gside
    terms, top, right = {}, 0, []
    for b, cb in g.items():
        lead = gleads.get(b)
        if lead is None:
            lead = gleads[b] = _lead_key(b, gslots)
        kb, sb, tb = lead
        top = max(top, tb)
        if cb:
            right.append((kb, sb * cb))
    for a, ca in f.items():
        lead = fleads.get(a)
        if lead is None:
            lead = fleads[a] = _lead_key(a, fslots)
        ka, sa, ta = lead
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


# The integrand of a product (`coha._mul_integrand`) or an action
# (`cohm._act_integrand`) and what its push (`_push`) reads: sign * K, the
# deferred factors prod (u - v) (None for the CoHA), the sides (lead slots,
# lead table) of the f and g labels for `lead_terms`, the (bit shift, bit
# mask, D, m) of each fixed node's block, the `block_cuts` of the target,
# K's terms by y parity, (ymask, the low bit of each fixed y slot, {term &
# ymask: [(term, coeff), ...] in term order}) or None with no fixed node,
# and the push's length, charged per term by `graded.element_product`.
Integrand = namedtuple("Integrand", "kernel deferred fside gside fixed cuts parity length")


def _push(integrand, f, g):
    """The push of an `Integrand` after the lead terms of the rows f and g
    ({label: coeff}), in Schur coordinates: one pass goes from the products
    of lead and integrand terms to labels, every push a straightening:

    - a GL block is straightened once; a Q0^+ block's tail lead is kappa +
      delta with the sign (-1)^|kappa|, since x'_sigma(i) -> -z there;
    - a fixed node with D slots y and m slots z: type D adds 1 to each y
      exponent (its prod(-y_l)); the B_D push keeps a term only when every
      y exponent is odd, and is then the straightening of (y - 1)/2 in the
      squared variables u = y^2 (the Weyl character formula of types B/C,
      Fulton-Harris 24.2); the z exponents are even and halve into v = z^2,
      the g lead being 2(mu + delta); the deferred prod(u - v) multiplies
      in and the squared shuffle push is the straightening over D + m.

    With fixed nodes, a lead k pairs only with the parity group (k & ymask)
    ^ ymask, the terms that make every y exponent odd: exactly the pairs
    the B_D push keeps, since `poly.mul_bound` has checked that no packed
    field carries into the next, so the low bit of a y exponent of k1 + k2
    is the XOR of those of k1 and k2.  The pairs kept are met in the order
    of the full pair loop.

    The signs of the pushes sit in the integrand.  The pushed terms times
    the deferred terms times sum(D + m) are charged against MAX_PUSH_WORK
    before the deferred product is straightened.  `poly.mul_bound` refuses
    an exponent out of the packed range as `Poly.__mul__` would; the lead
    and integrand term pairs are not capped here."""
    kernel, fixed, cuts = integrand.kernel, integrand.fixed, integrand.cuts
    leads, top = lead_terms(f, integrand.fside, g, integrand.gside)
    bound = mul_bound(kernel.n, leads, top, kernel.terms, kernel.bound)
    if not fixed:
        return straighten_blocks(leads, kernel.terms, cuts)
    # each fixed node's B_D push (linear) writes u = y^2, v = z^2 in its block
    ymask, groups = integrand.parity
    pushed = {}
    for k1, c1 in leads.items():
        for k2, c2 in groups.get((k1 & ymask) ^ ymask, ()):
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
    """The numbers of `weight_labels(block_spec, n)` for n = 0..degree, a
    list, without listing them."""
    if degree < 0:
        return []
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
    return counts


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
