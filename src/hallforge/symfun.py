"""Symmetric-function bases and the straightening rule.

Schur polynomials are divided differences of a single monomial,
s_lam = partial_w0(x^(lam + delta)), computed without division.  BCD blocks
are polynomials in squared variables: the basis element for a partition lam
is s_lam(z^2), invariant under signed permutations of the z's.

The same identity read backwards is the straightening rule: partial_w0 sends
a monomial x^alpha to 0 when alpha has a repeated entry, and otherwise to
sign(w) s_(w(alpha) - delta), w the permutation sorting alpha into strictly
decreasing order (Macdonald I.3: a_(lam + delta) = s_lam a_delta).  So a push
along a full flag is one sort per monomial, and its result is read in Schur
coordinates: a label, one partition per block, indexes the basis element
`schur_product(block_spec, label)`; `weight_labels` lists a slice's labels.
A product of labels builds no polynomial: `lead_terms` packs its inputs'
lead monomials and `straighten_blocks` straightens each product of a lead
term and an integrand term as it is formed.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ExponentOverflowError, HallforgeError
from .poly import MAXDEG, SHIFT, Poly, unpack_exponents
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
    """Schur polynomial s_lam in the n variables offset..offset+n-1 of a ring
    with ring_n variables: the divided difference partial_w0(x^(lam + delta)),
    delta = (n-1, ..., 1, 0) (Macdonald, Symmetric Functions, I.3).

    With squared=True returns s_lam(z^2): every exponent is doubled, giving
    the hyperoctahedral-invariant basis element of a BCD block.
    """
    ring_n = n if ring_n is None else ring_n
    lam = tuple(x for x in lam if x)
    if len(lam) > n:
        raise HallforgeError("partition length %d exceeds %d variables" % (len(lam), n))
    if not lam:
        return Poly.const(ring_n, 1)
    exps = [0] * ring_n
    for i, part in enumerate(lam + (0,) * (n - len(lam))):
        exps[offset + i] = part + n - 1 - i
    out = Poly.from_exponents(ring_n, {tuple(exps): 1})
    # slots along the reduced word s_1, s_2 s_1, ..., s_{n-1} ... s_1 of w0
    for k in range(1, n):
        for i in range(k, 0, -1):
            out = out.divided_difference(offset + i - 1)
    if squared:
        out = out.double_exponents()
    return out


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
    """
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


def schur_product(block_spec, label):
    """The basis polynomial of a label: the product over the blocks of
    s_lam (GL) or s_lam(z^2) (BCD) in that block's variables."""
    ring_n = sum(nv for _, _, nv in block_spec)
    poly, off = Poly.const(ring_n, 1), 0
    for (_, kind, nv), lam in zip(block_spec, label):
        if lam:
            poly = poly * schur(lam, nv, off, ring_n, squared=(kind == "BCD"))
        off += nv
    return poly


def weight_basis_size(block_spec, degree):
    """The number of `weight_labels(block_spec, degree)`, without listing them."""
    if degree < 0:
        return 0
    counts = [1] + [0] * degree
    for (_, kind, nv) in block_spec:
        step = 1 if kind == "GL" else 2
        per = [0] * (degree + 1)
        for deg in range(0, degree + 1, step):
            per[deg] = len(partitions(deg // step, nv))
        new = [0] * (degree + 1)
        for a in range(degree + 1):
            if counts[a]:
                for b in range(0, degree + 1 - a):
                    if per[b]:
                        new[a + b] += counts[a] * per[b]
        counts = new
    return counts[degree]
