"""Symmetric-function bases.

Schur polynomials are divided differences of a single monomial,
s_lam = partial_w0(x^(lam + delta)), computed without division.  BCD blocks
are polynomials in squared variables: the basis element for a partition lam
is s_lam(z^2), invariant under signed permutations of the z's.
"""

from __future__ import annotations

from .errors import HallforgeError
from .poly import Poly


def partitions(total, max_parts, min_part=1):
    """All partitions of `total` into at most `max_parts` parts, as weakly
    decreasing tuples, in a fixed deterministic (descending-lex) order."""
    if total == 0:
        return [()]
    if max_parts == 0:
        return []
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
    return out


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


# -- graded bases -------------------------------------------------------------


def block_offsets(block_spec):
    """Variable offsets for a list of (label, kind, nvars) blocks."""
    offsets, pos = [], 0
    for _, _, nv in block_spec:
        offsets.append(pos)
        pos += nv
    return offsets, pos


def weight_basis(block_spec, degree):
    """Basis of the invariant slice of given total polynomial degree.

    block_spec: list of (label, kind, nvars) with kind in {"GL", "BCD"}.
    GL blocks contribute Schur polynomials of degree |lam|; BCD blocks
    contribute s_lam(z^2) of degree 2|lam|.  Returns (basis polys, labels)
    in a deterministic order.
    """
    if degree < 0:
        return [], []
    offsets, ring_n = block_offsets(block_spec)
    choices = []
    for (_, kind, nv) in block_spec:
        per = {}
        if kind == "GL":
            for deg in range(degree + 1):
                per[deg] = partitions(deg, nv)
        else:
            for deg in range(0, degree + 1, 2):
                per[deg] = partitions(deg // 2, nv)
        choices.append(per)

    basis, labels = [], []

    def rec(i, rem, picked):
        if i == len(block_spec):
            if rem == 0:
                poly = Poly.const(ring_n, 1)
                for (blk, lam) in picked:
                    _, kind, nv = block_spec[blk]
                    factor = schur(
                        lam, nv, offsets[blk], ring_n, squared=(kind == "BCD")
                    )
                    poly = poly * factor
                basis.append(poly)
                labels.append(tuple(lam for _, lam in picked))
            return
        for deg in sorted(choices[i]):
            if deg > rem:
                break
            for lam in choices[i][deg]:
                rec(i + 1, rem - deg, picked + [(i, lam)])

    rec(0, degree, [])
    return basis, labels


def weight_basis_size(block_spec, degree):
    """Cardinality of weight_basis without building the polynomials."""
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
