"""Sparse exact Gaussian elimination over the rationals.

Rows are dicts mapping ordered keys (the packed-int monomials of `Poly`) to
int or Fraction entries.  The pivot of a row is its smallest key, so the
choice is deterministic; pivot rows are normalized to leading coefficient 1.
"""

from __future__ import annotations

from fractions import Fraction


def _div(a, b):
    """Exact a / b staying in int when possible."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if not r:
            return q
        return Fraction(a, b)
    out = Fraction(a) / Fraction(b)
    return out.numerator if out.denominator == 1 else out


class Echelon:
    """Incremental row echelon; optionally tracks coordinates of added rows."""

    def __init__(self, augmented=False):
        self.pivots = {}
        self.aug = {} if augmented else None
        self.rank = 0

    def _reduce(self, row, coords):
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row, coords, lead
            c = row[lead]
            for k, v in piv.items():
                w = row.get(k, 0) - c * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
            if coords is not None:
                for j, v in self.aug[lead].items():
                    w = coords.get(j, 0) - c * v
                    if w:
                        coords[j] = w
                    else:
                        coords.pop(j, None)
        return row, coords, None

    def reduce(self, row):
        """Residual of row against the current pivots (row is not inserted)."""
        res, coords, _ = self._reduce(row, {} if self.aug is not None else None)
        return res, coords

    def copy(self):
        """An independent echelon with the same pivots (pivot rows are never
        mutated, so they are shared)."""
        out = Echelon(augmented=self.aug is not None)
        out.pivots, out.rank = dict(self.pivots), self.rank
        if self.aug is not None:
            out.aug = dict(self.aug)
        return out

    def add(self, row, tag=None):
        """Insert a row; returns True when it increased the rank."""
        coords = {tag: 1} if self.aug is not None else None
        res, coords, lead = self._reduce(row, coords)
        if not res:
            return False
        c = res[lead]
        res = {k: _div(v, c) for k, v in res.items()}
        self.pivots[lead] = res
        if self.aug is not None:
            self.aug[lead] = {j: _div(v, c) for j, v in coords.items()}
        self.rank += 1
        return True


def complement(ech, elements):
    """The elements (with a polynomial `.poly`, whose terms are the rows) that
    raise the rank of ech when added in order; ech is extended.  When the
    elements span a space containing the rows of ech, the chosen ones span a
    complement of them."""
    return [x for x in elements if ech.add(x.poly.terms)]


def rank_of_rows(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank
