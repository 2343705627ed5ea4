"""Sparse exact Gaussian elimination over the rationals.

Rows are dicts mapping ordered keys (in the library, the slice labels of
Schur coordinates) to int or Fraction entries.  The pivot of a row is its
smallest key, so the choice is deterministic; pivot rows are normalized to
leading coefficient 1.
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
    """Incremental row echelon."""

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
        out = Echelon()
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


def complement(ech, labels):
    """The basis labels whose unit rows raise the rank of ech when added in
    order; ech is extended.  When the labels span a space containing the
    rows of ech, the chosen ones span a complement of them; under that
    condition rank == len(labels) means ech already spans them all, so the
    answer is [] and no label is read."""
    if ech.rank == len(labels):
        return []
    return [lab for lab in labels if ech.add({lab: 1})]


def rank_of_rows(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank
