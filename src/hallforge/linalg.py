"""Sparse exact row echelon over the integers, fraction-free.

Rows are dicts mapping keys to int entries; a Fraction or float entry
raises TypeError.  An echelon built with the labels of its target slice
files each row on its labels' positions in that list (the label -> position
dict is built on the first `add` and shared by copies), and the pivot of a
row is its largest position.  The pivot set is then the set of largest
positions of the nonzero vectors of the row space: it depends on the span
alone, not on the rows or their order, and `complement` reads the
complement of the span off it, the labels whose position is no pivot,
without reducing anything.  An echelon built without labels only counts a
rank: it keys on the row keys themselves and pivots on the smallest one,
where the PBW products are nearly triangular.

Reduction stays in the integers (Bareiss 1968): row <- a*row - c*pivot,
with a and c the two leads divided by their gcd, and each new pivot row is
stored divided by its content.  Both steps are skipped when a lead is +-1,
the common case.
"""

from __future__ import annotations

from math import gcd


class Echelon:
    """Incremental integer row echelon: pivots {lead key: primitive row}."""

    def __init__(self, labels=None):
        self.labels = labels
        self.lead = min if labels is None else max
        self.index = None
        self.pivots = {}
        self.rank = 0

    def _positions(self, row):
        """row filed on positions: a new dict the reduction may consume."""
        if type(sum(row.values())) is not int:
            raise TypeError("echelon rows take int entries, not %r" % (row,))
        if self.labels is None:
            return dict(row)
        index = self.index
        if index is None:
            index = self.index = {lab: i for i, lab in enumerate(self.labels)}
        return {index[lab]: v for lab, v in row.items()}

    def _reduce(self, row):
        """(residual, its lead key or None); consumes row."""
        pivots, lead = self.pivots, self.lead
        while row:
            top = lead(row)
            piv = pivots.get(top)
            if piv is None:
                return row, top
            a, c = piv[top], row[top]
            if a != 1 and a != -1:
                g = gcd(a, c)
                a, c = a // g, c // g
            if a == 1 or a == -1:
                c *= a
            else:
                for key in row:
                    row[key] *= a
            for key, v in piv.items():
                w = row.get(key, 0) - c * v
                if w:
                    row[key] = w
                else:
                    del row[key]
        return row, None

    def reduce(self, row):
        """Residual of row against the current pivots, up to a nonzero
        integer factor, keyed as the pivots (row is not inserted)."""
        return self._reduce(self._positions(row))[0]

    def copy(self):
        """An independent echelon with the same pivots (pivot rows are never
        mutated, so they are shared) and the same label index."""
        out = Echelon(self.labels)
        out.index, out.pivots, out.rank = self.index, dict(self.pivots), self.rank
        return out

    def add(self, row):
        """Insert a row; returns True when it increased the rank."""
        if not row:  # a vanishing product: no index to build, nothing to file
            return False
        res, top = self._reduce(self._positions(row))
        if not res:
            return False
        lead = res[top]
        if lead != 1 and lead != -1:
            g = gcd(*res.values())
            if g != 1:
                res = {key: v // g for key, v in res.items()}
        self.pivots[top] = res
        self.rank += 1
        return True


def complement(ech, labels):
    """The labels, ech's target slice in order, whose position is not a
    pivot: their unit rows span a complement of ech's span, and a label is
    kept exactly when no vector of that span has it as its largest position.
    Nothing is reduced and ech is not changed; a full echelon (rank ==
    len(labels)) gives [] without reading a label."""
    if ech.rank == len(labels):
        return []
    pivots = ech.pivots
    return [lab for i, lab in enumerate(labels) if i not in pivots]


def rank_of_rows(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank
