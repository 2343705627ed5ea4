"""The integer echelon against the rational one it replaced.

`linalg.Echelon` files rows on slice positions, pivots on the largest one
and stays in the integers; `linalg.complement` reads the complement off its
pivots.  `oracles.RationalEchelon` pivots on the smallest key with lead 1,
and `oracles.rational_complement` adds unit rows.  Both depend only on the
span, so they must agree on every rank and every complement, whatever the
row order.
"""

from fractions import Fraction

import pytest

from hallforge.coha import CohaElement, schur_mul
from hallforge.cohm import CohmElement, module_classes, schur_act
from hallforge.linalg import Echelon, complement, rank_of_rows
from hallforge.proputils import Lcg
from hallforge.quiver import a1_tilde, loop_quiver
from oracles import RationalEchelon, image_rows, rational_complement


def _shuffled(rng, rows):
    rows = list(rows)
    for i in range(len(rows) - 1, 0, -1):
        j = rng.randint(0, i)
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def _agree(rng, rows, labels, tally):
    """Both echelons of rows in a seeded order: the same rank and complement."""
    ech, rat = Echelon(labels), RationalEchelon()
    for row in _shuffled(rng, rows):
        assert bool(ech.add(row)) == rat.add(row)
    assert ech.rank == rat.rank <= len(labels)
    assert complement(ech, labels) == rational_complement(rat, labels)
    tally["full" if ech.rank == len(labels) else "partial"] += 1
    tally["lead"] += sum(abs(row[top]) != 1 for top, row in ech.pivots.items())


def _slices(quiver, maxdim, window, mmax, mwindow):
    """(rows, labels) of the ideal slices of classes up to maxdim and of the
    W^prim slices of module classes up to mmax, rows in image-step order."""
    for d in quiver.dimension_vectors(maxdim):
        if sum(d) < 2:
            continue
        chi = quiver.euler_form(d, d)
        pairs = quiver.decompositions(d, sum(d) - 1)
        for k in range(chi, chi + window + 1):
            labels = CohaElement.slice_labels(quiver, d, k)
            if labels:
                yield image_rows(quiver, pairs, CohaElement.slice_labels, CohaElement.weight_form, schur_mul, k), labels
    for e in module_classes(quiver, mmax):
        ee = quiver.sd_euler_form(e)
        pairs = quiver.decompositions(e, sum(e) // 2, quiver.hyperbolic)
        for k in range(ee, ee + mwindow + 1):
            labels = CohmElement.slice_labels(quiver, e, k)
            if labels:
                yield image_rows(quiver, pairs, CohmElement.slice_labels, CohmElement.weight_form, schur_act, k), labels


def test_integer_echelon_matches_rational_on_quotient_slices():
    """L0 and L2 at both s, L1 at every (s, tau), A1~ at both tau: every
    ideal and W^prim slice, rows in a seeded random order."""
    rng = Lcg(20161018)
    tally = {"full": 0, "partial": 0, "lead": 0}
    cases = [(loop_quiver(0, s=s), 5, 10, 7, 16) for s in (1, -1)]
    cases += [(loop_quiver(1, s=s, tau=[t]), 5, 10, 7, 16) for s in (1, -1) for t in (1, -1)]
    cases += [(loop_quiver(2, s=s), 3, 12, 7, 18) for s in (1, -1)]
    cases += [(a1_tilde(tau=t), 3, 8, 6, 12) for t in (1, -1)]
    for quiver, maxdim, window, mmax, mwindow in cases:
        for rows, labels in _slices(quiver, maxdim, window, mmax, mwindow):
            _agree(rng, rows, labels, tally)
    # spanned and unspanned slices, and pivots whose lead is not +-1
    assert tally["full"] and tally["partial"] and tally["lead"], tally


def test_integer_echelon_matches_rational_on_random_rows():
    """Dense small-integer rows, where most leads are not +-1 and the
    reduction scales rows and divides out contents."""
    rng = Lcg(7)
    scaled = 0
    for _ in range(200):
        labels = ["l%d" % i for i in range(rng.randint(1, 7))]
        rows = []
        for _ in range(rng.randint(0, 8)):
            row = {lab: rng.randint(-6, 6) for lab in labels if rng.randint(0, 2)}
            rows.append({lab: v for lab, v in row.items() if v})
        tally = {"full": 0, "partial": 0, "lead": 0}
        _agree(rng, rows, labels, tally)
        scaled += tally["lead"]
        rat = RationalEchelon()
        for row in rows:
            rat.add(row)
        assert rank_of_rows(rows) == rat.rank
    assert scaled


def test_pivot_rows_are_primitive_and_led_by_their_largest_position():
    ech = Echelon(["a", "b", "c"])
    assert ech.add({"a": 4, "c": 6})  # stored divided by its content 2
    # 3 * row - 2 * pivot leaves -a + 6b, already primitive
    assert ech.add({"a": 1, "b": 2, "c": 2})
    assert not ech.add({"a": 5, "b": 2, "c": 8})  # the sum of the two rows
    assert ech.pivots == {2: {0: 2, 2: 3}, 1: {0: -1, 1: 6}}
    assert complement(ech, ech.labels) == ["a"]
    assert ech.rank == 2  # complement extends nothing


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 1.0])
def test_fraction_or_float_entries_raise(entry):
    """A non-int entry is refused before any reduction: floor division by a
    content would turn it into an inexact pivot row."""
    for ech in (Echelon(["a", "b"]), Echelon()):
        assert ech.add({"a": 1})
        with pytest.raises(TypeError):
            ech.add({"a": 3, "b": entry})
        with pytest.raises(TypeError):
            ech.add({"b": entry})
        assert ech.rank == 1 and list(ech.pivots) == [0 if ech.labels else "a"]
    with pytest.raises(TypeError):
        rank_of_rows([{"a": 2}, {"a": entry}])
