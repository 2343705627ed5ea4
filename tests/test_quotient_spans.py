"""The quotient image steps against the full-plan, direct-product oracle.

`coha._coha_plan` leaves out the pairs with 2|a| > |d| and the middle
pairs (2|a| = |d|) with a > d - a, `cohm._cohm_plan` those with sigma(a) >
a, and `coha._ideal_echelon` files the S_H images of
the sigma partner's pivot rows for sigma(d) < d.  So slice by slice the
stored ideals must span the space that every product of the full plans
spans (`oracles.DirectQuotients`, `oracles.same_span`): `primitive_basis`
files more rows into a copy of an ideal, so its output reads the whole
span.  The generator complements and W^prim slices read only the pivot
positions, which the span fixes, and must equal the oracle's.  The tables
run through `PrimitiveTable.build`, so with HALLFORGE_THREADS > 1 their
pool tasks derive the sigma-partner ideals in their own processes.
"""

import pytest
from oracles import DirectQuotients, full_complement, q3, same_span

from hallforge import coha, cohm
from hallforge.coha import (
    CohaElement,
    _ideal_echelon,
    _times_power_sum,
    generator_complement,
    primitive_dims,
    s_involution,
)
from hallforge.cohm import CohmElement, _wprim_slice, ori_dt_invariants
from hallforge.errors import SymmetryError
from hallforge.linalg import Echelon
from hallforge.quiver import QuiverWithDuality, a1_tilde, a2_quiver, disjoint_double, loop_quiver
from hallforge.series import module_classes

# (name, quiver, CoHA maxdim and window, CoHM maxdim and window)
CASES = (
    [("L%d s=%+d" % (m, s), loop_quiver(m, s=s), 6, 12, 10, 16) for m in (0, 1) for s in (1, -1)]
    + [("L2 s=%+d" % s, loop_quiver(2, s=s), 6, 18, 10, 24) for s in (1, -1)]
    + [("L3 s=%+d" % s, loop_quiver(3, s=s), 5, 18, 8, 22) for s in (1, -1)]
    + [("A1~ s=%+d tau=%+d" % (s, t), a1_tilde(tau=t, s=s), 6, 10, 10, 12) for s in (1, -1) for t in (1, -1)]
    + [("double L%d" % m, disjoint_double(loop_quiver(m)), 5, 10, 10, 12) for m in (0, 1, 2)]
    + [("q3(%d)" % n, q3(n), 5, 8, 8, 12) for n in (1, 2)]
)


def _coha_slices(quiver, maxdim, window):
    """(d, k, labels) of every nonempty CoHA slice of a class with |d| > 1."""
    for d in quiver.dimension_vectors(maxdim):
        if sum(d) > 1:
            chi = quiver.euler_form(d, d)
            for k in range(chi, chi + window + 1, 2):
                labels = CohaElement.slice_labels(quiver, d, k)
                if labels:
                    yield d, k, labels


def test_the_doubles_of_l0_and_l2_fail_the_supercommutativity_criterion():
    """So their cases check that H_a H_b = H_b H_a up to a sign of the
    classes, which holds on every symmetric quiver, is all the CoHA plan
    needs."""
    assert [m for m in (0, 1, 2) if not disjoint_double(loop_quiver(m)).supercommutativity_criterion()] == [0, 2]


@pytest.mark.parametrize("name, quiver, maxdim, window, mmax, mwindow", CASES, ids=[c[0] for c in CASES])
def test_quotient_slices_against_the_direct_oracle(name, quiver, maxdim, window, mmax, mwindow):
    direct = DirectQuotients(quiver)
    for d, k, labels in _coha_slices(quiver, maxdim, window):
        assert same_span(_ideal_echelon(quiver, d, k), direct.ideal(d, k)), (d, k)
        assert generator_complement(quiver, d, k) == direct.complement(quiver, d, k), (d, k)
    for e in module_classes(quiver, mmax):
        form = quiver.sd_euler_form(e)
        for k in range(form, form + mwindow + 1, 2):
            if CohmElement.slice_labels(quiver, e, k):
                assert _wprim_slice(quiver, e, k) == direct.wprim(e, k), (e, k)


def _direct_primitive_basis(direct, quiver, d, k):
    """`coha.primitive_basis` on the oracle's ideal and complements."""
    labels = CohaElement.slice_labels(quiver, d, k)
    probe = direct.ideal(d, k).copy() if sum(d) > 1 else Echelon(labels)
    if CohaElement.slice_degree(quiver, d, k):
        for c in direct.complement(quiver, d, k - 2):
            probe.add(_times_power_sum(quiver, d, c))
    return full_complement(probe, labels)


@pytest.mark.parametrize("quiver", [loop_quiver(2), a1_tilde(tau=1), a1_tilde(tau=-1, s=-1), q3(1)], ids=["L2", "A1~+", "A1~-", "q3(1)"])
def test_tables_against_the_direct_oracle(quiver):
    """Both primitive tables, built class by class by `PrimitiveTable.build`
    on a fresh quiver, store the oracle's bases."""
    direct = DirectQuotients(quiver)
    wprim = ori_dt_invariants(quiver, 6, 8)
    assert wprim.bases and all(labels == direct.wprim(e, k)[1] for (e, k), labels in wprim.bases.items())
    if quiver.supercommutativity_criterion():
        vprim = primitive_dims(quiver, 3, 6)
        assert vprim.bases
        for (d, k), labels in vprim.bases.items():
            assert labels == _direct_primitive_basis(direct, quiver, d, k), (d, k)


def _polynomial_s_h(quiver, sd, d, k):
    """S_H from the labels of the (sd, k) slice to signed labels of the
    (d, k) slice, through `s_involution` on the expanded basis elements."""
    of_poly = {CohaElement.from_labels(quiver, d, {lab: 1}).poly: lab for lab in CohaElement.slice_labels(quiver, d, k)}
    out = []
    for lab in CohaElement.slice_labels(quiver, sd, k):
        image = s_involution(CohaElement.from_labels(quiver, sd, {lab: 1})).poly
        out.append((1, of_poly[image]) if image in of_poly else (-1, of_poly[image.scale(-1)]))
    return out


def test_a_derived_ideal_files_the_s_h_images_of_its_partner():
    """For sigma(d) < d the ideal echelon holds the rows that filing the S_H
    images of the partner's pivot rows gives, S_H taken on polynomials;
    an odd-degree slice pins the sign (-1)^|lam| of `s_label`, which no
    span can see, being common to the whole slice."""
    odd = 0
    for quiver, maxdim, window in ((a1_tilde(tau=1), 4, 6), (a1_tilde(tau=-1, s=-1), 4, 6), (q3(1), 3, 4)):
        for d, k, labels in _coha_slices(quiver, maxdim, window):
            sd = quiver.sigma_dim(d)
            if sd >= d:
                continue
            moved = _polynomial_s_h(quiver, sd, d, k)
            expected = Echelon(labels)
            for row in _ideal_echelon(quiver, sd, k).pivots.values():
                expected.add({moved[i][1]: moved[i][0] * v for i, v in row.items()})
            assert _ideal_echelon(quiver, d, k).pivots == expected.pivots, (d, k)
            odd += CohaElement.slice_degree(quiver, d, k) % 2 == 1 and expected.rank > 0
    assert odd


def _count_products(monkeypatch, run):
    """(schur_mul, schur_act) calls of run() in one process."""
    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)
    calls = {"mul": 0, "act": 0}
    mul, act = coha.schur_mul, cohm.schur_act

    def counted_mul(*args):
        calls["mul"] += 1
        return mul(*args)

    def counted_act(*args):
        calls["act"] += 1
        return act(*args)

    monkeypatch.setattr(coha, "schur_mul", counted_mul)
    monkeypatch.setattr(cohm, "schur_act", counted_act)
    run()
    return calls["mul"], calls["act"]


def test_product_counts(monkeypatch):
    """The products the plans leave out; the full plans formed 695, 26 556
    and 75 + 198 (`schur_act`) of them."""
    assert _count_products(monkeypatch, lambda: primitive_dims(loop_quiver(2), 7, 21)) == (473, 0)
    assert _count_products(monkeypatch, lambda: primitive_dims(a1_tilde(tau=1), 8, 16)) == (13277, 0)
    assert _count_products(monkeypatch, lambda: ori_dt_invariants(a1_tilde(tau=1), 7, 16)) == (28, 138)


def test_the_module_image_step_needs_a_sigma_symmetric_quiver():
    """Dropping sigma(a) > a rests on the module relation, so the image step
    refuses a quiver that is not sigma-symmetric, not only its callers.  A2
    is not even symmetric.  A1~ with tau = +1 on a: 1 -> 2 and -1 on b:
    2 -> 1 is symmetric, so its CoHA steps run, but E != E o sigma: the
    module relation fails there, and (1, 1) has the pairs of both (1, 0)
    and its partner (0, 1)."""
    a2 = a2_quiver()
    e = (1, 1)
    assert CohmElement.slice_labels(a2, e, a2.sd_euler_form(e))
    with pytest.raises(SymmetryError):
        _wprim_slice(a2, e, a2.sd_euler_form(e))
    with pytest.raises(SymmetryError):
        _ideal_echelon(a2, (1, 1), a2.euler_form((1, 1), (1, 1)))
    mixed = QuiverWithDuality(
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        {"1": "2", "2": "1"},
        {"a": "a", "b": "b"},
        {"1": 1, "2": 1},
        {"a": 1, "b": -1},
    )
    assert mixed.is_symmetric() and not mixed.is_sigma_symmetric()
    assert [a for a, _ in mixed.decompositions(e, 1, mixed.hyperbolic)] == [(0, 1), (1, 0)]
    assert CohmElement.slice_labels(mixed, e, mixed.sd_euler_form(e))
    assert _ideal_echelon(mixed, (1, 1), mixed.euler_form((1, 1), (1, 1))).labels
    with pytest.raises(SymmetryError):
        _wprim_slice(mixed, e, mixed.sd_euler_form(e))
