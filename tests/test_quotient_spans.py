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
from oracles import DirectQuotients, eager_image_echelon, full_complement, q3, same_span

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
    """The products the plans leave out, and those the lazy generator
    complements save; the full plans formed 695, 26 556 and 75 + 198
    (`schur_act`) of them.  On (A1~ tau=+1, 7, 16) the actions of whole
    slices before the complement is asked for cost more than the ideal
    products they save: the eager rule (`oracles.eager_image_echelon`)
    forms 28 + 138 there, and 83 + 95 and 67 + 61 on the L2 runs."""
    assert _count_products(monkeypatch, lambda: primitive_dims(loop_quiver(2), 7, 21)) == (473, 0)
    assert _count_products(monkeypatch, lambda: primitive_dims(a1_tilde(tau=1), 8, 16)) == (13277, 0)
    assert _count_products(monkeypatch, lambda: ori_dt_invariants(a1_tilde(tau=1), 7, 16)) == (21, 159)
    assert _count_products(monkeypatch, lambda: ori_dt_invariants(loop_quiver(2), 8, 22)) == (9, 98)
    assert _count_products(monkeypatch, lambda: ori_dt_invariants(loop_quiver(2, s=-1), 9, 26)) == (4, 65)
    monkeypatch.setattr(coha, "image_echelon", eager_image_echelon)
    monkeypatch.setattr(cohm, "image_echelon", eager_image_echelon)
    assert _count_products(monkeypatch, lambda: ori_dt_invariants(a1_tilde(tau=1), 7, 16)) == (28, 138)
    assert _count_products(monkeypatch, lambda: ori_dt_invariants(loop_quiver(2), 8, 22)) == (83, 95)
    assert _count_products(monkeypatch, lambda: ori_dt_invariants(loop_quiver(2, s=-1), 9, 26)) == (67, 61)


def _record_steps(monkeypatch, run):
    """The image steps of run() in one process: per `image_echelon` call
    (nested calls, the CoHA ideals behind a complement, kept apart), per
    step (a, k1), whether its complement had been asked for before the
    step began, its actions as (factor label, rank of the call's echelon
    after it, whether it added rank), and how many actions came before it
    asked for its complement (None when it did not)."""
    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)
    stack, calls, asked = [], [], set()
    image_echelon, complement_of = coha.image_echelon, coha.generator_complement

    def recorded_echelon(quiver, plan, slice_labels, act, k, labels):
        stack.append({"quiver": quiver, "replay": Echelon(labels), "dim": len(labels), "steps": {}})
        try:
            return image_echelon(quiver, plan, slice_labels, act, k, labels)
        finally:
            calls.append(stack.pop())

    def step(a, k1):
        steps = stack[-1]["steps"]
        if (a, k1) not in steps:
            steps[(a, k1)] = {"known": (a, k1) in asked, "acts": [], "switch": None}
        return steps[(a, k1)]

    def recorded(product):
        def act(quiver, a, c, rest, b):
            row = product(quiver, a, c, rest, b)
            ((label, _),) = c.items()
            replay = stack[-1]["replay"]
            gained = replay.add(row)
            step(a, quiver.euler_form(a, a) + 2 * sum(map(sum, label)))["acts"].append((label, replay.rank, gained))
            return row

        return act

    def recorded_complement(quiver, a, k1):
        if stack:
            record = step(a, k1)
            record["switch"] = len(record["acts"])
        asked.add((a, k1))
        return complement_of(quiver, a, k1)

    for module in (coha, cohm):
        monkeypatch.setattr(module, "image_echelon", recorded_echelon)
    monkeypatch.setattr(coha, "schur_mul", recorded(coha.schur_mul))
    monkeypatch.setattr(cohm, "schur_act", recorded(cohm.schur_act))
    monkeypatch.setattr(coha, "generator_complement", recorded_complement)
    run()
    return calls, complement_of


def _in_blocks(labels, block):
    """labels is block repeated, the last repeat possibly cut short."""
    return labels == (block * (len(labels) // max(len(block), 1) + 1))[: len(labels)]


@pytest.mark.parametrize(
    "run, expect",
    [
        (lambda: ori_dt_invariants(a1_tilde(tau=1), 7, 16), "switch"),
        (lambda: ori_dt_invariants(loop_quiver(2), 8, 22), "whole"),
    ],
    ids=["A1~ tau=+1 (7, 16)", "L2 (8, 22)"],
)
def test_lazy_complements_switch_once_the_idle_actions_reach_the_slice(monkeypatch, run, expect):
    """Replays every step of a W^prim run.  A step with |a| > 1 whose
    complement was not asked for before it acts with the whole slice
    H_(a,k1) on each label b, and counts the actions that add no rank.  The
    count is read after each label: below len(slice) the step goes on with
    the whole slice; at len(slice) or more it asks for the complement, while
    the target slice is not spanned, and acts with it on the remaining
    labels.  So the idle actions before the label that switches stay below
    len(slice); on these two runs the count at a switch is exactly
    len(slice), though the rule allows up to 2 len(slice) - 1.  A step whose
    complement is known acts with it from its first label.  A1~ switches;
    L2 keeps the whole slice, smaller complement and all, to the end of
    some step."""
    calls, complement_of = _record_steps(monkeypatch, run)
    monkeypatch.undo()  # the complements read below are not recorded
    seen = {"switch": 0, "whole": 0}
    for call in calls:
        quiver, dim = call["quiver"], call["dim"]
        for (a, k1), record in call["steps"].items():
            acts, switch = record["acts"], record["switch"]
            gens = complement_of(quiver, a, k1)
            if sum(a) <= 1 or record["known"]:
                assert switch in (None, 0) and _in_blocks([lab for lab, _, _ in acts], gens), (a, k1)
                continue
            whole = CohaElement.slice_labels(quiver, a, k1)
            n = len(whole)
            before = acts if switch is None else acts[:switch]
            assert _in_blocks([lab for lab, _, _ in before], whole), (a, k1)
            for j in range(n, len(before) + 1, n):
                idle = sum(not gained for _, _, gained in before[:j])
                if j == switch:
                    assert n <= idle and before[-1][1] < dim, (a, k1)
                    assert idle <= n, (a, k1)
                elif idle >= n:  # only the stop may keep a step from switching
                    assert j == len(before) and before[-1][1] == dim, (a, k1)
            if switch is None:
                seen["whole"] += len(gens) < n
            else:
                seen["switch"] += len(gens) < n
                assert switch % n == 0 and _in_blocks([lab for lab, _, _ in acts[switch:]], gens), (a, k1)
    assert seen[expect], seen


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
