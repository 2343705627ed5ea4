from fractions import Fraction

import pytest

from hallforge.coha import (
    CohaElement,
    dt_invariants,
    equivariant_dt,
    primitive_dims,
    s_involution,
    shuffle_mul,
)
from hallforge.errors import GradingError, SymmetryError
from hallforge.linalg import Echelon, complement
from hallforge.poly import Poly
from hallforge.quiver import a1_tilde, a2_quiver, loop_quiver
from hallforge.series import dt_series, sign_pow
from hallforge.symfun import schur

from oracles import from_exponents, slice_dim

L0 = loop_quiver(0)
L1 = loop_quiver(1, s=1, tau=[1])
L2 = loop_quiver(2)
A2 = a2_quiver()


def xpow(quiver, i):
    return CohaElement(quiver, (1,), Poly.variable(1, 0, i))


def test_zero_loop_products():
    assert shuffle_mul(xpow(L0, 0), xpow(L0, 1)).poly == Poly.const(2, 1)
    assert shuffle_mul(xpow(L0, 1), xpow(L0, 0)).poly == Poly.const(2, -1)


def test_a2_unit_products():
    u10, u01 = CohaElement.unit(A2, (1, 0)), CohaElement.unit(A2, (0, 1))
    p = shuffle_mul(u10, u01)
    assert p.poly == from_exponents(2, {(0, 1): 1, (1, 0): -1})
    assert shuffle_mul(u01, u10).poly == Poly.const(2, 1)


def decreasing_sequences(total, length):
    """Strictly decreasing (i_length > ... > i_1 >= 0) with given sum."""
    out = []

    def rec(rem, slots, ceiling, acc):
        if slots == 0:
            if rem == 0:
                out.append(tuple(acc))
            return
        for top in range(min(rem, ceiling), -1, -1):
            if top * slots < rem - (slots - 1) * (slots - 2) // 2:
                break
            rec(rem - top, slots - 1, top - 1, acc + [top])

    rec(total, length, total, [])
    return [seq for seq in out if len(set(seq)) == length]


def test_zero_loop_schur_identities():
    # products of generators in increasing exponent order give Schur classes
    for total in range(0, 7):
        for length in (1, 2, 3):
            for seq in decreasing_sequences(total, length):
                factors = [xpow(L0, i) for i in reversed(seq)]
                prod = factors[0]
                for f in factors[1:]:
                    prod = shuffle_mul(prod, f)
                lam = tuple(seq[t] - (length - 1 - t) for t in range(length))
                assert prod.poly == schur(tuple(x for x in lam if x), length), seq


def test_one_loop_monomial_identities():
    from hallforge.symfun import partitions
    from oracles import monomial_sym
    from math import factorial

    for total in range(0, 7):
        for length in (1, 2, 3):
            for lam in partitions(total, length, min_part=0):
                lam = tuple(lam) + (0,) * (length - len(lam))
                if len(lam) != length:
                    continue
                factors = [xpow(L1, i) for i in lam]
                prod = factors[0]
                for f in factors[1:]:
                    prod = shuffle_mul(prod, f)
                mult = 1
                for v in set(lam):
                    mult *= factorial(sum(1 for x in lam if x == v))
                assert prod.poly == monomial_sym(lam, length).scale(mult), lam


def test_s_involution():
    x1 = xpow(L0, 1)
    assert s_involution(x1).poly == Poly.variable(1, 0).scale(-1)
    assert s_involution(s_involution(x1)) == x1
    u = CohaElement.unit(A2, (2, 1))
    su = s_involution(u)
    assert su.d == (1, 2) and su.poly.terms.get(0) == 1


def test_dt_invariants_requires_symmetric():
    with pytest.raises(SymmetryError):
        dt_invariants(A2, 3, 8)


def test_primitive_dims_examples():
    assert primitive_dims(L0, 3, 12).dims == {((1,), 1): 1}
    assert primitive_dims(L1, 3, 10).dims == {((1,), 0): 1}
    pt2 = primitive_dims(L2, 3, 14)
    expected = {((1,), -1): 1, ((2,), -4): 1, ((3,), -9): 1}
    assert pt2.dims == expected
    # cross-oracle with the factorization extraction
    table = dt_invariants(L2, 3, 14)
    assert pt2.table().entries == table.entries


def test_primitive_dims_criterion_gate():
    q = a1_tilde(tau=1)
    assert q.supercommutativity_criterion()
    pt = primitive_dims(q, 2, 6)
    assert pt.dims[((1, 0), 1)] == 1
    assert pt.dims[((0, 1), 1)] == 1
    assert pt.dims[((1, 1), 0)] == 1


def test_hilbert_consistency():
    A = dt_series(L2, 4, 12)
    for d in range(5):
        chi = L2.euler_form((d,), (d,))
        for k in range(chi, chi + 13):
            dim = slice_dim(CohaElement, L2, (d,), k)
            assert A.coefficient((d,), k) == Fraction(dim * sign_pow(k))


def test_equivariant_dt_l2():
    sig = equivariant_dt(L2, (1,), 8, 40)
    assert sig.rendered((2,), "-") == {-1: Fraction(-1)}
    assert sig.rendered((4,), "-") == {-4: Fraction(1)}
    assert sig.rendered((6,), "+") == {-9: Fraction(-1)}
    assert sig.rendered((8,), "+") == {-16: Fraction(1), -12: Fraction(1)}
    assert sig.rendered((2,), "+") == {}


def test_equivariant_swap_classes_double():
    from hallforge.quiver import disjoint_double

    qsq = disjoint_double(L1)
    sig = equivariant_dt(qsq, qsq.zero(), 4, 10)
    # the swap pair {(1,0),(0,1)} contributes equal +- multiplicities, each
    # the one-sided primitive dimension; nothing else survives
    assert sig.entries == {((1, 1), 0): (1, 1)}


def test_element_json_roundtrip():
    f = CohaElement(A2, (2, 1), shuffle_mul(
        CohaElement.unit(A2, (1, 1)), CohaElement.unit(A2, (1, 0))
    ).poly)
    doc = f.to_json_dict()
    g = CohaElement.from_json_dict(A2, doc)
    assert f == g


def test_invalid_element():
    with pytest.raises(GradingError):
        CohaElement(L0, (2,), Poly.variable(2, 0))  # not symmetric


def test_twisted_weight_law_for_products():
    # w(f g) = w(f) + w(g) + chi(d'', d') - chi(d', d'') on any quiver
    from hallforge.proputils import Lcg, random_coha_element

    rng = Lcg(31)
    for _ in range(40):
        f = random_coha_element(rng, A2, 2, 2)
        g = random_coha_element(rng, A2, 2, 2)
        out = shuffle_mul(f, g)
        if f.is_zero() or g.is_zero() or out.is_zero():
            continue
        tw = A2.euler_form(g.d, f.d) - A2.euler_form(f.d, g.d)
        assert out.weight() == f.weight() + g.weight() + tw


def test_product_degree_shift():
    # deg(f * g) = deg f + deg g - chi(d', d''): the degree budget of
    # pbw_check_coha.  Every product of homogeneous elements is homogeneous.
    from hallforge.finite_type import build_typeA
    from hallforge.proputils import Lcg, random_coha_element

    quivers = [build_typeA(n, ">" * (n - 1), "orthogonal").quiver for n in (2, 3, 4, 5)]
    quivers += [loop_quiver(m) for m in range(4)] + [a1_tilde()]
    rng = Lcg(61)
    nonzero = 0
    for q in quivers:
        for _ in range(60):
            f = random_coha_element(rng, q, 2, 2)
            g = random_coha_element(rng, q, 2, 2)
            out = shuffle_mul(f, g)
            if f.is_zero() or g.is_zero() or out.is_zero():
                continue
            nonzero += 1
            assert out.poly.is_homogeneous()
            assert out.poly.degree() == f.poly.degree() + g.poly.degree() - q.euler_form(f.d, g.d)
    assert nonzero >= 150


def evaluate(poly, point):
    total = 0
    for exps, c in poly.sorted_terms():
        for x, e in zip(point, exps):
            c *= x**e
        total += c
    return total


def shuffle_sum_at(f, g, point):
    """The Kontsevich-Soibelman shuffle sum of f and g at a point, term by
    term with exact rational denominators: the definition, used as oracle."""
    from itertools import combinations, product

    quiver, idx = f.quiver, f.quiver.node_index
    d = tuple(a + b for a, b in zip(f.d, g.d))
    offsets, _ = CohaElement.layout(quiver, d)
    choices = [combinations(range(d[idx[n]]), f.d[idx[n]]) for n in quiver.nodes]
    total = Fraction(0)
    for picked in product(*map(list, choices)):
        first, second = {}, {}
        for n, slots in zip(quiver.nodes, picked):
            block = [point[offsets[n] + j] for j in range(d[idx[n]])]
            first[n] = [block[j] for j in slots]
            second[n] = [x for j, x in enumerate(block) if j not in slots]
        term = Fraction(evaluate(f.poly, [x for n in quiver.nodes for x in first[n]]))
        term *= evaluate(g.poly, [x for n in quiver.nodes for x in second[n]])
        for _, t, h in quiver.arrows:
            for y in second[h]:
                for x in first[t]:
                    term *= y - x
        for n in quiver.nodes:
            for y in second[n]:
                for x in first[n]:
                    term /= y - x
        total += term
    return total


def test_shuffle_mul_against_shuffle_sum():
    from hallforge.finite_type import build_typeA
    from hallforge.proputils import Lcg, random_coha_element
    from hallforge.quiver import disjoint_double

    quivers = [
        L0, L1, L2, loop_quiver(3), A2, build_typeA(3, ">>", "orthogonal").quiver,
        a1_tilde(), disjoint_double(L1),
    ]
    rng = Lcg(97)
    for q in quivers:
        for _ in range(40):
            f = random_coha_element(rng, q, 3, 2)
            g = random_coha_element(rng, q, 3, 2)
            cached = set(q._cache)
            out = shuffle_mul(f, g)
            # the product adds only its integrand entry
            assert set(q._cache) - cached <= {("coha_integrand", f.d, g.d)}
            point = []
            while len(point) < sum(out.d):
                x = rng.randint(-40, 40)
                if x not in point:
                    point.append(x)
            assert evaluate(out.poly, point) == shuffle_sum_at(f, g, point), (f, g)


def _plan(quiver, pairs, form):
    """The plan of `coha.image_echelon` derived from the pairs of a slice."""
    return [(a, rest, quiver.euler_form(a, a), form(quiver, rest)) for a, rest in pairs]


def _stopped_against_full(quiver, maxdim, window, mmax, mwindow, tally):
    """Every image step of the CoHA and CoHM quotients of quiver against the
    full loop of oracles.full_image_echelon, both in Schur coordinates; tally
    counts (filled, not filled) slices.  The oracle derives the full pairs
    and their forms per slice.  The stored per-class plans leave out pairs
    that add nothing to the span, and a derived ideal files other rows, so
    their echelons must span the full loop's space (oracles.same_span); the
    rows themselves may differ."""
    from oracles import full_cohm_pairs, full_coha_pairs, full_complement, full_image_echelon, same_span

    from hallforge.coha import (
        _coha_plan,
        _ideal_echelon,
        _times_power_sum,
        generator_complement,
        image_echelon,
        primitive_basis,
        schur_mul,
    )
    from hallforge.cohm import CohmElement, _cohm_plan, _wprim_slice, module_classes, schur_act

    def check(stopped, full, dim):
        assert stopped.rank == full.rank <= dim
        tally[full.rank == dim] += 1
        if full.rank < dim:
            assert stopped.pivots == full.pivots

    labels_of = CohaElement.slice_labels
    for d in quiver.dimension_vectors(maxdim):
        chi = quiver.euler_form(d, d)
        for k in range(chi, chi + window + 1):
            deg = CohaElement.slice_degree(quiver, d, k)
            if deg is None:
                continue
            basis = labels_of(quiver, d, k)
            if sum(d) > 1:
                pairs = full_coha_pairs(quiver, d)
                plan = _plan(quiver, pairs, CohaElement.weight_form)
                full = full_image_echelon(quiver, pairs, labels_of, CohaElement.weight_form, schur_mul, k, basis)
                stopped = image_echelon(quiver, plan, labels_of, schur_mul, k, basis)
                check(stopped, full, len(basis))
                assert same_span(_ideal_echelon(quiver, d, k), full)
                assert same_span(image_echelon(quiver, _coha_plan(quiver, d), labels_of, schur_mul, k, basis), full)
                assert generator_complement(quiver, d, k) == full_complement(full.copy(), basis)
            else:
                full = Echelon(basis)
            # the sigma_d tower of primitive_basis, with every row added
            if deg > 0:
                for c in generator_complement(quiver, d, k - 2):
                    full.add(_times_power_sum(quiver, d, c))
            assert primitive_basis(quiver, d, k) == full_complement(full, basis)
    for e in module_classes(quiver, mmax):
        ee = quiver.sd_euler_form(e)
        for k in range(ee, ee + mwindow + 1):
            basis = CohmElement.slice_labels(quiver, e, k)
            if not basis:
                continue
            pairs = full_cohm_pairs(quiver, e)
            plan = _plan(quiver, pairs, CohmElement.weight_form)
            full = full_image_echelon(quiver, pairs, CohmElement.slice_labels, CohmElement.weight_form, schur_act, k, basis)
            stopped = image_echelon(quiver, plan, CohmElement.slice_labels, schur_act, k, basis)
            check(stopped, full, len(basis))
            assert same_span(image_echelon(quiver, _cohm_plan(quiver, e), CohmElement.slice_labels, schur_act, k, basis), full)
            assert _wprim_slice(quiver, e, k) == (full.rank, full_complement(full, basis))


def test_image_echelon_against_full_loop():
    """The stop rule changes no rank, no pivot of an unfilled slice and no
    stored basis: L0 and L2 at both s, L1 at every (s, tau), A1~ at both tau."""
    tally = {True: 0, False: 0}
    cases = [(loop_quiver(0, s=s), 5, 10, 7, 16) for s in (1, -1)]
    cases += [(loop_quiver(1, s=s, tau=[t]), 5, 10, 7, 16) for s in (1, -1) for t in (1, -1)]
    cases += [(loop_quiver(2, s=s), 3, 12, 7, 18) for s in (1, -1)]
    cases += [(a1_tilde(tau=t), 3, 8, 6, 12) for t in (1, -1)]
    for quiver, maxdim, window, mmax, mwindow in cases:
        _stopped_against_full(quiver, maxdim, window, mmax, mwindow, tally)
    # both branches of the stop rule are exercised
    assert tally[True] > 0 and tally[False] > 0, tally


def test_image_echelon_stops_once_the_slice_is_spanned(monkeypatch):
    from oracles import full_image_echelon

    from hallforge import coha

    d = (3,)
    pairs = L0.decompositions(d, 2)
    plan = _plan(L0, pairs, CohaElement.weight_form)
    complement_of = coha.generator_complement
    events = []
    monkeypatch.setattr(coha, "generator_complement", lambda *args: events.append("complement") or complement_of(*args))

    def act(quiver, a, c, rest, b):
        out = coha.schur_mul(quiver, a, c, rest, b)
        events.append(out)
        return out

    saved = filled = 0
    for k in range(L0.euler_form(d, d), 13, 2):
        labels = CohaElement.slice_labels(L0, d, k)
        dim = len(labels)
        events.clear()
        ech = coha.image_echelon(L0, plan, CohaElement.slice_labels, act, k, labels)
        rows = [e for e in events if e != "complement"]
        # replaying the computed products: every one but the last left the
        # rank below dim, so none was computed after the slice was spanned
        replay = Echelon()
        for row in rows[:-1]:
            replay.add(row)
        assert replay.rank < dim
        replay.add(rows[-1])
        assert replay.rank == ech.rank
        if ech.rank == dim:
            # nor was a generator complement asked for after the last product
            assert events[-1] != "complement"
            filled += 1
        events.clear()
        full = full_image_echelon(L0, pairs, CohaElement.slice_labels, CohaElement.weight_form, act, k, labels)
        assert full.rank == ech.rank
        saved += sum(e != "complement" for e in events) - len(rows)
    assert filled and saved > 0


def test_pair_plans_are_built_once_per_class(monkeypatch):
    """One `decompositions` call per class in a W^prim and a V^prim run: the
    image steps of every slice (d, k) of a class, and the factor classes
    that `generator_complement` reaches, read the class's cached plan."""
    from hallforge.cohm import ori_dt_invariants

    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)  # one process, one cache
    for run, maxdim, window in ((ori_dt_invariants, 8, 22), (primitive_dims, 5, 12)):
        quiver = loop_quiver(2)
        calls = []
        decompositions = quiver.decompositions
        # a class as (target, CoHA side): a loop quiver's CoHA and CoHM classes share tuples
        monkeypatch.setattr(
            quiver, "decompositions", lambda d, total, image=None: calls.append((d, image is None)) or decompositions(d, total, image)
        )
        run(quiver, maxdim, window)
        assert calls and len(calls) == len(set(calls)), sorted(calls)
        plans = [key for key in quiver._cache if key[0] in ("coha_plan", "cohm_plan")]
        assert len(plans) == len(calls)


def test_empty_slices_are_cached_as_empty_lists():
    """An odd-offset slice and a slice below the weight form are empty on
    both sides; the empty list is kept under the slice's cache key."""
    from hallforge.cohm import CohmElement

    quiver = loop_quiver(2)
    for cls, d in ((CohaElement, (2,)), (CohmElement, (4,))):
        form = cls.weight_form(quiver, d)
        assert cls.slice_labels(quiver, d, form) != []
        for k in (form + 1, form - 2):
            assert cls.slice_labels(quiver, d, k) == [] and slice_dim(cls, quiver, d, k) == 0
            assert quiver._cache[("slice_labels", cls, d, k)] == []


def test_complement_of_a_full_echelon_reads_no_element():
    class Unread:
        def __hash__(self):
            raise AssertionError("complement read a label")

    ech = Echelon()
    ech.add({3: 1, 5: 2})
    ech.add({5: 1})
    assert complement(ech, [Unread(), Unread()]) == []
    assert ech.rank == 2


def test_quotient_slice_cap_refuses_before_any_slice(monkeypatch):
    """A window whose slices, classes x (window // 2 + 1), exceed
    MAX_QUOTIENT_SLICES fails before any slice is computed, in
    `PrimitiveTable.build` (V^prim and W^prim) and in the sigma(d) = d loop
    of `equivariant_dt`; a window at the cap gets through to the slices."""
    from hallforge import coha, graded
    from hallforge.cohm import ori_dt_invariants
    from hallforge.errors import HallforgeError
    from hallforge.quiver import MAX_QUOTIENT_SLICES

    def unreachable(*args):
        raise AssertionError("a slice was computed")

    monkeypatch.setattr(graded, "_class_slices", unreachable)
    monkeypatch.setattr(coha, "generator_complement", unreachable)
    a1t = a1_tilde(tau=1)
    huge = 2 * MAX_QUOTIENT_SLICES
    for call in (
        lambda: ori_dt_invariants(L2, 2, 3 * 10**8),
        lambda: primitive_dims(L2, 2, huge),
        lambda: equivariant_dt(a1t, a1t.zero(), 4, huge),
    ):
        with pytest.raises(HallforgeError, match="work cap"):
            call()
    # one class of L2 (maxdim 1) and two of A1~ (|d| = 1) at exactly the cap
    for call in (
        lambda: primitive_dims(L2, 1, 2 * MAX_QUOTIENT_SLICES - 2),
        lambda: equivariant_dt(a1t, a1t.zero(), 2, MAX_QUOTIENT_SLICES - 2),
    ):
        with pytest.raises(AssertionError, match="a slice was computed"):
            call()
