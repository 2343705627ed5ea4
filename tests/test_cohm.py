from fractions import Fraction

import pytest

from hallforge import cohm as cohm_module
from hallforge.coha import CohaElement, equivariant_dt
from hallforge.cohm import (
    CohmElement,
    action_degree_shift,
    check_disjoint_union,
    check_freeness,
    check_module_relation,
    check_sd_euler_disjoint,
    cohm_action,
    general_factorization_check,
    loop_factorization,
    ori_dt_invariants,
    witt_decompose,
    witt_representative,
)
from hallforge.errors import GradingError, HallforgeError, OddSymplecticError, SymmetryError
from hallforge.poly import Poly
from hallforge.quiver import a1_tilde, a2_quiver, loop_quiver
from hallforge.series import ori_dt_series, pochhammer_q2_product, sign_pow
from hallforge.symfun import schur

from oracles import from_exponents, per_class_factorization_rhs, slice_dim

L0 = loop_quiver(0)
L0C = loop_quiver(0, s=-1)
L1 = loop_quiver(1, s=1, tau=[1])
L1M = loop_quiver(1, s=1, tau=[-1])
L2 = loop_quiver(2)


def xpow(quiver, i, exp=1):
    return CohaElement(quiver, (1,), Poly.variable(1, 0, i)) if exp == 1 else None


def test_zero_loop_action_values():
    # type D: x^2 * 1 -> 2 z^2 ; type B: x^1 * 1 -> -2
    f2 = CohaElement(L0, (1,), Poly.variable(1, 0, 2))
    assert cohm_action(f2, CohmElement.unit(L0, (0,))).poly == Poly.variable(1, 0, 2).scale(2)
    f1 = CohaElement(L0, (1,), Poly.variable(1, 0, 1))
    out = cohm_action(f1, CohmElement.unit(L0, (1,)))
    assert out.e == (3,) and out.poly == Poly.const(1, -2)


def test_zero_loop_schur_actions():
    # type D: even strictly decreasing i:
    #   s_{i-delta} * 1 = (-1)^binom(d,2) 2^d s~_{i/2-delta}
    cases = [((2,), 1), ((4, 2), 2), ((6, 2), 2), ((4, 2, 0), 3)]
    for seq, d in cases:
        lam = tuple(seq[t] - (d - 1 - t) for t in range(d))
        f = CohaElement(L0, (d,), schur(tuple(x for x in lam if x), d))
        half = tuple(x // 2 for x in seq)
        mu = tuple(half[t] - (d - 1 - t) for t in range(d))
        sign = (-1) ** (d * (d - 1) // 2)
        expected = schur(tuple(x for x in mu if x), d, squared=True).scale(sign * 2 ** d)
        assert cohm_action(f, CohmElement.unit(L0, (0,))).poly == expected, seq
    # type B: odd strictly decreasing i:
    #   s_{i-delta} * 1^s_1 = (-1)^binom(d,2) (-2)^d s~_{(i-1)/2-delta}
    cases = [((1,), 1), ((3, 1), 2), ((5, 3, 1), 3), ((5, 1), 2)]
    for seq, d in cases:
        lam = tuple(seq[t] - (d - 1 - t) for t in range(d))
        f = CohaElement(L0, (d,), schur(tuple(x for x in lam if x), d))
        half = tuple((x - 1) // 2 for x in seq)
        mu = tuple(half[t] - (d - 1 - t) for t in range(d))
        sign = (-1) ** (d * (d - 1) // 2)
        expected = schur(tuple(x for x in mu if x), d, squared=True).scale(sign * (-2) ** d)
        assert cohm_action(f, CohmElement.unit(L0, (1,))).poly == expected, seq


def test_zero_loop_actions_iterated_route():
    # independent oracle: iterate d = 1 actions through the generator product
    seqs = [((3, 1), 1), ((4, 2), 0), ((5, 3), 1), ((4, 0), 0)]
    for seq, e0 in seqs:
        d = len(seq)
        lam = tuple(seq[t] - (d - 1 - t) for t in range(d))
        f = CohaElement(L0, (d,), schur(tuple(x for x in lam if x), d))
        single = cohm_action(f, CohmElement.unit(L0, (e0,)))
        iterated = CohmElement.unit(L0, (e0,))
        for i in seq:  # ascending-exponent product acts right to left
            iterated = cohm_action(
                CohaElement(L0, (1,), Poly.variable(1, 0, i)), iterated
            )
        assert single == iterated, seq


def test_one_loop_monomial_actions():
    from oracles import double_exponents, monomial_sym

    # type D, tau = 1: purely odd i of length d: the loop kernel carries the
    # 2^d prefactor, so m_i * 1^s_{2e} = (-4)^d m~_{(i+1)/2, 0^e}
    for seq, e in (((1,), 0), ((3, 1), 0), ((1,), 1), ((3,), 2)):
        d = len(seq)
        f = CohaElement(L1, (d,), monomial_sym(seq, d))
        target = cohm_action(f, CohmElement.unit(L1, (2 * e,)))
        half = tuple((x + 1) // 2 for x in seq)
        expected = double_exponents(monomial_sym(half, d + e)).scale((-4) ** d)
        assert target.poly == expected, (seq, e)


def test_a2_actions():
    for s, const in ((1, 1), (-1, None)):
        q = a2_quiver(s=s)
        u = CohaElement.unit(q, (1, 0))
        out = cohm_action(u, CohmElement.unit(q, (0, 0)))
        if s == 1:
            assert out.poly == Poly.const(1, 1)
        else:
            assert out.poly == Poly.variable(1, 0).scale(-2)


def test_a2_higher_actions():
    q = a2_quiver()
    m0 = CohmElement.unit(q, (0, 0))
    for i in range(4):
        f = CohaElement(q, (1, 0), Poly.variable(1, 0, i))
        assert cohm_action(f, m0).poly == Poly.variable(1, 0, i)
    # x_{2,1}^j: node "2" owns the second variable of the (1, 1) ring
    nu1 = CohaElement(q, (1, 1), Poly.variable(2, 1))
    assert cohm_action(nu1, m0).poly == Poly.const(2, -1)
    nu3 = CohaElement(q, (1, 1), Poly.variable(2, 1, 3))
    expected = from_exponents(2, {(2, 0): -1, (1, 1): -1, (0, 2): -1})
    assert cohm_action(nu3, m0).poly == expected


def test_action_invariance_and_weight():
    from hallforge.proputils import Lcg, random_coha_element, random_cohm_element

    rng = Lcg(21)
    for q in (L2, a1_tilde(tau=1)):
        for _ in range(25):
            f = random_coha_element(rng, q, 2, 2)
            g = random_cohm_element(rng, q, 2, 2)
            out = cohm_action(f, g)
            assert out.is_invariant()
            if not (f.is_zero() or g.is_zero() or out.is_zero()):
                assert out.weight() == f.weight() + g.weight()


def test_module_relation():
    f = CohaElement(L2, (1,), Poly.variable(1, 0))
    rep = check_module_relation(f, CohmElement.unit(L2, (1,)))
    assert rep["pass"] and rep["sign"] == sign_pow(
        L2.euler_form((1,), (1,)) + L2.sd_euler_form((1,))
    )
    with pytest.raises(SymmetryError):
        check_module_relation(
            CohaElement.unit(a2_quiver(), (1, 0)),
            CohmElement.unit(a2_quiver(), (0, 0)),
        )


def test_witt_decompose():
    xs = [CohmElement.unit(L2, (e,)) for e in range(4)]
    parts = witt_decompose(L2, xs)
    assert sorted(parts) == [(0,), (1,)]
    assert [x.e for x in parts[(1,)]] == [(1,), (3,)]
    symp = loop_quiver(0, s=-1)
    assert list(witt_decompose(symp, [CohmElement.unit(symp, (2,))])) == [(0,)]


def test_zero_one_loop_tables():
    t = ori_dt_invariants(L0, 5, 12).table()
    assert t.entries == {((0,), 0): 1, ((1,), 0): 1}
    tc = ori_dt_invariants(L0C, 5, 12).table()
    assert tc.entries == {((0,), 0): 1}
    t1 = ori_dt_invariants(L1, 6, 12).table()
    assert t1.entries == {
        ((0,), 0): 1, ((1,), -1): 1, ((2,), -2): 1, ((3,), -3): 1,
        ((4,), -4): 1, ((5,), -5): 1, ((6,), -6): 1,
    }
    t1m = ori_dt_invariants(L1M, 5, 12).table()
    assert t1m.entries == {((0,), 0): 1, ((1,), 0): 1}
    t1c = ori_dt_invariants(loop_quiver(1, s=-1, tau=[1]), 5, 12).table()
    assert t1c.entries == {((0,), 0): 1}


def test_a1_tilde_tables():
    t = ori_dt_invariants(a1_tilde(tau=-1), 6, 12).table()
    assert t.entries == {((0, 0), 0): 1}
    t1 = ori_dt_invariants(a1_tilde(tau=1), 6, 12).table()
    assert t1.entries == {((e, e), -e): 1 for e in range(4)}


def test_loop_factorization_consistency():
    lf = loop_factorization(L2, 7, 20, quotient_window=20)
    assert all(data["consistent"] for data in lf.values())
    lfc = loop_factorization(loop_quiver(2, s=-1), 6, 20, quotient_window=20)
    assert all(data["consistent"] for data in lfc.values())


@pytest.mark.parametrize("quiver", [L2, loop_quiver(3, s=1, tau=[1, -1, 1]), loop_quiver(2, s=-1)], ids=["L2", "L3", "L2 s=-1"])
def test_loop_factorization_shares_one_dt_table(monkeypatch, quiver):
    """The Witt classes of a loop quiver share one dt_invariants table;
    each class's A~ is the one its own equivariant_dt gives."""
    maxdim, window = 8, 24
    calls = []
    dt = cohm_module.dt_invariants

    def counted(*args):
        calls.append(args)
        return dt(*args)

    monkeypatch.setattr(cohm_module, "dt_invariants", counted)
    lf = loop_factorization(quiver, maxdim, window)
    assert calls == [(quiver, maxdim // 2, window)]
    assert len(lf) == (1 if quiver.s[quiver.nodes[0]] == -1 else 2)
    for w, data in lf.items():
        sig = equivariant_dt(quiver, witt_representative(quiver, w), maxdim, window)
        assert data["atilde"].to_json_dict() == pochhammer_q2_product(sig, maxdim, window).to_json_dict()


def test_general_factorization():
    for q in (L0, L1, L1M, L0C):
        rep = general_factorization_check(q, 6, 12)
        assert rep["pass"], rep["mismatches"][:3]
    rep = general_factorization_check(L2, 7, 14)
    assert rep["pass"], rep["mismatches"][:3]
    for tau in (1, -1):
        rep = general_factorization_check(a1_tilde(tau=tau), 6, 12)
        assert rep["pass"], rep["mismatches"][:3]


def test_general_factorization_one_factor_per_witt_class(monkeypatch):
    # the factor A~ depends on the Witt class alone: A1-tilde has no fixed
    # node, so its classes (0, 0) and (1, 1) share one factor
    from hallforge import cohm

    calls = []
    real = cohm.equivariant_dt

    def counted(quiver, e, maxdim, window):
        calls.append(quiver.witt_class(e))
        return real(quiver, e, maxdim, window)

    monkeypatch.setattr(cohm, "equivariant_dt", counted)
    for q in (a1_tilde(tau=1), L1):
        del calls[:]
        assert general_factorization_check(q, 6, 12)["pass"]
        assert sorted(calls) == sorted(set(calls)), calls
    assert calls == [(0,), (1,)]


FACTORIZATION_CASES = [
    ("L0", L0, 6, 12), ("L1", L1, 6, 12), ("L2", L2, 7, 14), ("L3", loop_quiver(3), 6, 10),
    ("L2 s=-1", loop_quiver(2, s=-1), 6, 12), ("A1t tau=+1", a1_tilde(tau=1), 6, 12), ("A1t tau=-1", a1_tilde(tau=-1), 6, 12),
]


@pytest.mark.parametrize("name, quiver, maxdim, window", FACTORIZATION_CASES, ids=[c[0] for c in FACTORIZATION_CASES])
def test_factorization_rhs_per_witt_class_against_the_per_class_sum(monkeypatch, name, quiver, maxdim, window):
    """`general_factorization_check` multiplies the Omega rows of each Witt
    class by A_Q of that class once; its right-hand side has the rows and
    the windows of the sum of one product per module class
    (`oracles.per_class_factorization_rhs`), and so the same report."""
    from hallforge.series import QSeries

    seen, real = [], QSeries.agrees_with

    def kept(self, other):
        seen.append((self, other))
        return real(self, other)

    monkeypatch.setattr(QSeries, "agrees_with", kept)
    report = general_factorization_check(quiver, maxdim, window)
    monkeypatch.undo()
    (asigma, rhs), = seen
    want = per_class_factorization_rhs(quiver, maxdim, window)
    assert rhs.rows == want.rows and rhs.meta == want.meta and rhs.maxdim == want.maxdim
    ok, want_report = asigma.agrees_with(want)
    want_report["property"], want_report["pass"] = "factorization", ok
    assert report == want_report and ok
    # several classes share a Witt class, so the grouping merges rows
    assert len({quiver.witt_class(e) for e in rhs.rows}) < len(rhs.rows)


def test_check_freeness():
    rep = check_freeness(L1, 6, 10)
    assert rep["pass"] and rep["slice_surjectivity"]
    rep2 = check_freeness(a1_tilde(tau=1), 5, 10)
    assert rep2["pass"]


def test_disjoint_union_checks():
    triples = []
    for i in range(3):
        f1 = CohaElement(L1, (1,), Poly.variable(1, 0, i))
        f2 = CohaElement(L1, (1,), Poly.variable(1, 0, (i + 1) % 3))
        f3 = CohaElement(L1, (1,), Poly.variable(1, 0, 2 - i))
        triples.append((f1, f2, f3))
    assert check_disjoint_union(L1, triples)["pass"]
    a2 = a2_quiver()
    tri = [
        (
            CohaElement.unit(a2, (1, 0)),
            CohaElement.unit(a2, (0, 1)),
            CohaElement.unit(a2, (1, 1)),
        )
    ]
    assert check_disjoint_union(a2, tri)["pass"]
    pairs = [((2,), (1,)), ((1,), (3,)), ((0,), (2,)), ((2,), (2,))]
    assert check_sd_euler_disjoint(L1, pairs)["pass"]
    assert check_sd_euler_disjoint(a2, [((1, 0), (0, 1)), ((2, 1), (1, 2))])["pass"]


def test_slice_dims_match_series():
    s = ori_dt_series(L2, 5, 12)
    for e in range(6):
        ee = L2.sd_euler_form((e,))
        for k in range(ee, ee + 13):
            assert s.coefficient((e,), k) == Fraction(
                slice_dim(CohmElement, L2, (e,), k) * sign_pow(k)
            )


def test_cohm_element_validation():
    with pytest.raises(OddSymplecticError):
        CohmElement.unit(loop_quiver(0, s=-1), (3,))
    with pytest.raises(GradingError):
        CohmElement(L2, (2,), Poly.variable(1, 0))  # odd power at BCD block
    x = CohmElement(L2, (2,), Poly.variable(1, 0, 2))
    assert x.weight() == L2.sd_euler_form((2,)) + 4


def test_cohm_json_roundtrip():
    label = CohmElement.slice_labels(L2, (4,), L2.sd_euler_form((4,)) + 4)[0]
    x = CohmElement(L2, (4,), CohmElement.from_labels(L2, (4,), {label: 1}).poly)
    doc = x.to_json_dict()
    assert CohmElement.from_json_dict(L2, doc) == x


def test_l2_minimal_generators():
    # minimal generator content through xi^5: units at e = 0,1,3,5 plus the
    # degree-two class z1^2 + z2^2 at (5, -6), and the even-side xi^4 class
    t = ori_dt_invariants(L2, 5, 14)
    assert sorted(t.dims) == [
        ((0,), 0), ((1,), 0), ((3,), -3), ((4,), -6), ((5,), -10), ((5,), -6),
    ]
    assert all(v == 1 for v in t.dims.values())
    for e, k in (((1,), 0), ((3,), -3), ((5,), -10)):
        assert CohmElement.from_labels(L2, e, {t.bases[(e, k)][0]: 1}).poly.terms.get(0) == 1
    gen = CohmElement.from_labels(L2, (5,), {t.bases[((5,), -6)][0]: 1}).poly
    assert gen == from_exponents(2, {(2, 0): 1, (0, 2): 1})


def test_check_freeness_l2():
    rep = check_freeness(L2, 6, 12)
    assert rep["pass"] and rep["slice_surjectivity"]


def test_atilde_window_cap_consistency():
    # assembling the equivariant product with a wider table window must agree
    # with the narrow assembly everywhere the narrow one claims validity
    from hallforge.coha import equivariant_dt
    from hallforge.series import pochhammer_q2_product

    narrow = pochhammer_q2_product(equivariant_dt(L2, (1,), 8, 12), 8, 12)
    wide = pochhammer_q2_product(equivariant_dt(L2, (1,), 8, 30), 8, 30)
    for d, (lo, hi) in narrow.meta.items():
        if hi is None:
            continue
        for k in range(lo, hi + 1):
            assert narrow.coefficient(d, k) == wide.coefficient(d, k), (d, k)


def test_parallel_matches_sequential(monkeypatch):
    from hallforge.coha import primitive_dims

    def tables():
        # fresh quivers, so that no run reads another's cache
        return [ori_dt_invariants(loop_quiver(2), 5, 10), primitive_dims(a1_tilde(tau=1), 3, 8)]

    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)
    seq = tables()
    monkeypatch.setenv("HALLFORGE_THREADS", "2")
    par = tables()
    for s, p in zip(seq, par):
        assert p.table().entries == s.table().entries and p.validity == s.validity
        assert p.bases == s.bases and p.bases


def test_pickled_quiver_is_its_spec():
    import pickle

    from hallforge.coha import generator_complement

    quiver = a1_tilde(tau=1)
    assert generator_complement(quiver, (1, 1), 2)
    assert quiver._cache
    copy = pickle.loads(pickle.dumps(quiver))
    assert copy._cache == {}  # before ==, which caches the structure key
    assert copy == quiver and copy.to_dict() == quiver.to_dict()


def test_coha_and_cohm_slices_of_one_degree_stay_distinct():
    # on a loop quiver H_(2,) has two GL variables and M_(2,) one BCD
    # variable: the slices of one (d, k) are cached apart
    def basis(cls, q, d, k):
        return [cls.from_labels(q, d, {label: 1}) for label in cls.slice_labels(q, d, k)]

    both = 0
    for m in (0, 2):
        q = loop_quiver(m)
        for d in ((1,), (2,), (3,)):
            lo = min(q.euler_form(d, d), q.sd_euler_form(d))
            for k in range(lo, lo + 9):
                h = basis(CohaElement, q, d, k)
                w = basis(CohmElement, q, d, k)
                assert all(type(x) is CohaElement for x in h)
                assert all(type(x) is CohmElement for x in w)
                assert h == basis(CohaElement, loop_quiver(m), d, k)
                assert w == basis(CohmElement, loop_quiver(m), d, k)
                both += bool(h and w)
    assert both


def test_clear_caches_recomputes_identical_tables(monkeypatch):
    """clear_caches empties the quiver's memo and the process-global ones:
    every block size's straightening memo, `_lead_key`, `lead`,
    `_partitions` and `_type_b_push`."""
    from hallforge import symfun

    # a pool task fills its own copy's memo, never q's
    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)
    q = loop_quiver(2)
    first = ori_dt_invariants(q, 5, 10)
    shared = [symfun._lead_key, symfun.lead, symfun._partitions, symfun._type_b_push]
    shared += [symfun._straightener(size) for size in range(1, 11)]
    sizes = [memo.cache_info().currsize for memo in shared]
    assert q._cache and all(sizes[:4]) and any(sizes[4:])
    q.clear_caches()
    assert q._cache == {}
    assert [memo.cache_info().currsize for memo in shared] == [0] * len(shared)
    again = ori_dt_invariants(q, 5, 10)
    assert again.table().entries == first.table().entries
    assert again.bases == first.bases and first.bases


def test_partition_choice_invariance():
    # the same abstract quiver with relabeled nodes flips which member of the
    # swapped pair carries the module variables; all reported invariants
    # agree, and raw action coordinates flip by z -> -z
    from hallforge.quiver import QuiverWithDuality
    from hallforge.series import ori_dt_series

    std = QuiverWithDuality(
        ["1", "2"], [("a", "1", "2")], {"1": "2", "2": "1"}, {"a": "a"},
        {"1": -1, "2": -1}, {"a": -1},
    )
    flip = QuiverWithDuality(
        ["a", "b"], [("x", "b", "a")], {"a": "b", "b": "a"}, {"x": "x"},
        {"a": -1, "b": -1}, {"x": -1},
    )
    assert std.q0_plus == ("1",) and flip.q0_plus == ("a",)
    for e in ((0, 0), (1, 1), (2, 2), (3, 3)):
        assert std.sd_euler_form(e) == flip.sd_euler_form(e)
    s1 = ori_dt_series(std, 4, 10)
    s2 = ori_dt_series(flip, 4, 10)
    assert {(d, k): c for (d, k), c in s1.terms.items()} == {
        (d, k): c for (d, k), c in s2.terms.items()
    }
    # relabeling sends std node 1 to flip node b, so (1,0) maps to (0,1)
    u_std = cohm_action(CohaElement.unit(std, (1, 0)), CohmElement.unit(std, (0, 0)))
    u_flip = cohm_action(CohaElement.unit(flip, (0, 1)), CohmElement.unit(flip, (0, 0)))
    assert u_std.poly == Poly.variable(1, 0).scale(-2)
    assert u_flip.poly == Poly.variable(1, 0).scale(2)
    h_std = cohm_action(CohaElement.unit(std, (0, 1)), CohmElement.unit(std, (0, 0)))
    h_flip = cohm_action(CohaElement.unit(flip, (1, 0)), CohmElement.unit(flip, (0, 0)))
    assert h_std.poly.terms.get(0) == 1 and h_flip.poly.terms.get(0) == 1


def test_twisted_weight_law_for_actions():
    # w(f * g) = w(f) + w(g) - gamma(d, e) on a non-sigma-symmetric quiver
    from hallforge.proputils import Lcg, random_coha_element, random_cohm_element
    from hallforge.quiver import a2_quiver

    a2 = a2_quiver()
    rng = Lcg(37)
    seen_nonzero = 0
    for _ in range(60):
        f = random_coha_element(rng, a2, 2, 2)
        g = random_cohm_element(rng, a2, 1, 2)
        out = cohm_action(f, g)
        if f.is_zero() or g.is_zero() or out.is_zero():
            continue
        seen_nonzero += 1
        assert out.weight() == f.weight() + g.weight() - a2.star_twist(f.d, g.e)
    assert seen_nonzero >= 10


def _shift_quivers():
    from hallforge.finite_type import build_typeA

    quivers = [
        build_typeA(n, ">" * (n - 1), duality).quiver
        for n in range(1, 6)
        for duality in ("orthogonal", "symplectic")
    ]
    quivers += [build_typeA(4, "><>", "symplectic").quiver]
    quivers += [loop_quiver(m, s=s) for m in range(3) for s in (1, -1)]
    return quivers + [a1_tilde(tau=1), a1_tilde(tau=-1)]


def test_action_degree_shift():
    # deg(f * g) = deg f + deg g + action_degree_shift(d, e): the degree
    # budget of pbw_check_cohm.  The shift takes both signs on type A.
    from hallforge.proputils import Lcg, random_coha_element, random_cohm_element

    rng = Lcg(67)
    nonzero, signs = 0, set()
    for q in _shift_quivers():
        for _ in range(40):
            f = random_coha_element(rng, q, 2, 2)
            g = random_cohm_element(rng, q, 2, 2)
            out = cohm_action(f, g)
            if f.is_zero() or g.is_zero() or out.is_zero():
                continue
            nonzero += 1
            shift = action_degree_shift(q, f.d, g.e)
            signs.add((shift > 0) - (shift < 0))
            assert out.poly.is_homogeneous()
            assert out.poly.degree() == f.poly.degree() + g.poly.degree() + shift
    assert nonzero >= 150 and signs == {-1, 0, 1}


def operator_degree_shift(quiver, d, e):
    """The degree of the linear factors cohm_action multiplies in minus the
    degree its pushes remove, counted off the operator schedule."""
    idx, fixed = quiver.node_index, set(quiver.q0_sigma)

    def v_tilde(i):  # degree of V~^(i) against one point
        return 2 * (e[idx[i]] // 2) + e[idx[i]] % 2 if i in fixed else e[idx[i]]

    shift = 0
    for a, t, h in quiver.arrows:
        dt = d[idx[t]]
        if quiver.sigma_arrows[a] == a:
            shift += dt * v_tilde(h) + dt * (dt - 1) // 2 + dt * (quiver.s[h] * quiver.tau[a] != -1)
        elif a in quiver.arrow_partition[2]:
            dsh = d[idx[quiver.sigma_nodes[h]]]
            shift += dsh * v_tilde(t) + dt * v_tilde(h) + dsh * dt
    for n in quiver.q0_plus:
        dn, en = d[idx[n]], e[idx[n]]
        shift -= dn * en + (dn + en) * d[idx[quiver.sigma_nodes[n]]]
    for n in quiver.q0_sigma:
        D, m = d[idx[n]], e[idx[n]] // 2
        type_d = quiver.s[n] == 1 and e[idx[n]] % 2 == 0
        shift -= D * (D + 1) // 2 + 2 * D * m - (D if type_d else 0)
    return shift


def test_action_degree_shift_counts_the_operators():
    # the closed form from the twisted weight law against the operator
    # schedule of cohm_action, on every small (d, e), vanishing actions too
    from itertools import product

    for q in _shift_quivers():
        n = len(q.nodes)
        for d in product(range(3), repeat=n):
            for e in product(range(4), repeat=n):
                if q.sigma_dim(e) != e or any(e[q.node_index[x]] % 2 for x in q.q0_sigma if q.s[x] == -1):
                    continue
                assert action_degree_shift(q, d, e) == operator_degree_shift(q, d, e), (q, d, e)


def test_worker_count_is_clamped(monkeypatch):
    import os

    from hallforge.parallel import worker_count

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("HALLFORGE_THREADS", "64")
    assert worker_count() == 4
    assert worker_count(10) == 4
    assert worker_count(3) == 3
    assert worker_count(0) == 0
    monkeypatch.setenv("HALLFORGE_THREADS", "2")
    assert worker_count(10) == 2
    # a value that is not an integer is an input error, not "sequential"
    monkeypatch.setenv("HALLFORGE_THREADS", "many")
    with pytest.raises(HallforgeError, match="HALLFORGE_THREADS='many'"):
        worker_count(10)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setenv("HALLFORGE_THREADS", "8")
    assert worker_count(10) == 1


def evaluate(poly, point):
    total = 0
    for exps, c in poly.sorted_terms():
        for x, k in zip(point, exps):
            c *= x**k
        total += c
    return total


def sigma_shuffle_sum_at(f, g, point):
    """The sigma-shuffle sum of f * g at a point, term by term with the full
    localization kernel and exact rational denominators: the definition,
    used as oracle.  Returns (value, number of sigma-shuffles)."""
    from itertools import combinations, product

    quiver, idx = f.quiver, f.quiver.node_index
    d, e = f.d, g.e
    et = tuple(a + b for a, b in zip(quiver.hyperbolic(d), e))
    off, _ = CohmElement.layout(quiver, et)
    fixed = set(quiver.q0_sigma)
    choices = []
    for n in quiver.q0_plus:
        sn = quiver.sigma_nodes[n]
        size = d[idx[n]] + e[idx[n]] + d[idx[sn]]
        opts = []
        for a in combinations(range(size), d[idx[n]]):
            rest = [j for j in range(size) if j not in a]
            for b in combinations(rest, e[idx[n]]):
                opts.append((a, b, tuple(j for j in rest if j not in b)))
        choices.append(opts)
    for n in quiver.q0_sigma:
        size = d[idx[n]] + e[idx[n]] // 2
        opts = []
        for signs in product((1, -1), repeat=d[idx[n]]):
            for a in combinations(range(size), d[idx[n]]):
                opts.append((signs, a, tuple(j for j in range(size) if j not in a)))
        choices.append(opts)
    total, count = Fraction(0), 0
    for picked in product(*choices):
        count += 1
        xp, zs = {}, {}
        for n, (a, b, c) in zip(quiver.q0_plus, picked):
            sn = quiver.sigma_nodes[n]
            block = point[off[n]:]
            for l, j in enumerate(a):
                xp[(n, l)] = block[j]
            for k, j in enumerate(b):
                zs[(n, k)], zs[(sn, k)] = block[j], -block[j]
            for m, j in enumerate(c):
                xp[(sn, m)] = -block[j]
        for n, (signs, a, b) in zip(quiver.q0_sigma, picked[len(quiver.q0_plus):]):
            block = point[off[n]:]
            for l, j in enumerate(a):
                xp[(n, l)] = signs[l] * block[j]
            for k, j in enumerate(b):
                zs[(n, k)] = block[j]

        def xs(n):
            return [xp[(n, l)] for l in range(d[idx[n]])]

        def zz(n):
            return [zs[(n, k)] for k in range(e[idx[n]] // 2 if n in fixed else e[idx[n]])]

        term = Fraction(evaluate(f.poly, [x for n in quiver.nodes for x in xs(n)]))
        term *= evaluate(g.poly, [z for n in quiver.nodes if n in off for z in zz(n)])
        # denominators: tangent spaces of the isotropic flag
        for n in quiver.q0_plus:
            sn = quiver.sigma_nodes[n]
            for x in xs(n):
                for z in zz(n):
                    term /= z - x
                for y in xs(sn):
                    term /= -y - x
            for y in xs(sn):
                for z in zz(n):
                    term /= -y - z
        for n in quiver.q0_sigma:
            x = xs(n)
            if quiver.s[n] == -1:
                for v in x:
                    term /= -2 * v
            elif et[idx[n]] % 2:
                for v in x:
                    term /= -v
            for k in range(len(x)):
                for l in range(k + 1, len(x)):
                    term /= -x[k] - x[l]
                for z in zz(n):
                    term /= x[k] ** 2 - z**2

        # numerators: the arrows of Q1^sigma and Q1^+
        def v_tilde(i, x, lin):
            """V~^(i) against the points x; lin(v, z) is its factor at a GL node"""
            out = Fraction(1)
            for v in x:
                for z in zz(i):
                    out *= v**2 - z**2 if i in fixed else lin(v, z)
                if i in fixed and e[idx[i]] % 2:
                    out *= -v
            return out

        for aid, t, h in quiver.arrows:
            if quiver.sigma_arrows[aid] == aid:
                x = xs(t)
                term *= v_tilde(h, x, lambda v, z: z - v)
                strict = quiver.s[h] * quiver.tau[aid] == -1
                for j in range(len(x)):
                    for k in range(j + 1 if strict else j, len(x)):
                        term *= -x[j] - x[k]
            elif aid in quiver.arrow_partition[2]:
                y = xs(quiver.sigma_nodes[h])
                term *= v_tilde(t, y, lambda v, z: -v - z)
                term *= v_tilde(h, xs(t), lambda v, z: z - v)
                for v in y:
                    for x in xs(t):
                        term *= -v - x
        total += term
    return total, count


def test_cohm_action_against_sigma_shuffle_sum():
    from math import comb

    from hallforge.finite_type import build_typeA
    from hallforge.proputils import Lcg, random_coha_element, random_cohm_element
    from hallforge.quiver import disjoint_double

    quivers = [loop_quiver(0), L0C]
    for m in (1, 2, 3):
        for s in (1, -1):
            for tau in (1, -1):
                quivers.append(loop_quiver(m, s=s, tau=[tau] * m))
    quivers += [a1_tilde(tau=1), a1_tilde(tau=-1), a1_tilde(tau=1, s=-1)]
    quivers += [a2_quiver(s=1), a2_quiver(s=-1)]
    quivers += [
        build_typeA(3, ">>", "orthogonal").quiver,
        build_typeA(3, ">>", "symplectic").quiver,
        build_typeA(3, "<<", "orthogonal").quiver,
        build_typeA(4, ">>>", "orthogonal").quiver,
        disjoint_double(L1),
    ]
    rng = Lcg(53)
    for q in quivers:
        idx = q.node_index
        done = 0
        while done < 30:
            f = random_coha_element(rng, q, 3, 2)
            g = random_cohm_element(rng, q, 3, 2)
            et = tuple(a + b for a, b in zip(q.hyperbolic(f.d), g.e))
            nvars = CohmElement.layout(q, et)[1]
            if f.is_zero() or g.is_zero() or nvars > 5:
                continue
            done += 1
            cached = set(q._cache)
            out = cohm_action(f, g)
            # the action adds only its integrand entry
            assert set(q._cache) - cached <= {("cohm_integrand", f.d, g.e)}
            point = []
            while len(point) < nvars:
                x = rng.randint(1, 40) * rng.choice((1, -1))
                if all(abs(x) != abs(y) for y in point):
                    point.append(x)
            value, count = sigma_shuffle_sum_at(f, g, point)
            assert evaluate(out.poly, point) == value, (f, g)
            expected = 1
            for n in q.q0_plus:
                dn, en, dsn = f.d[idx[n]], g.e[idx[n]], f.d[idx[q.sigma_nodes[n]]]
                expected *= comb(dn + en + dsn, dn) * comb(en + dsn, en)
            for n in q.q0_sigma:
                dn, m = f.d[idx[n]], g.e[idx[n]] // 2
                expected *= 2**dn * comb(dn + m, dn)
            assert count == expected
