from fractions import Fraction
from itertools import product

import pytest

from hallforge.coha import CohaElement
from hallforge.cohm import CohmElement
from hallforge.errors import GradingError, QuiverSpecError
from hallforge.finite_type import (
    ar_order,
    build_typeA,
    dilog_identity_check,
    hom_ext,
    pbw_check_coha,
    pbw_check_cohm,
    thom_polynomial,
)
from hallforge.poly import Poly
from hallforge.symfun import schur
from oracles import RationalEchelon, label_degree, slice_dim


def neg_schur(lam, n):
    s = schur(lam, n)
    return Poly(s.n, {k: -c if sum_digits(k) % 2 else c for k, c in s.terms.items()})


def sum_digits(key):
    from hallforge.poly import key_degree

    return key_degree(key)


def test_build_and_partitions():
    rs = build_typeA(2, ">", "orthogonal")
    assert rs.order == [(1, 1), (1, 2), (2, 2)]
    assert rs.delta_minus == ((1, 1),)
    assert rs.delta_sigma == ((1, 2),)
    assert rs.delta_plus == ((2, 2),)
    assert rs.h == 0 and not rs.admits_selfdual((1, 2))
    rss = build_typeA(2, ">", "symplectic")
    assert rss.h == 1 and rss.admits_selfdual((1, 2))
    rs3 = build_typeA(3, ">>", "orthogonal")
    assert len(rs3.roots) == 6
    assert set(rs3.delta_sigma) == {(1, 3), (2, 2)}
    assert rs3.h == 1


def test_sigma_incompatible_orientation():
    with pytest.raises(QuiverSpecError):
        build_typeA(3, "><", "orthogonal")
    with pytest.raises(QuiverSpecError):
        build_typeA(3, "<>", "symplectic")
    # A4 has a genuinely non-equioriented sigma-compatible orientation
    build_typeA(4, "><>", "orthogonal")


def test_root_pair_cap_refuses_before_ar_order(monkeypatch):
    """An A_n whose R (R - 1) ordered root pairs, R = n (n + 1) / 2, exceed
    MAX_ROOT_PAIRS fails before `ar_order` visits any; A20, the largest n
    under the cap, gets through to it, and A1-A6 build as before."""
    from hallforge import finite_type
    from hallforge.errors import HallforgeError
    from hallforge.quiver import MAX_ROOT_PAIRS

    assert 210 * 209 <= MAX_ROOT_PAIRS < 231 * 230

    def unreachable(rs):
        raise AssertionError("ar_order reached")

    monkeypatch.setattr(finite_type, "ar_order", unreachable)
    for n in (21, 200, 2000):
        with pytest.raises(HallforgeError, match="work cap"):
            build_typeA(n, ">" * (n - 1), "orthogonal")
    with pytest.raises(AssertionError, match="ar_order reached"):
        build_typeA(20, ">" * 19, "symplectic")
    monkeypatch.undo()
    for n in range(1, 7):
        for duality in ("orthogonal", "symplectic"):
            assert len(build_typeA(n, ">" * (n - 1), duality).order) == n * (n + 1) // 2


def indecomposable(rs, root):
    """Matrix representation of the interval module I_root: dims and 0/1
    arrow matrices."""
    dims = {nd: d for nd, d in zip(rs.quiver.nodes, rs.dim_vector(root))}
    mats = {}
    for aid, t, h in rs.quiver.arrows:
        if dims[t] and dims[h]:
            mats[aid] = [[1]]
        else:
            mats[aid] = [[0] * dims[t] for _ in range(dims[h])]
    return dims, mats


def matrix_hom_ext(rs, root_i, root_j):
    """(dim Hom, dim Ext^1) from the rank of the linear equations of a
    morphism between matrix representations: the oracle for hom_ext."""
    (dimsI, matsI), (dimsJ, matsJ) = indecomposable(rs, root_i), indecomposable(rs, root_j)
    quiver = rs.quiver
    var_index = {}
    for nd in quiver.nodes:
        for r in range(dimsJ[nd]):
            for c in range(dimsI[nd]):
                var_index[(nd, r, c)] = len(var_index)
    ech = RationalEchelon()
    for aid, t, h in quiver.arrows:
        # J_a phi_t - phi_h I_a = 0, entrywise
        for r in range(dimsJ[h]):
            for c in range(dimsI[t]):
                row = {}
                for m in range(dimsJ[t]):
                    if matsJ[aid][r][m]:
                        key = var_index[(t, m, c)]
                        row[key] = row.get(key, 0) + matsJ[aid][r][m]
                for m in range(dimsI[h]):
                    if matsI[aid][m][c]:
                        key = var_index[(h, r, m)]
                        row[key] = row.get(key, 0) - matsI[aid][m][c]
                row = {k: Fraction(v) for k, v in row.items() if v}
                if row:
                    ech.add(row)
    hom = len(var_index) - ech.rank
    return hom, hom - quiver.euler_form(rs.dim_vector(root_i), rs.dim_vector(root_j))


def sigma_compatible_systems(max_n):
    """Every type-A root system up to rank max_n: each sigma-compatible
    orientation with both dualities."""
    for n in range(1, max_n + 1):
        for orient in map("".join, product("<>", repeat=n - 1)):
            if all(orient[i] == orient[n - 2 - i] for i in range(n - 1)):
                for duality in ("orthogonal", "symplectic"):
                    yield build_typeA(n, orient, duality)


def test_hom_ext():
    rs = build_typeA(2, ">", "orthogonal")
    for r in rs.roots:
        assert hom_ext(rs, r, r) == (1, 0)
    assert hom_ext(rs, (1, 1), (2, 2)) == (0, 1)
    assert hom_ext(rs, (1, 2), (1, 1)) == (1, 0)
    # the interval rule agrees with the rank of the Hom equations on every
    # ordered pair of indecomposables
    for rs in sigma_compatible_systems(5):
        for a in rs.roots:
            for b in rs.roots:
                assert hom_ext(rs, a, b) == matrix_hom_ext(rs, a, b), (rs.orientation, a, b)


def test_ar_order_matches_rank_oracle(monkeypatch):
    from hallforge import finite_type

    systems = list(sigma_compatible_systems(5))
    monkeypatch.setattr(finite_type, "hom_ext", matrix_hom_ext)
    for rs in systems:
        assert ar_order(rs) == rs.order, rs.orientation


def test_ar_order_validates():
    for n, orient in ((1, ""), (2, ">"), (2, "<"), (3, ">>"), (4, "><>")):
        rs = build_typeA(n, orient, "orthogonal")
        order = ar_order(rs)
        assert len(order) == n * (n + 1) // 2
    rs = build_typeA(1, "", "orthogonal")
    assert rs.order == [(1, 1)]


def test_ar_order_matches_rescan_oracle():
    # Kahn's algorithm on a sorted list of ready roots (rs.order) gives the
    # orders of the rescanning version, on every sigma-compatible orientation
    # of A1..A12 with both dualities.  The Hom/Ext table reads the orientation
    # only, so the oracle runs once per orientation.
    from oracles import rescan_ar_order

    systems = list(sigma_compatible_systems(12))
    assert len(systems) == 2 * (1 + 2 * (2 + 4 + 8 + 16 + 32) + 64)  # palindromic orientations
    want = {}
    for rs in systems:
        if rs.orientation not in want:
            want[rs.orientation] = rescan_ar_order(rs)
        assert rs.order == want[rs.orientation], (rs.n, rs.orientation, rs.duality_type)


def test_ar_order_cycle_raises(monkeypatch):
    from hallforge import finite_type
    from hallforge.errors import HallforgeError

    rs = build_typeA(2, ">", "orthogonal")
    # Hom and Ext both nonzero both ways: every root must precede every other
    monkeypatch.setattr(finite_type, "hom_ext", lambda rs, r, t: (1, 1))
    with pytest.raises(HallforgeError, match="cycle"):
        ar_order(rs)


def test_duality_partition_involution():
    for n, orient in ((2, ">"), (3, ">>"), (4, "><>")):
        rs = build_typeA(n, orient, "symplectic")
        for r in rs.delta_minus:
            assert rs.dual_root(r) in rs.delta_plus
            assert rs.position[r] < rs.position[rs.dual_root(r)]
        for r in rs.delta_sigma:
            assert rs.dual_root(r) == r


def test_thom_polynomials_a2():
    orth = build_typeA(2, ">", "orthogonal")
    symp = build_typeA(2, ">", "symplectic")
    for d in (1, 2, 3):
        for e in (0, 2):
            t = thom_polynomial(orth, {(1, 1): d, (2, 2): d, (1, 2): e})
            lam = tuple(x for x in range(d - 1, 0, -1))
            assert t.poly == neg_schur(lam, d + e), (d, e)
        for e in (0, 1, 2):
            t = thom_polynomial(symp, {(1, 1): d, (2, 2): d, (1, 2): e})
            lam = tuple(range(d, 0, -1))
            assert t.poly == neg_schur(lam, d + e).scale(2 ** d), (d, e)
    with pytest.raises(GradingError):
        thom_polynomial(orth, {(1, 1): 1, (2, 2): 1, (1, 2): 1})
    with pytest.raises(GradingError):
        thom_polynomial(orth, {(1, 1): 2, (2, 2): 1})
    unit = thom_polynomial(orth, {})
    assert unit.poly.terms.get(0) == 1 and unit.e == (0, 0)


@pytest.mark.parametrize("m", [1.5, 1.0, True, Fraction(1), "1"])
def test_thom_polynomial_refuses_inexact_multiplicities(m):
    """A multiplicity that is not an int is refused with GradingError, not
    truncated by int(): on A2 ">" orthogonal {(1, 1): 1.5, (2, 2): 1.5}
    became multiplicity 1."""
    orth = build_typeA(2, ">", "orthogonal")
    with pytest.raises(GradingError, match="multiplicities must be ints"):
        thom_polynomial(orth, {(1, 1): m, (2, 2): m})
    assert thom_polynomial(orth, {(1, 1): 1, (2, 2): 1}).e == (1, 1)


@pytest.mark.parametrize("n, orient", [(2.0, ">"), (True, ""), (1.0, ""), ("2", ">")])
def test_build_typeA_refuses_a_size_that_is_not_an_int(n, orient):
    with pytest.raises(QuiverSpecError, match="A_n needs an int n"):
        build_typeA(n, orient, "orthogonal")


def test_dilog_identity_small():
    for n, orient in ((1, ""), (2, ">")):
        for dual in ("orthogonal", "symplectic"):
            rep = dilog_identity_check(build_typeA(n, orient, dual), 4, 16)
            assert rep["pass"], (n, dual, rep["mismatches"][:2])


def test_dilog_identity_nonequioriented_a4():
    rep = dilog_identity_check(build_typeA(4, "><>", "symplectic"), 4, 12)
    assert rep["pass"], rep["mismatches"][:2]


def test_pbw_coha_a2():
    rs = build_typeA(2, ">", "orthogonal")
    rep = pbw_check_coha(rs, 2, 8)
    assert rep["pass"]
    assert rep["simple"]["pass"] and rep["indecomposable"]["pass"]
    for (d, k), (rows, rank, dim) in rep["simple"]["slices"].items():
        assert rows == rank == dim


def test_pbw_cohm_a2_both_dualities():
    rep = pbw_check_cohm(build_typeA(2, ">", "orthogonal"), 2, 8)
    assert rep["pass"]
    rep = pbw_check_cohm(build_typeA(2, ">", "symplectic"), 2, 8)
    assert rep["pass"]


def test_pbw_coha_a1():
    rep = pbw_check_coha(build_typeA(1, "", "orthogonal"), 3, 10)
    assert rep["pass"]


def test_a5_structure():
    rs = build_typeA(5, ">>>>", "orthogonal")
    assert len(rs.roots) == 15
    assert set(rs.delta_sigma) == {(1, 5), (2, 4), (3, 3)}
    assert rs.h == 1  # odd rank orthogonal is non-hyperbolic


def test_a5_fixed_node_action_branches():
    from hallforge.coha import CohaElement, shuffle_mul
    from hallforge.cohm import CohmElement, cohm_action
    from hallforge.poly import Poly

    rs = build_typeA(5, ">>>>", "orthogonal")
    q = rs.quiver
    # hyperbolic doubling of the fixed-node simple: same 2*1 pattern as the
    # type-D zero-loop action
    f3 = CohaElement.unit(q, (0, 0, 1, 0, 0))
    out = cohm_action(f3, CohmElement.unit(q, q.zero()))
    assert out.e == (0, 0, 2, 0, 0) and out.poly == Poly.const(1, 2)
    # arrows into the fixed node with an odd module component (epsilon = 1)
    f2 = CohaElement.unit(q, (0, 1, 1, 0, 0))
    x1 = CohmElement.unit(q, (0, 0, 1, 0, 0))
    mixed = cohm_action(f2, x1)
    assert not mixed.is_zero() and mixed.is_invariant()
    assert mixed.weight() == f2.weight() + x1.weight() - q.star_twist(f2.d, x1.e)
    # associativity across the fixed node
    g2 = CohaElement.unit(q, (0, 1, 0, 0, 0))
    lhs = cohm_action(shuffle_mul(g2, f3), x1)
    rhs = cohm_action(g2, cohm_action(f3, x1))
    assert lhs == rhs
    assert lhs.is_invariant()


def test_thom_a3_multiroot():
    rs = build_typeA(3, ">>", "orthogonal")
    t = thom_polynomial(rs, {(1, 1): 1, (3, 3): 1, (1, 3): 1, (2, 2): 1})
    assert t.e == (2, 2, 2)
    assert not t.poly.is_zero()
    assert t.is_invariant()


def test_slice_report_fills_every_class_reached():
    from hallforge.coha import CohaElement
    from hallforge.finite_type import _slice_report

    q = build_typeA(1, "", "orthogonal").quiver
    d = (1,)
    chi = q.euler_form(d, d)
    # the only product of class d lies above the window 0, so the constants
    # H_(d, chi) were never reached
    rep = _slice_report(CohaElement, q, {(d, chi + 2): [Poly.variable(1, 0).terms]}, [], {d}, 0, {})
    assert not rep["pass"]
    assert rep["slices"] == {(d, chi): (0, 0, 1)}
    # a class whose root tuple was enumerated counts as reached even when
    # pruning computed none of its products
    rep = _slice_report(CohaElement, q, {}, [], {d}, 0, {})
    assert not rep["pass"]
    assert rep["slices"] == {(d, chi): (0, 0, 1)}


# -- PBW enumeration ---------------------------------------------------------------


def test_pbw_products_are_homogeneous_and_in_window(monkeypatch):
    # _bucket files a product under the slice k that its word fixes; every
    # label of the row must lie in that slice, and the exact budgets compute
    # no product above the window
    from hallforge import finite_type

    seen = []
    bucket = finite_type._bucket

    def checked(buckets, zeros, d, k, row):
        if row:
            seen.append((d, k, row))
        bucket(buckets, zeros, d, k, row)

    monkeypatch.setattr(finite_type, "_bucket", checked)
    for check, cls, args, bound, window in [
        (pbw_check_coha, CohaElement, (2, ">", "orthogonal"), 3, 8),
        (pbw_check_coha, CohaElement, (3, ">>", "orthogonal"), 2, 8),
        (pbw_check_cohm, CohmElement, (2, ">", "symplectic"), 2, 12),
        (pbw_check_cohm, CohmElement, (3, ">>", "orthogonal"), 3, 8),
        (pbw_check_cohm, CohmElement, (3, "<<", "symplectic"), 2, 8),
        (pbw_check_coha, CohaElement, (4, ">>>", "orthogonal"), 2, 4),
        (pbw_check_cohm, CohmElement, (4, "><>", "symplectic"), 2, 6),
    ]:
        del seen[:]
        rs = build_typeA(*args)
        quiver = rs.quiver
        assert check(rs, bound, window)["pass"]
        assert len(seen) > 20
        for d, k, row in seen:
            degrees = {label_degree(cls, quiver, d, label) for label in row}
            assert len(degrees) == 1  # homogeneous
            assert max(degrees) <= window // 2
            # the slice read off the word is the slice of every label
            assert 2 * max(degrees) + cls.weight_form(quiver, d) == k


@pytest.mark.parametrize("check, cls, dropped", [
    (pbw_check_coha, CohaElement, (1, 1)),
    (pbw_check_cohm, CohmElement, (1, 1)),
])
def test_pbw_fills_classes_without_products(monkeypatch, check, cls, dropped):
    # a class whose root tuples were enumerated is reported even when none
    # of its products is filed: every in-window slice reads (0, 0, dim)
    from hallforge import finite_type

    bucket = finite_type._bucket

    def drop(buckets, zeros, d, k, row):
        if d != dropped:
            bucket(buckets, zeros, d, k, row)

    monkeypatch.setattr(finite_type, "_bucket", drop)
    rs = build_typeA(2, ">", "symplectic")
    rep = check(rs, 2, 6)
    assert not rep["pass"]
    for name in ("simple", "indecomposable"):
        lo = cls.weight_form(rs.quiver, dropped)
        want = {
            (dropped, k): (0, 0, slice_dim(cls, rs.quiver, dropped, k))
            for k in range(lo, lo + 7)
            if slice_dim(cls, rs.quiver, dropped, k)
        }
        got = {key: v for key, v in rep[name]["slices"].items() if key[0] == dropped}
        assert got == want and want


@pytest.mark.parametrize("orient, duality, bound, window", [
    (">>", "orthogonal", 3, 8),
    (">>", "orthogonal", 3, 12),
    ("<<", "symplectic", 2, 8),
    ("<<", "symplectic", 4, 8),
])
def test_pbw_cohm_a3(orient, duality, bound, window):
    # these failed while every product had the flat budget window // 2: the
    # action can lower the degree, and those products were never computed
    rep = pbw_check_cohm(build_typeA(3, orient, duality), bound, window)
    assert rep["pass"], {n: rep[n]["slices"] for n in ("simple", "indecomposable")}


@pytest.mark.parametrize("check", [pbw_check_coha, pbw_check_cohm])
@pytest.mark.parametrize("bound, window", [
    ((2, 2), 4),  # short: roots past the tuple's end were never capped
    ((2, 2, 2, 2), 4),
    ((2, 2.0, 2), 4),
    ([2, 2, 2], 4),
    (2.5, 4),
    (True, 4),
    (-1, 4),
    ((2, -1, 2), 4),
    ("2", 4),
    (2, -1),
    (2, 2.0),
    (2, True),
    (2, None),
])
def test_pbw_checks_refuse_bad_bound_or_window(monkeypatch, check, bound, window):
    from hallforge import finite_type

    def no_work(*args):
        raise AssertionError("enumerated before checking the input")

    rs = build_typeA(3, ">>", "orthogonal")
    monkeypatch.setattr(finite_type, "_root_tuples", no_work)
    with pytest.raises(GradingError):
        check(rs, bound, window)


@pytest.mark.parametrize("check, words", [(pbw_check_coha, 74), (pbw_check_cohm, 36)])
def test_pbw_word_cap_refuses_before_any_product(monkeypatch, check, words):
    """A side of a PBW check with more than MAX_PBW_WORDS words fails while
    its words are enumerated, before any product of either side; at exactly
    the cap the report is unchanged.  On A3 >> orth at bound 2 the largest
    side has 74 words for the algebra (the indecomposable root tuples) and
    36 for the module, 6 outer tuples times 6 multiplicity tuples over the
    seeds, so its cap of 35 is passed by the product alone."""
    from hallforge import finite_type
    from hallforge.errors import HallforgeError

    rs = build_typeA(3, ">>", "orthogonal")
    want = check(rs, 2, 4)
    monkeypatch.setattr(finite_type, "MAX_PBW_WORDS", words)
    assert check(rs, 2, 4) == want

    def unreachable(*args):
        raise AssertionError("product formed")

    monkeypatch.setattr(finite_type, "MAX_PBW_WORDS", words - 1)
    monkeypatch.setattr(finite_type, "_pbw_report", unreachable)
    with pytest.raises(HallforgeError, match="work cap of %d" % (words - 1)):
        check(rs, 2, 4)


@pytest.mark.parametrize("check", [pbw_check_coha, pbw_check_cohm])
def test_pbw_checks_take_a_full_bound_tuple(check):
    rs = build_typeA(3, ">>", "orthogonal")
    assert check(rs, (2, 2, 2), 4) == check(rs, 2, 4)
    rep = check(rs, (1, 2, 1), 4)
    reached = {d for name in ("simple", "indecomposable") for d, _ in rep[name]["slices"]}
    assert reached and all(x <= c for d in reached for x, c in zip(d, (1, 2, 1)))
    assert (0, 2, 0) in reached


@pytest.mark.parametrize(
    "check, cls, rs, bound, window",
    [
        (pbw_check_coha, CohaElement, build_typeA(3, ">>", "orthogonal"), 2, 8),
        (pbw_check_cohm, CohmElement, build_typeA(2, ">", "symplectic"), 2, 8),
    ],
)
def test_pbw_check_computes_each_slice_dim_once(monkeypatch, check, cls, rs, bound, window):
    """The simple and the indecomposable report of one check share one
    count table per class: one `weight_basis_size` call per class, up to
    degree window // 2, every reported dim is `slice_dim`, and the reports
    are those of uncounted runs."""
    from hallforge import finite_type

    expected = check(rs, bound, window)
    real, calls = finite_type.weight_basis_size, []

    def counted(blocks, degree):
        calls.append((tuple(blocks), degree))
        return real(blocks, degree)

    monkeypatch.setattr(finite_type, "weight_basis_size", counted)
    assert check(rs, bound, window) == expected
    assert calls and len(calls) == len(set(calls)) and {deg for _, deg in calls} == {window // 2}
    slices = {key: dims[2] for name in ("simple", "indecomposable") for key, dims in expected[name]["slices"].items()}
    assert {tuple(cls.blocks(rs.quiver, d)) for d, _ in slices} <= {blocks for blocks, _ in calls}
    assert all(dim == slice_dim(cls, rs.quiver, d, k) for (d, k), dim in slices.items())


def _psi_element(rs, root, lam, parts):
    """rs.psi(root, lam, parts) expanded into its CoHA element."""
    d, label = rs.psi(root, lam, parts)
    return CohaElement.from_labels(rs.quiver, d, {label: 1})


def _flat_pbw_coha(rs, bound, window, budget):
    """The enumeration with one flat budget sum |lam| <= budget for every
    root tuple, products bucketed by homogeneous components: with a budget
    above the largest shift, a superset of the in-window products, used as
    oracle."""
    from hallforge.coha import shuffle_mul
    from hallforge.finite_type import _root_tuples

    bound = (bound,) * rs.n
    slices = {}
    memo = {(): CohaElement.unit(rs.quiver)}

    def product(key):
        """left product of the psi-images over ((root, mult, lam), ...)"""
        if key not in memo:
            f = _psi_element(rs, *key[-1])
            memo[key] = f if len(key) == 1 else shuffle_mul(product(key[:-1]), f)
        return memo[key]

    for name, roots in (("simple", rs.simple_roots()[::-1]), ("indecomposable", list(rs.order))):
        products = []
        for tup in _root_tuples(rs, roots, bound):
            active = [(roots[i], m) for i, m in enumerate(tup) if m]
            for lams in _lam_choices([m for _, m in active], budget):
                products.append(product(tuple((r, lam, m) for (r, m), lam in zip(active, lams))))
        slices[name] = _flat_report(CohaElement, rs.quiver, products, window)
    return slices


def _flat_pbw_cohm(rs, bound, window, budget):
    """As _flat_pbw_coha for the action: generator parts with sum |mu| <=
    budget and outer products with sum |lam| <= budget."""
    from hallforge.cohm import act_many
    from hallforge.finite_type import _root_tuples, _shifted_schur_partition, _subsets

    bound = (bound,) * rs.n
    slices = {}
    cases = (
        ("simple", [r for r in rs.order if r[0] == r[1] and r in rs.delta_plus][::-1],
         [r for r in rs.order if r[0] == r[1] and r in rs.delta_sigma]),
        ("indecomposable", list(rs.delta_minus), list(rs.delta_sigma)),
    )
    for name, outer_roots, sigma_roots in cases:
        products = []
        for pi in _subsets(sigma_roots):
            if not all(rs.admits_selfdual(b) for b in pi):
                continue
            evec = [sum(x) for x in zip([0] * rs.n, *(rs.dim_vector(b) for b in pi))]
            seed = CohmElement.unit(rs.quiver, tuple(evec))
            for mults in _root_tuples(rs, sigma_roots, [(c - x) // 2 for c, x in zip(bound, evec)]):
                gens = [(b, c) for b, c in zip(sigma_roots, mults) if c]
                for lams in _lam_choices([c for _, c in gens], budget):
                    mus = [
                        _shifted_schur_partition(lam, c, b in pi or rs.hyperbolic_case)
                        for (b, c), lam in zip(gens, lams)
                    ]
                    if sum(map(sum, mus)) > budget:
                        continue
                    base = act_many([_psi_element(rs, b, mu, c) for (b, c), mu in zip(gens, mus)], seed)
                    for tup in _root_tuples(rs, outer_roots, bound):
                        active = [(outer_roots[i], m) for i, m in enumerate(tup) if m]
                        e = list(base.e)
                        for r, m in active:
                            h = rs.quiver.hyperbolic(tuple(m * x for x in rs.dim_vector(r)))
                            e = [a + b for a, b in zip(e, h)]
                        if any(x > c for x, c in zip(e, bound)):
                            continue
                        for outer in _lam_choices([m for _, m in active], budget):
                            factors = [_psi_element(rs, r, lam, m) for (r, m), lam in zip(active, outer)]
                            products.append(act_many(factors, base))
        slices[name] = _flat_report(CohmElement, rs.quiver, products, window)
    return slices


def _lam_choices(parts, budget):
    """Tuples of partitions, the i-th with at most parts[i] parts, of total
    size <= budget."""
    from hallforge.finite_type import _partitions_upto

    if not parts:
        return [()]
    return [
        (lam,) + rest
        for lam in _partitions_upto(budget, parts[0])
        for rest in _lam_choices(parts[1:], budget - sum(lam))
    ]


def _flat_report(cls, quiver, products, window):
    from hallforge.finite_type import _slice_report

    buckets = {}
    for p in products:
        assert not p.is_zero()
        form = cls.weight_form(quiver, p.degree)
        for deg, comp in p.poly.homogeneous_components().items():
            buckets.setdefault((p.degree, 2 * deg + form), []).append(comp.terms)
    return _slice_report(cls, quiver, buckets, [], {d for d, _ in buckets}, window, {})["slices"]


# The oracle's flat budget must exceed every tuple's exact budget.  The CoHA
# shift -sum_{i<j} chi(d_i, d_j) is >= 0 on these systems, so window // 2 + 1
# already does (the flat budget `window` would take about a minute on A2
# (3, 12)); the action's shift can be negative, and its oracle uses `window`.
@pytest.mark.parametrize("check, oracle, args, bound, window, budget", [
    (pbw_check_coha, _flat_pbw_coha, (2, ">", "orthogonal"), 3, 8, 5),
    (pbw_check_coha, _flat_pbw_coha, (2, ">", "orthogonal"), 3, 12, 7),
    (pbw_check_coha, _flat_pbw_coha, (3, ">>", "orthogonal"), 2, 8, 5),
    (pbw_check_cohm, _flat_pbw_cohm, (2, ">", "orthogonal"), 2, 8, 8),
    (pbw_check_cohm, _flat_pbw_cohm, (2, ">", "orthogonal"), 3, 12, 12),
    (pbw_check_cohm, _flat_pbw_cohm, (2, ">", "symplectic"), 2, 8, 8),
    (pbw_check_cohm, _flat_pbw_cohm, (2, ">", "symplectic"), 2, 12, 12),
    (pbw_check_cohm, _flat_pbw_cohm, (2, ">", "orthogonal"), 4, 12, 12),
    (pbw_check_cohm, _flat_pbw_cohm, (3, ">>", "orthogonal"), 3, 8, 8),
    (pbw_check_cohm, _flat_pbw_cohm, (3, ">>", "orthogonal"), 3, 12, 12),
    (pbw_check_cohm, _flat_pbw_cohm, (3, "<<", "symplectic"), 2, 8, 8),
])
def test_pbw_reports_against_flat_budget_enumeration(check, oracle, args, bound, window, budget):
    rs = build_typeA(*args)
    rep = check(rs, bound, window)
    assert {n: rep[n]["slices"] for n in ("simple", "indecomposable")} == oracle(rs, bound, window, budget)
