"""The products in Schur coordinates run in one pass from labels to labels
(`coha.schur_mul`, `cohm.schur_act`), the element products are those label
products of their operands' Schur coordinates, and the PBW
checks share suffix products through a trie of letters.  Their oracles
are the paths they replace, kept in `oracles`: the lead product times the
cached integrand by `Poly.__mul__`, the B_D push and `straighten_terms`
(`poly_push`), the element products by divided differences with their own
layouts, signs and deferred factors (`direct_shuffle_mul`,
`direct_cohm_action`) and through the integrand built with f and g,
pushed from the unit leads (`fgk_product`), and the report that memoized
products by (seed class, suffix word) (`memo_pbw_report`).  The product
and the action share one reference each, over one integrand shape."""

from functools import partial

import pytest

from oracles import (
    add_classes,
    direct_cohm_action,
    direct_shuffle_mul,
    fgk_product,
    memo_pbw_report,
    poly_push,
    q3,
)

from hallforge import finite_type
from hallforge.coha import CohaElement, schur_mul, shuffle_mul
from hallforge.cohm import CohmElement, _fixed_node_type, cohm_action, schur_act
from hallforge.errors import ExponentOverflowError, HallforgeError
from hallforge.finite_type import build_typeA, pbw_check_coha, pbw_check_cohm
from hallforge.poly import Poly
from hallforge.proputils import Lcg, random_coha_element, random_cohm_element
from hallforge.quiver import a1_tilde, a2_quiver, loop_quiver
from hallforge.series import module_classes


def _quivers():
    out = []
    for m in range(4):
        for s in (1, -1):
            out.append(("L%d s=%+d" % (m, s), loop_quiver(m, s=s)))
    for tau in (1, -1):
        out.append(("A1t tau=%+d" % tau, a1_tilde(tau=tau)))
    for n, orient in ((2, ">"), (3, ">>")):
        for dual in ("orthogonal", "symplectic"):
            out.append(("A%d%s %s" % (n, orient, dual), build_typeA(n, orient, dual).quiver))
    return out


QUIVERS = _quivers()


def _random_row(rng, cls, quiver, d):
    """One to three labels of one random nonempty slice of class d among its
    four lowest, with nonzero coefficients of either sign, or None when
    those slices are empty."""
    form = cls.weight_form(quiver, d)
    slices = [labels for labels in (cls.slice_labels(quiver, d, form + 2 * r) for r in range(4)) if labels]
    if not slices:
        return None
    labels = rng.choice(slices)
    row = {}
    for _ in range(rng.randint(1, 3)):
        label = rng.choice(labels)
        row[label] = row.get(label, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return {label: c for label, c in row.items() if c}


@pytest.mark.parametrize("name, quiver", QUIVERS, ids=[n for n, _ in QUIVERS])
def test_one_pass_products_against_the_polynomial_path(name, quiver):
    """Every class pair of total size <= 4, three seeded random row pairs
    each."""
    rng = Lcg(20260419 + len(name))
    classes = [d for d in quiver.dimension_vectors(4) if any(d)]
    products = actions = 0
    for d1 in classes:
        for d2 in classes:
            if sum(d1) + sum(d2) > 4:
                continue
            for _ in range(3):
                f, g = _random_row(rng, CohaElement, quiver, d1), _random_row(rng, CohaElement, quiver, d2)
                if f and g:
                    assert schur_mul(quiver, d1, f, d2, g) == poly_push(CohaElement, quiver, d1, f, d2, g), (d1, f, d2, g)
                    products += 1
    for d in classes:
        for e in module_classes(quiver, 4 - 2 * sum(d)):
            for _ in range(3):
                f, g = _random_row(rng, CohaElement, quiver, d), _random_row(rng, CohmElement, quiver, e)
                if f and g:
                    assert schur_act(quiver, d, f, e, g) == poly_push(CohmElement, quiver, d, f, e, g), (d, f, e, g)
                    actions += 1
    assert products >= 15 and actions >= 6


def _both(one_pass, poly_path, *args):
    """The results of both paths, "raise" for an ExponentOverflowError."""
    out = []
    for product in (one_pass, poly_path):
        try:
            out.append(product(*args))
        except ExponentOverflowError:
            out.append("raise")
    return out


def test_exponent_bound_refuses_as_the_polynomial_path():
    """Over A2 (01 -> 02) the product H_(1,0) x H_(1,1) has the kernel
    x''_02 - x'_01: the lead exponent 1023 at x''_01 passes MAXDEG only in
    the loose bound (1023 + 1), at x''_02 also in the tight one.  On L1,
    H_(1) x M_(2) pushes y^1023 to u^511 before the deferred u - v: the
    loose bound 1023 + 1 passes MAXDEG, the tight 512 does not.  A2 with
    f at 1023 on the kernel's x'_01 is over the tight bound."""
    a2 = build_typeA(2, ">", "orthogonal").quiver
    unit = {((), ()): 1}
    accepted, refused = _both(schur_mul, partial(poly_push, CohaElement), a2, (1, 0), unit, (1, 1), {((1023,), ()): 1})
    assert accepted == refused == {((1022,), (1,)): 1, ((1022, 1), ()): -1}
    assert _both(schur_mul, partial(poly_push, CohaElement), a2, (1, 0), unit, (1, 1), {((), (1023,)): 1}) == ["raise"] * 2
    l1 = loop_quiver(1)
    accepted, refused = _both(schur_act, partial(poly_push, CohmElement), l1, (1,), {((1022,),): 1}, (2,), {((),): 1})
    assert accepted == refused == {((511,),): 2, ((510, 1),): -2}
    assert _both(schur_act, partial(poly_push, CohmElement), a2, (1, 0), {((1023,), ()): 1}, (1, 1), {((),): 1}) == ["raise"] * 2


def test_unpackable_lead_exponent_raises():
    """A lead exponent over MAXDEG (type D adds 1 to 1023) cannot be packed:
    the one-pass action refuses it, where the polynomial path packed it
    with a carry into the next slot and returned a wrong, empty row."""
    l1 = loop_quiver(1)
    with pytest.raises(ExponentOverflowError):
        schur_act(l1, (1,), {((1023,),): 1}, (2,), {((),): 1})
    assert poly_push(CohmElement, l1, (1,), {((1023,),): 1}, (2,), {((),): 1}) == {}


# -- the element products -------------------------------------------------------------

ELEMENT_QUIVERS = [("L%d s=%+d" % (m, s), loop_quiver(m, s=s)) for m in range(4) for s in (1, -1)] + [
    ("A2", a2_quiver()),
    ("A3 orthogonal", build_typeA(3, ">>", "orthogonal").quiver),
    ("A3 symplectic", build_typeA(3, ">>", "symplectic").quiver),
    ("A1t", a1_tilde()),
    ("q3(1)", q3(1)),
]


def _fixed_types(quiver, d, e):
    """The B/C/D types of the fixed nodes of the action H_d x M_e."""
    et = tuple(a + b for a, b in zip(quiver.hyperbolic(d), e))
    return {_fixed_node_type(quiver, n, et[quiver.node_index[n]]) for n in quiver.q0_sigma}


@pytest.mark.parametrize("name, quiver", ELEMENT_QUIVERS, ids=[n for n, _ in ELEMENT_QUIVERS])
def test_element_products_against_their_direct_bodies(name, quiver):
    """`shuffle_mul` and `cohm_action` push the cached integrands from
    their operands' Schur coordinates; on seeded pairs their polynomials
    equal those of the divided-difference products that laid out and
    signed their integrands themselves, and those of the integrands built
    with f and g and pushed from the unit leads, zero operands included."""
    rng = Lcg(20261019 + len(name))
    types = set()
    for _ in range(100):
        f = random_coha_element(rng, quiver, 3, 2)
        g = random_coha_element(rng, quiver, 4 - sum(f.d), 2)  # a target of size <= 4
        assert shuffle_mul(f, g) == direct_shuffle_mul(f, g) == fgk_product(CohaElement, f, g), (f.d, g.d)
        f, h = random_coha_element(rng, quiver, 2, 2), random_cohm_element(rng, quiver, 2, 2)
        assert cohm_action(f, h) == direct_cohm_action(f, h) == fgk_product(CohmElement, f, h), (f.d, h.e)
        types |= _fixed_types(quiver, f.d, h.e)
    nothing = CohmElement(quiver, quiver.zero(), Poly.zero(0))
    for d in [d for d in quiver.dimension_vectors(2) if any(d)]:
        zero, one = CohaElement(quiver, d, Poly.zero(CohaElement.layout(quiver, d)[1])), CohaElement.unit(quiver, d)
        for product, direct, f, g in (
            (shuffle_mul, direct_shuffle_mul, zero, one),
            (shuffle_mul, direct_shuffle_mul, one, zero),
            (cohm_action, direct_cohm_action, zero, CohmElement.unit(quiver)),
            (cohm_action, direct_cohm_action, one, nothing),
        ):
            out = product(f, g)
            assert out == direct(f, g) and out.poly.is_zero()
    if quiver.q0_sigma:
        assert types == ({"C"} if quiver.s[quiver.q0_sigma[0]] == -1 else {"B", "D"}), types


def _full_slice(rng, cls, quiver, d, degree):
    """The element whose Schur coordinates are every label of the slice of
    class d and polynomial degree `degree`, with seeded nonzero
    coefficients of either sign."""
    k = cls.weight_form(quiver, d) + 2 * degree
    row = {label: rng.choice((-3, -2, -1, 1, 2, 3)) for label in cls.slice_labels(quiver, d, k)}
    return cls.from_labels(quiver, d, row)


FULL_SLICE_CASES = [
    # (name, quiver, (d1, degree) x (d2, degree) for shuffle_mul, (d, degree) x (e, degree) for cohm_action)
    ("L1", loop_quiver(1), ((4,), 4), ((2,), 2), ((3,), 3), ((4,), 4)),
    ("L2", loop_quiver(2), ((3,), 4), ((1,), 2), ((2,), 4), ((3,), 2)),
    ("L3 s=-1", loop_quiver(3, s=-1), ((3,), 3), ((2,), 2), ((3,), 3), ((2,), 2)),
    ("A1t", a1_tilde(), ((1, 2), 3), ((1, 0), 1), ((1, 1), 3), ((2, 2), 2)),
    ("A3 orthogonal", build_typeA(3, ">>", "orthogonal").quiver, ((1, 1, 1), 3), ((0, 1, 0), 1), ((1, 1, 0), 2), ((1, 2, 1), 2)),
]


@pytest.mark.parametrize("case", FULL_SLICE_CASES, ids=[c[0] for c in FULL_SLICE_CASES])
def test_full_slice_products_against_the_integrands_built_with_f_and_g(case):
    """Operands whose rows are whole slices, 3 to 11 labels on one side, so
    that many lead pairs are straightened, give the polynomials of the
    integrands built with f and g and pushed from the unit leads."""
    name, quiver, (d1, deg1), (d2, deg2), (d, deg), (e, dege) = case
    rng = Lcg(20261101 + len(name))
    f, g = _full_slice(rng, CohaElement, quiver, d1, deg1), _full_slice(rng, CohaElement, quiver, d2, deg2)
    h, m = _full_slice(rng, CohaElement, quiver, d, deg), _full_slice(rng, CohmElement, quiver, e, dege)
    sizes = [len(x.to_labels()) for x in (f, g, h, m)]
    assert 3 <= max(sizes[:2]) <= 11 and 3 <= max(sizes[2:]) <= 11, sizes
    assert shuffle_mul(f, g) == fgk_product(CohaElement, f, g)
    assert cohm_action(h, m) == fgk_product(CohmElement, h, m)


@pytest.mark.parametrize("name, quiver", ELEMENT_QUIVERS, ids=[n for n, _ in ELEMENT_QUIVERS])
def test_element_products_are_the_label_products_of_their_coordinates(name, quiver):
    """A label product, expanded, is the divided-difference product of
    its operands expanded from their Schur coordinates, which read back
    the rows.  Seeded pairs of one to three labels each, so that label
    products of one and of several label pairs run."""
    rng = Lcg(20261102 + len(name))
    classes = [d for d in quiver.dimension_vectors(2) if any(d)]
    several = 0
    for _ in range(30):
        d1, d2 = rng.choice(classes), rng.choice(classes)
        e = rng.choice(module_classes(quiver, 3))
        f, g, h = _random_row(rng, CohaElement, quiver, d1), _random_row(rng, CohaElement, quiver, d2), _random_row(rng, CohmElement, quiver, e)
        if not (f and g and h):
            continue
        fe, ge, he = CohaElement.from_labels(quiver, d1, f), CohaElement.from_labels(quiver, d2, g), CohmElement.from_labels(quiver, e, h)
        assert (fe.to_labels(), ge.to_labels(), he.to_labels()) == (f, g, h)
        row = schur_mul(quiver, d1, f, d2, g)
        assert direct_shuffle_mul(fe, ge) == CohaElement.from_labels(quiver, add_classes(d1, d2), row), (d1, f, d2, g)
        row = schur_act(quiver, d1, f, e, h)
        assert direct_cohm_action(fe, he) == CohmElement.from_labels(quiver, add_classes(quiver.hyperbolic(d1), e), row), (d1, f, e, h)
        several += (len(f) * len(g) > 1) + (len(f) * len(h) > 1)
    assert several >= 4, several


def _count_straightenings(monkeypatch):
    """The list that every `straighten_blocks` call of the push
    (`symfun._push`) appends to."""
    from hallforge import symfun

    calls = []
    real = symfun.straighten_blocks

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(symfun, "straighten_blocks", counted)
    return calls


def test_push_work_cap_at_each_element_product(monkeypatch):
    """An element product whose integrand terms times the length of its
    push pass MAX_PUSH_WORK is refused before anything is straightened; one
    at the cap is pushed.  On L2, H_(2,) x H_(1,) has 9 terms and a push of
    length 2; on L1, H_(2,) x M_(1,) has 2 terms and a push of length 3,
    the B_2 push (M_(1,) has no z slot)."""
    from hallforge import poly

    straightened = _count_straightenings(monkeypatch)
    l2, l1 = loop_quiver(2), loop_quiver(1)
    products = (
        (shuffle_mul, CohaElement.unit(l2, (2,)), CohaElement.unit(l2, (1,)), 18),
        (cohm_action, CohaElement.unit(l1, (2,)), CohmElement.unit(l1, (1,)), 6),
    )
    for product, f, g, work in products:
        monkeypatch.setattr(poly, "MAX_PUSH_WORK", work - 1)
        with pytest.raises(HallforgeError, match="work cap of %d" % (work - 1)):
            product(f, g)
        assert not straightened
        monkeypatch.setattr(poly, "MAX_PUSH_WORK", work)
        assert product(f, g).poly and straightened
        straightened.clear()


def test_label_pairs_charge_at_each_element_product(monkeypatch):
    """An element product charges its operands' label pairs times the
    integrand's terms times the push's length against MAX_PUSH_WORK, and
    forms no polynomial product.  On L2, s_(2) + s_(1,1) in H_(2,) times 1
    in H_(1,) has 2 label pairs and 9 integrand terms, 18 terms at a push
    length of 2; on L1, s_(2) + s_(1,1) acting on 1 in M_(1,) has 2 label
    pairs and 2 terms, 4 terms at the B_2 push length of 3; on A2, 1 in
    H_(1, 0) times 1 in H_(0, 1) has one label pair and the 2 terms of its
    arrow numerator, at a push of length 0, charged as 1.  One under the
    charge refuses before anything is straightened; at the charge all are
    pushed, with the integrands cached first and MAX_POLY_PAIRS at 1."""
    from hallforge import poly

    straightened = _count_straightenings(monkeypatch)
    l2, l1, a2 = loop_quiver(2), loop_quiver(1), a2_quiver()
    two = {((2,),): 1, ((1, 1),): 1}
    products = (
        (shuffle_mul, CohaElement.from_labels(l2, (2,), two), CohaElement.unit(l2, (1,)), 18, 2),
        (cohm_action, CohaElement.from_labels(l1, (2,), two), CohmElement.unit(l1, (1,)), 4, 3),
        (shuffle_mul, CohaElement.unit(a2, (1, 0)), CohaElement.unit(a2, (0, 1)), 2, 1),
    )
    wants = [product(f, g) for product, f, g, _, _ in products]  # the integrands are cached
    straightened.clear()
    monkeypatch.setattr(poly, "MAX_POLY_PAIRS", 1)
    for (product, f, g, terms, length), want in zip(products, wants):
        monkeypatch.setattr(poly, "MAX_PUSH_WORK", terms * length - 1)
        with pytest.raises(HallforgeError, match="straightening %d terms at a work of %d each" % (terms, length)):
            product(f, g)
        assert not straightened
        monkeypatch.setattr(poly, "MAX_PUSH_WORK", terms * length)
        assert product(f, g) == want and want.poly and straightened
        straightened.clear()


def test_deferred_charge_at_a_fixed_node(monkeypatch):
    """A fixed node's deferred product is charged its pushed terms times
    the deferred terms times D + m before it is straightened.  On L1, the
    unit action H_(2,) x M_(2,) pushes 1 term, and prod(u_l - v) over l = 1,
    2 has 4 terms: a charge of 1 * 4 * (2 + 1) = 12, past the integrand's
    own charge of 10.  At 11 both actions are refused before
    `straighten_blocks` runs; at 12 both are pushed."""
    from hallforge import poly

    straightened = _count_straightenings(monkeypatch)
    l1 = loop_quiver(1)
    f, g = CohaElement.unit(l1, (2,)), CohmElement.unit(l1, (2,))
    unit = {((),): 1}
    actions = (lambda: cohm_action(f, g).poly, lambda: schur_act(l1, (2,), unit, (2,), unit))
    for act in actions:
        monkeypatch.setattr(poly, "MAX_PUSH_WORK", 11)
        with pytest.raises(HallforgeError, match="straightening 4 terms at a work of 3 each exceeds the work cap of 11"):
            act()
        assert not straightened
        monkeypatch.setattr(poly, "MAX_PUSH_WORK", 12)
        assert act() and straightened == [1]
        straightened.clear()


# -- the PBW trie -------------------------------------------------------------------

PBW_CASES = [
    # the five PBW jobs of the benchmark
    (pbw_check_coha, 2, ">", "orthogonal", 3, 8, 457),
    (pbw_check_coha, 3, ">>", "orthogonal", 2, 8, 1328),
    (pbw_check_coha, 3, ">>", "orthogonal", 3, 0, 99),
    (pbw_check_cohm, 2, ">", "orthogonal", 4, 12, 146),
    (pbw_check_cohm, 2, ">", "symplectic", 2, 12, 45),
    # A2-A4 in both dualities
    (pbw_check_coha, 2, ">", "symplectic", 3, 6, None),
    (pbw_check_coha, 3, "<<", "symplectic", 2, 6, None),
    (pbw_check_cohm, 3, ">>", "orthogonal", 3, 8, 266),
    (pbw_check_cohm, 3, "<<", "symplectic", 2, 8, 80),
    (pbw_check_coha, 4, ">>>", "orthogonal", 2, 4, 1574),
    (pbw_check_coha, 4, "><>", "symplectic", 1, 4, None),
    (pbw_check_cohm, 4, ">>>", "orthogonal", 2, 4, None),
    (pbw_check_cohm, 4, "><>", "symplectic", 2, 6, 141),
]


def _counted_check(report, check, n, orient, dual, bound, window):
    """(report, number of schur_mul/schur_act calls) of one PBW check on a
    fresh root system, with `report` in place of `finite_type._pbw_report`."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite_type, "_pbw_report", report)
        for name in ("schur_mul", "schur_act"):
            real = getattr(finite_type, name)

            def counted(*args, real=real):
                calls.append(args[1])
                return real(*args)

            mp.setattr(finite_type, name, counted)
        return check(build_typeA(n, orient, dual), bound, window), len(calls)


TRIE = finite_type._pbw_report


@pytest.mark.parametrize(
    "check, n, orient, dual, bound, window, products",
    PBW_CASES,
    ids=["%s-A%d%s-%s-b%dw%d" % (c[0].__name__, *c[1:6]) for c in PBW_CASES],
)
def test_trie_report_against_the_memo_report(check, n, orient, dual, bound, window, products):
    """Slice for slice the same report, from exactly as many products: the
    memo computed a product only when a whole word reached its leaf, so an
    equal count means no dead-end branch of the trie computed one."""
    trie, trie_calls = _counted_check(TRIE, check, n, orient, dual, bound, window)
    memo, memo_calls = _counted_check(memo_pbw_report, check, n, orient, dual, bound, window)
    assert trie == memo
    assert trie["pass"]
    assert trie_calls == memo_calls > 0
    if products is not None:
        assert trie_calls == products


def test_trie_prunes_dead_ends(monkeypatch):
    """With a window too small for some generator letters, words die at a
    generator slot: on A3 symplectic (4, 2) the memo report meets such dead
    ends and computes nothing for them, and the trie computes as many
    products (52; a trie that made a child before its left slots could fit
    made 53)."""
    import oracles

    dead = []
    real = oracles._letter_partitions

    def seen(m, odd, left):
        out = real(m, odd, left)
        if not out:
            dead.append((m, odd, left))
        return out

    monkeypatch.setattr(oracles, "_letter_partitions", seen)
    memo, memo_calls = _counted_check(memo_pbw_report, pbw_check_cohm, 3, ">>", "symplectic", 4, 2)
    trie, trie_calls = _counted_check(TRIE, pbw_check_cohm, 3, ">>", "symplectic", 4, 2)
    assert dead
    assert trie == memo and trie_calls == memo_calls == 52


def test_poly_pair_cap_at_each_product(monkeypatch):
    """`Poly.__mul__` and each factor of `poly.expand_factors` refuse a
    product of more than MAX_POLY_PAIRS term pairs, before forming it; a
    product at the cap is formed, and equals the chain of single-factor
    products (`oracles.mul_linear`, `oracles.mul_square_difference`).  The
    integrand builders, whose K and deferred factors interleave, refuse
    with the message of the chain oracles at every cap."""
    from oracles import chain_act_integrand, chain_mul_integrand, mul_linear, mul_square_difference

    from hallforge import coha, cohm, poly
    from hallforge.poly import SHIFT, expand_factors

    monkeypatch.setattr(poly, "MAX_POLY_PAIRS", 12)
    x = [Poly.variable(3, i) for i in range(3)]
    three = x[0] + x[1] + x[2]
    four = three + Poly.const(3, 1)
    six = four * x[0] + x[1] * x[1] + x[2] * x[2]
    seven = six + x[2]
    assert len(six.terms) == 6 and len(seven.terms) == 7
    linear = (((1, 1), (1 << SHIFT, -1)), 1)  # x_0 - x_1
    square = (((2, 1), (2 << 2 * SHIFT, -1)), 2)  # x_0^2 - x_2^2

    def expand(p, factor):
        """p times the factor, p entering as a first factor of the constant 1"""
        return expand_factors(3, (1,), [(0, tuple(p.terms.items()), p.bound), (0, *factor)])[0]

    # 12 pairs each
    assert (four * three).terms
    got = [expand(six, linear), expand(six, square)]
    want = [mul_linear(six, 1, 0, -1, 1), mul_square_difference(six, 0, 2)]
    assert [(list(p.terms.items()), p.bound) for p in got] == [(list(p.terms.items()), p.bound) for p in want]
    # 16, 14 and 14 pairs
    over = (lambda: four * (three + x[0] * x[1]), lambda: expand(seven, linear), lambda: expand(seven, square))
    for product in over:
        with pytest.raises(HallforgeError, match="a polynomial product of 1[46] term pairs exceeds the work cap of 12"):
            product()

    def message(build, *args):
        try:
            build(loop_quiver(2), *args)
        except HallforgeError as exc:
            return str(exc)
        return None

    messages = []
    for cap in (4, 10, 30, 100, 400, 2000):
        monkeypatch.setattr(poly, "MAX_POLY_PAIRS", cap)
        for build, chain, args in ((coha._mul_integrand, chain_mul_integrand, ((3,), (2,))), (cohm._act_integrand, chain_act_integrand, ((3,), (4,)))):
            messages.append(message(build, *args))
            assert messages[-1] == message(chain, *args), (cap, args)
    assert None in messages and len(set(messages)) > 4
