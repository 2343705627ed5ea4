"""The rank pipelines work in Schur coordinates ({label: coeff}, a label one
partition per block).  The element products `shuffle_mul` and `cohm_action`
push by the same straightening, so the oracle here is the divided-difference
products `direct_shuffle_mul` and `direct_cohm_action`: every label product,
expanded through `from_labels`, must equal the oracle product of the
expanded inputs."""

import pytest

from oracles import (
    chain_act_integrand,
    chain_mul_integrand,
    dd_schur,
    direct_cohm_action,
    direct_shuffle_mul,
    fg_integrand,
    from_exponents,
    full_divided_difference,
    pair_loop_push,
    q3,
)

from hallforge import graded, symfun
from hallforge.coha import CohaElement, _mul_integrand, _times_power_sum, primitive_dims, s_involution, s_label, schur_mul
from hallforge.cohm import CohmElement, _act_integrand, cohm_action, ori_dt_invariants, schur_act
from hallforge.errors import ExponentOverflowError
from hallforge.finite_type import build_typeA, pbw_check_coha, pbw_check_cohm
from hallforge.poly import Poly, unpack_exponents
from hallforge.proputils import Lcg, random_dim, random_selfdual_dim
from hallforge.quiver import a1_tilde, disjoint_double, loop_quiver
from hallforge.series import module_classes
from hallforge.symfun import lead_terms, straighten


def _quivers():
    out = []
    for m in range(4):
        for s in (1, -1):
            for tau in (1, -1):
                out.append(("L%d s=%+d tau=%+d" % (m, s, tau), loop_quiver(m, s=s, tau=[tau] * m)))
    for s in (1, -1):
        for tau in (1, -1):
            out.append(("A1t s=%+d tau=%+d" % (s, tau), a1_tilde(tau=tau, s=s)))
    for n, orient in ((2, ">"), (2, "<"), (3, ">>"), (3, "<<")):
        for dual in ("orthogonal", "symplectic"):
            out.append(("A%d%s %s" % (n, orient, dual), build_typeA(n, orient, dual).quiver))
    out.append(("double L1", disjoint_double(loop_quiver(1))))
    out += [("q3 loops=1", q3(1)), ("q3 loops=2", q3(2))]
    return out


QUIVERS = _quivers()


def expand(cls, quiver, d, row):
    return cls.from_labels(quiver, d, row).poly


def _draw_label(rng, cls, quiver, d, maxdeg):
    """A random label of a nonempty slice of class d, or None."""
    form = cls.weight_form(quiver, d)
    labels = cls.slice_labels(quiver, d, form + 2 * rng.randint(0, maxdeg))
    return rng.choice(labels) if labels else None


@pytest.mark.parametrize("name, quiver", QUIVERS, ids=[n for n, _ in QUIVERS])
def test_label_products_against_element_products(name, quiver):
    rng = Lcg(20140917 + len(name))
    products = actions = 0
    for _ in range(80):
        d1, d2 = random_dim(rng, quiver, 2), random_dim(rng, quiver, 2)
        a, b = _draw_label(rng, CohaElement, quiver, d1, 2), _draw_label(rng, CohaElement, quiver, d2, 2)
        if a is None or b is None:
            continue
        d = tuple(x + y for x, y in zip(d1, d2))
        want = direct_shuffle_mul(CohaElement.from_labels(quiver, d1, {a: 1}), CohaElement.from_labels(quiver, d2, {b: 1}))
        assert expand(CohaElement, quiver, d, schur_mul(quiver, d1, {a: 1}, d2, {b: 1})) == want.poly, (d1, a, d2, b)
        products += 1
    for _ in range(80):
        d, e = random_dim(rng, quiver, 2), random_selfdual_dim(rng, quiver, 2)
        a, b = _draw_label(rng, CohaElement, quiver, d, 2), _draw_label(rng, CohmElement, quiver, e, 1)
        if a is None or b is None:
            continue
        want = direct_cohm_action(CohaElement.from_labels(quiver, d, {a: 1}), CohmElement.from_labels(quiver, e, {b: 1}))
        assert expand(CohmElement, quiver, want.e, schur_act(quiver, d, {a: 1}, e, {b: 1})) == want.poly, (d, a, e, b)
        actions += 1
    assert products > 20 and actions > 20


def _draw_row(rng, cls, quiver, d, maxdeg):
    """{label: coeff} over one to three labels of one slice of class d, or
    None when the drawn slice is empty."""
    form = cls.weight_form(quiver, d)
    labels = cls.slice_labels(quiver, d, form + 2 * rng.randint(0, maxdeg))
    if not labels:
        return None
    return {rng.choice(labels): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}


A3_ORTH, A3_SYMP = build_typeA(3, ">>", "orthogonal").quiver, build_typeA(3, ">>", "symplectic").quiver
ROUND_TRIP_CASES = [
    # (name, element class, quiver, degree): every block kind
    ("GL", CohaElement, loop_quiver(2), (3,)),
    ("GL and a size-0 GL block", CohaElement, a1_tilde(), (0, 3)),
    ("three GL blocks", CohaElement, A3_ORTH, (1, 2, 1)),
    ("BCD type D", CohmElement, loop_quiver(1), (6,)),
    ("BCD type B", CohmElement, loop_quiver(1), (7,)),
    ("BCD type C", CohmElement, loop_quiver(1, s=-1), (6,)),
    ("size-0 BCD block", CohmElement, A3_ORTH, (2, 1, 2)),
    ("Q0^- partner block", CohmElement, a1_tilde(), (3, 3)),
    ("partner and BCD blocks", CohmElement, A3_ORTH, (1, 3, 1)),
    ("partner and type C blocks", CohmElement, A3_SYMP, (2, 2, 2)),
    ("no variables", CohmElement, a1_tilde(), (0, 0)),
]


def _power_sum_element(cls, quiver, d):
    """The element prod over the blocks of (1 + 2 p_1 - p_2^2), p_k the
    power sum of the block's variables v (v = z^2 on a BCD block), built by
    polynomial arithmetic and not from labels."""
    n = cls.layout(quiver, d)[1]
    total, pos = Poly.const(n, 1), 0
    for _, kind, size in cls.blocks(quiver, d):
        step = 2 if kind == "BCD" else 1
        p1, p2 = (sum((Poly.variable(n, pos + j, step * k) for j in range(size)), Poly.zero(n)) for k in (1, 2))
        total = total * (Poly.const(n, 1) + p1.scale(2) - p2 * p2)
        pos += size
    return cls(quiver, d, total)


@pytest.mark.parametrize("name, cls, quiver, d", ROUND_TRIP_CASES, ids=[c[0] for c in ROUND_TRIP_CASES])
def test_to_labels_inverts_from_labels(name, cls, quiver, d):
    """`to_labels` reads back every row that `from_labels` expands, over
    the five lowest slices of the class (whole slices with seeded
    coefficients, and single labels), `from_labels` rebuilds an element
    made by polynomial arithmetic from its row, and the zero element is
    the empty row."""
    rng = Lcg(20261103 + len(name))
    form = cls.weight_form(quiver, d)
    rows = 0
    for r in range(5):
        labels = cls.slice_labels(quiver, d, form + 2 * r)
        whole = {label: rng.choice((-3, -2, -1, 1, 2, 3)) for label in labels}
        for row in [whole] + [{label: 1} for label in labels]:
            if row:
                assert cls.from_labels(quiver, d, row).to_labels() == row, (d, row)
                rows += 1
    assert rows >= (5 if cls.layout(quiver, d)[1] else 1)
    x = _power_sum_element(cls, quiver, d)
    assert cls.from_labels(quiver, d, x.to_labels()) == x
    zero = cls(quiver, d, Poly.zero(cls.layout(quiver, d)[1]))
    assert zero.to_labels() == {} and cls.from_labels(quiver, d, {}) == zero


def test_to_labels_refuses_a_lifted_exponent_out_of_range():
    """x^delta lifts the exponents of a block of n variables by up to n - 1,
    so s_(1023) in two variables, whose x_1^1023 becomes x_1^1024, cannot
    be read: ExponentOverflowError, as the old F * G * K route refused it
    in the product's exponent bound.  A BCD block halves first, so s_(511)
    in z^2 (exponent 1022) reads back."""
    l1 = loop_quiver(1)
    with pytest.raises(ExponentOverflowError):
        CohaElement.from_labels(l1, (2,), {((1023,),): 1}).to_labels()
    assert CohmElement.from_labels(l1, (4,), {((511,),): 1}).to_labels() == {((511,),): 1}


PUSH_QUIVERS = [(name, quiver) for name, quiver in QUIVERS if name[0] == "L" or name.startswith("A3")]


@pytest.mark.parametrize("name, quiver", PUSH_QUIVERS, ids=[n for n, _ in PUSH_QUIVERS])
def test_parity_grouped_push_against_the_pair_loop(name, quiver):
    """`symfun._push` pairs a lead only with the integrand terms whose y
    parities make every y exponent of a fixed node odd.  On seeded rows
    (L0-L3 with s, tau = +-1, and A3, whose middle node is fixed) the push
    of the cached integrand (`schur_act`) equals the loop over every pair,
    entry for entry and in order.  The element path (`cohm_action`, the
    same push of the expanded rows' Schur coordinates) equals the pair loop
    over the integrand built with f and g (`oracles.fg_integrand`) on the
    expanded rows."""
    rng = Lcg(20261020 + len(name))
    checked = 0
    for _ in range(40):
        d, e = random_dim(rng, quiver, 2, exact=True), random_selfdual_dim(rng, quiver, 3)
        f, g = _draw_row(rng, CohaElement, quiver, d, 3), _draw_row(rng, CohmElement, quiver, e, 3)
        if not f or not g:
            continue
        it = _act_integrand(quiver, d, e)
        leads, top = lead_terms(f, it.fside, g, it.gside)
        want = pair_loop_push(it, leads, top)
        assert list(schur_act(quiver, d, f, e, g).items()) == list(want.items()), (d, f, e, g)
        fe, ge = CohaElement.from_labels(quiver, d, f), CohmElement.from_labels(quiver, e, g)
        fg = fg_integrand(it, fe.poly, ge.poly)
        leads, top = lead_terms({((),) * len(fg.fside[0]): 1}, fg.fside, {((),) * len(fg.gside[0]): 1}, fg.gside)
        row = pair_loop_push(fg, leads, top)
        got = cohm_action(fe, ge)
        assert got == CohmElement.from_labels(quiver, got.e, row), (d, f, e, g)
        checked += bool(it.fixed)
    assert checked > 10


@pytest.mark.parametrize("name, quiver", PUSH_QUIVERS, ids=[n for n, _ in PUSH_QUIVERS])
def test_factor_list_integrands_against_the_linear_chain(name, quiver):
    """The integrand builders list their factors and expand them in one
    `poly.expand_factors` pass; on every class pair whose product has
    total size <= 6 (H_d1 x H_d2 -> H_(d1+d2), and H_d x M_e -> M_(H(d)+e)
    with |H(d)| = 2|d|) sign * K, and the
    deferred product of the action, equal the chain of single-factor
    products (`oracles.chain_mul_integrand`, `chain_act_integrand`): the
    same terms in the same insertion order, and the same bound."""

    def same(p, q):
        return list(p.terms.items()) == list(q.terms.items()) and p.bound == q.bound

    classes = quiver.dimension_vectors(6)
    pairs = 0
    for d1 in classes:
        for d2 in classes:
            if sum(d1) + sum(d2) <= 6:
                assert same(_mul_integrand.__wrapped__(quiver, d1, d2).kernel, chain_mul_integrand(quiver, d1, d2)), (d1, d2)
                pairs += 1
        for e in module_classes(quiver, 6 - 2 * sum(d1)):
            it = _act_integrand.__wrapped__(quiver, d1, e)
            want, want_deferred = chain_act_integrand(quiver, d1, e)
            assert same(it.kernel, want) and same(it.deferred, want_deferred), (d1, e)
            pairs += 1
    assert pairs > 20


@pytest.mark.parametrize("name, quiver", PUSH_QUIVERS, ids=[n for n, _ in PUSH_QUIVERS])
def test_integrand_lengths_are_the_push_lengths(name, quiver):
    """The integrands carry the length of their push, which the element
    products charge per term: on every class pair whose product has total
    size <= 6, sum_n d1_n d2_n for H_d1 x H_d2, and for H_d x M_e the sum
    over Q0^+ of d_i e_i + (d_i + e_i) d_sigma(i) plus D(D + 1)/2 + D m
    per fixed node (D = d_i, m = floor(e_i / 2)), the formulas the two
    element products charged with before they shared one body."""
    idx = quiver.node_index
    classes = quiver.dimension_vectors(6)
    pairs = 0
    for d1 in classes:
        for d2 in classes:
            if sum(d1) + sum(d2) <= 6:
                assert _mul_integrand(quiver, d1, d2).length == sum(a * b for a, b in zip(d1, d2)), (d1, d2)
                pairs += 1
        for e in module_classes(quiver, 6 - 2 * sum(d1)):
            want = sum(d1[idx[n]] * e[idx[n]] + (d1[idx[n]] + e[idx[n]]) * d1[idx[quiver.sigma_nodes[n]]] for n in quiver.q0_plus)
            want += sum(d1[idx[n]] * (d1[idx[n]] + 1) // 2 + d1[idx[n]] * (e[idx[n]] // 2) for n in quiver.q0_sigma)
            assert _act_integrand(quiver, d1, e).length == want, (d1, e)
            pairs += 1
    assert pairs > 20


def test_lead_tables_hold_the_lead_keys(monkeypatch):
    """The lead tables of the cached integrands' sides (slots, lead table)
    fill on first use: after PBW checks and an `ori_dt_invariants` run,
    every entry is the `_lead_key` of its label under its side's slots."""
    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)  # one process, one cache
    coha_rs, cohm_rs, l2 = build_typeA(3, ">>", "orthogonal"), build_typeA(2, ">", "symplectic"), loop_quiver(2)
    pbw_check_coha(coha_rs, 2, 8)
    pbw_check_cohm(cohm_rs, 2, 8)
    ori_dt_invariants(l2, 8, 22)
    entries = {"coha_integrand": 0, "cohm_integrand": 0}
    for quiver in (coha_rs.quiver, cohm_rs.quiver, l2):
        for key, value in quiver._cache.items():
            if key[0] in entries:
                for slots, table in (value.fside, value.gside):
                    for label, lead in table.items():
                        assert lead == symfun._lead_key.__wrapped__(label, slots), (key, label)
                        entries[key[0]] += 1
    assert min(entries.values()) > 50, entries


def test_fixed_node_pushes_meet_only_odd_y_exponents(monkeypatch):
    """Every B_D push that `ori_dt_invariants(L2, 8, 22)` makes gets a block
    whose y exponents are all odd: the parity groups of `_push` leave out
    every pair the push would drop for an even one.  A block whose halved
    y exponents repeat still reaches the push, which drops it."""
    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)  # one process sees every call
    real, ys = symfun._type_b_push, []

    def counted(block, dn, m):
        ys.append(unpack_exponents(block, dn))
        return real(block, dn, m)

    monkeypatch.setattr(symfun, "_type_b_push", counted)
    ori_dt_invariants(loop_quiver(2), 8, 22)
    assert ys and all(y % 2 for block in ys for y in block)


def test_lead_terms_bound_is_the_largest_exponent():
    """`lead_terms` reads its bound `top` off the lead keys instead of
    unpacking its terms; on seeded rows it is the largest exponent of the
    lead monomials."""
    checked = 0
    for name, quiver in QUIVERS:
        rng = Lcg(20141021 + len(name))
        for _ in range(20):
            d1, d2, e = random_dim(rng, quiver, 2), random_dim(rng, quiver, 2), random_selfdual_dim(rng, quiver, 2)
            f, g = _draw_row(rng, CohaElement, quiver, d1, 3), _draw_row(rng, CohaElement, quiver, d2, 3)
            h = _draw_row(rng, CohmElement, quiver, e, 2)
            layouts = []
            if f and g:
                it = _mul_integrand(quiver, d1, d2)
                layouts.append((f, it.fside, g, it.gside, CohaElement.layout(quiver, tuple(map(sum, zip(d1, d2))))[1]))
            if g and h:
                it = _act_integrand(quiver, d2, e)
                et = tuple(a + b for a, b in zip(quiver.hyperbolic(d2), e))
                layouts.append((g, it.fside, h, it.gside, CohmElement.layout(quiver, et)[1]))
            for f_row, fside, g_row, gside, nvars in layouts:
                terms, top = lead_terms(f_row, fside, g_row, gside)
                assert terms
                assert top == max((x for key in terms for x in unpack_exponents(key, nvars)), default=0), (name, f_row, g_row)
                checked += 1
    assert checked > 200


def test_linear_combinations_and_chains():
    """Rows with several labels multiply bilinearly, and an action on an
    action's result (the PBW words) matches the chain of oracle products."""
    rng = Lcg(7)
    for quiver in (loop_quiver(2), a1_tilde(tau=-1), build_typeA(3, ">>", "orthogonal").quiver):
        for _ in range(6):
            d, e = random_dim(rng, quiver, 1, exact=True), random_selfdual_dim(rng, quiver, 1)
            f = {}
            for _ in range(2):
                label = _draw_label(rng, CohaElement, quiver, d, 1)
                f[label] = f.get(label, 0) + rng.randint(1, 3)
            g = {_draw_label(rng, CohmElement, quiver, e, 1): -2}
            if None in g:
                continue
            fe = CohaElement(quiver, d, expand(CohaElement, quiver, d, f), check=False)
            ge = CohmElement(quiver, e, expand(CohmElement, quiver, e, g), check=False)
            once = direct_cohm_action(fe, ge)
            row = schur_act(quiver, d, f, e, g)
            assert expand(CohmElement, quiver, once.e, row) == once.poly
            again = direct_cohm_action(fe, once)
            assert expand(CohmElement, quiver, again.e, schur_act(quiver, d, f, once.e, row)) == again.poly
            product = direct_shuffle_mul(fe, fe)
            assert expand(CohaElement, quiver, product.d, schur_mul(quiver, d, f, d, f)) == product.poly


def test_involution_and_power_sum_on_labels():
    """S_H relabels the nodes with the sign (-1)^|lam|, and sigma_d s_lam is
    the Pieri sum of `_times_power_sum`, on every label of small slices."""
    for _, quiver in QUIVERS[::3]:
        for d in quiver.dimension_vectors(2):
            chi = quiver.euler_form(d, d)
            n = sum(d)
            power_sum = Poly.zero(n)
            for i in range(n):
                power_sum = power_sum + Poly.variable(n, i)
            for k in range(chi, chi + 7, 2):
                for label in CohaElement.slice_labels(quiver, d, k):
                    elem = CohaElement.from_labels(quiver, d, {label: 1})
                    sign, image = s_label(quiver, label)
                    sd = quiver.sigma_dim(d)
                    assert CohaElement.from_labels(quiver, sd, {image: sign}) == s_involution(elem)
                    row = _times_power_sum(quiver, d, label)
                    assert expand(CohaElement, quiver, d, row) == power_sum * elem.poly


def test_straighten_is_the_full_divided_difference():
    """partial_w0(x^alpha) by divided differences against `straighten`."""
    for alpha in [(0,), (2, 0), (0, 2), (1, 1), (3, 0, 1), (0, 4, 2), (2, 2, 0), (1, 5, 0, 3), (4, 0, 6, 1)]:
        n = len(alpha)
        out = full_divided_difference(from_exponents(n, {alpha: 1}), n)
        r = straighten(alpha)
        assert out == (Poly.zero(n) if r is None else dd_schur(r[1], n).scale(r[0])), alpha


def test_primitive_quotients_expand_no_polynomial(monkeypatch):
    """The primitive quotients keep their bases as labels:
    `ori_dt_invariants(L2, 8, 22)` and `primitive_dims(L2, 4, 16)` build no
    Schur polynomial and cache no polynomial slice basis: nothing expands a
    row of labels (`symfun.expand_labels`, which `schur` and `from_labels`
    call)."""
    calls = []
    real = symfun.expand_labels

    def counted(block_spec, row):
        calls.append(row)
        return real(block_spec, row)

    monkeypatch.setattr(symfun, "expand_labels", counted)
    monkeypatch.setattr(graded, "expand_labels", counted)
    for run, stored in ((lambda q: ori_dt_invariants(q, 8, 22), 19), (lambda q: primitive_dims(q, 4, 16), 5)):
        quiver = loop_quiver(2)
        table = run(quiver)
        assert sum(len(basis) for basis in table.bases.values()) == stored
        assert not any(key[0] == "slice_basis" for key in quiver._cache if isinstance(key, tuple))
    assert calls == []
