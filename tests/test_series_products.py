"""The series products (`QSeries._convolve` on sorted per-class rows, cut at
the target window, with per-class action twists) against the flat product
they replaced (`oracles.flat_convolve`), the row layout of every producer on
the same random series, inverse and log of units made from them against the
power chains, the dense kernels against the dict kernels they replaced, the
per-class twist rows against the quiver's forms, the unexpanded
q-Pochhammer factor's action against the expanded factor's, and the
product work cap and dense-cell charge."""

from fractions import Fraction

import pytest

from hallforge import series
from hallforge.errors import HallforgeError, NonIntegralError
from hallforge.finite_type import build_typeA, dilog_identity_check
from hallforge.proputils import Lcg
from hallforge.quiver import MAX_PRODUCT_PAIRS, MAX_SERIES_CELLS, a1_tilde, loop_quiver
from hallforge.series import (
    MODULE,
    TORUS,
    PochhammerFactor,
    QSeries,
    _action_lift,
    _triangular,
    module_classes,
    qpochhammer_inf,
)

from oracles import (
    assert_rows,
    assert_window_rule,
    chain_inverse,
    chain_log,
    check_chain_windows,
    check_dense_kernels,
    dict_convolve,
    dict_triangular,
    flat_add,
    flat_products,
    series_from_terms,
    typed_rows,
)

QUIVERS = {
    **{"L%d s=%+d" % (m, s): loop_quiver(m, s=s) for m in range(4) for s in (1, -1)},
    **{"A1~ tau=%+d" % t: a1_tilde(tau=t) for t in (1, -1)},
    **{
        "A%d %s" % (n, dual): build_typeA(n, ">" * (n - 1), dual).quiver
        for n in (2, 3, 4)
        for dual in ("orthogonal", "symplectic")
    },
}


def random_series(rng, quiver, kind, maxdim):
    """Random coefficients, int or Fraction, on a random subset of the classes
    within maxdim (module classes for a module series), from a negative or
    positive least weight; about a quarter of the classes are exact (window
    None) and some windows hold no term."""
    classes = module_classes(quiver, maxdim) if kind == MODULE else quiver.dimension_vectors(maxdim)
    terms, meta = {}, {}
    for d in classes:
        if not rng.randint(0, 3):
            continue
        lo, span = rng.randint(-6, 3), rng.randint(0, 8)
        meta[d] = (lo, None if not rng.randint(0, 3) else lo + span)
        for k in range(lo, lo + span + 1):
            c = rng.randint(-4, 4) if rng.randint(0, 2) else 0
            if c and not rng.randint(0, 3):
                c = Fraction(c, rng.randint(2, 3))
            if c:
                terms[(d, k)] = c
    return series_from_terms(quiver, kind, maxdim, terms, meta)


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_products_match_flat_oracle(name, monkeypatch):
    """cmul, torus_mul, module_star and char_star equal the flat product in
    terms and windows, on seeded random series of mixed truncations; these
    products, +, scale, inverse, log and the JSON round trip keep the row
    layout (`oracles.assert_rows`), and the sum equals the flat sum.  The
    inverse and log of 1 + (a without its zero class), also with a zero-class
    suppmin of -3, equal the power chains in terms and windows, and their
    windows keep the product rule (`oracles.assert_window_rule`); their
    one-pass window fixed points equal the round-based ones.  Every dense
    kernel call, also a product of the logarithm's Fraction rows, equals the
    dict kernel's (`oracles.check_dense_kernels`)."""
    windows_checked = check_chain_windows(monkeypatch)
    kernels_checked = check_dense_kernels(monkeypatch)
    quiver = QUIVERS[name]
    rng = Lcg(1700 + sorted(QUIVERS).index(name))
    top = 4 if len(quiver.nodes) < 3 else 3
    for _ in range(6):
        a = random_series(rng, quiver, TORUS, rng.randint(1, top))
        b = random_series(rng, quiver, TORUS, rng.randint(1, top))
        x = random_series(rng, quiver, MODULE, rng.randint(1, top))
        got = {
            "cmul": a.cmul(b),
            "torus_mul": a.torus_mul(b),
            "module_star": a.module_star(x),
            "char_star": a.char_star(x),
        }
        for op, want in flat_products(a, b, x).items():
            assert_rows(got[op])
            assert got[op].terms == want.terms, (name, op)
            assert got[op].meta == want.meta, (name, op)
            assert (got[op].kind, got[op].maxdim) == (want.kind, want.maxdim), (name, op)
        total, want = a + b, flat_add(a, b)
        assert_rows(total)
        assert (total.terms, total.meta, total.maxdim) == (want.terms, want.meta, want.maxdim), name
        for c in (0, Fraction(-2, 3)):
            scaled = a.scale(c)
            assert_rows(scaled)
            assert scaled.terms == {key: v * c for key, v in a.terms.items() if c}, name
        back = QSeries.from_json_dict(quiver, a.to_json_dict())
        assert_rows(back)
        assert back.to_json_dict() == a.to_json_dict(), name
        # constant term 1 on the classes of a
        nil = QSeries(
            quiver, TORUS, a.maxdim,
            {d: r for d, r in a.rows.items() if any(d)}, {d: m for d, m in a.meta.items() if any(d)},
        )
        unit = QSeries.one(quiver, TORUS, a.maxdim) + nil
        # the same unit with a zero-class suppmin below its term
        low = QSeries(quiver, TORUS, unit.maxdim, unit.rows, {**unit.meta, quiver.zero(): (-3, None)})
        for u in (unit, low):
            for got, want in ((u.inverse(), chain_inverse(u)), (u.log(), chain_log(u))):
                assert_rows(got)
                assert (got.terms, got.meta) == (want.terms, want.meta), name
                assert_window_rule(u, got)
                assert_rows(got.cmul(a))
    assert windows_checked and {"product", "recurrence"} <= set(kernels_checked)


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_twist_rows(name):
    """For every class pair (d, e) of total size <= 4, the per-class rows give
    chi(d, e) - chi(e, d) = r(d).e and the action lift of d gives H(d), |H(d)|
    and sign * star_twist(d, e)."""
    q = QUIVERS[name]
    classes = q.dimension_vectors(4)
    lifts = {sign: _action_lift(q, classes, sign) for sign in (1, -1)}
    for d in classes:
        row = q.skew_row(d)
        for e in classes:
            if sum(d) + sum(e) > 4:
                continue
            assert sum(map(int.__mul__, row, e)) == q.euler_form(d, e) - q.euler_form(e, d)
            for sign, lift in lifts.items():
                h, size, srow, shift = lift[d]
                assert h == q.hyperbolic(d) and size == sum(h)
                assert shift + sum(map(int.__mul__, srow, e)) == sign * q.star_twist(d, e)


def one_class(n, maxdim=2):
    """t^1 (1 + q^(1/2) + ... + q^((n-1)/2)) on L0, an exact class of n terms."""
    L0 = loop_quiver(0)
    return QSeries(L0, TORUS, maxdim, {(1,): [(k, 1) for k in range(n)]}, {(1,): (0, None)})


def test_product_cap_refuses_before_the_term_half(monkeypatch):
    """A product whose term pairs under the cuts exceed MAX_PRODUCT_PAIRS
    fails before any pair is multiplied; one at exactly the cap gets through
    to the term half."""

    def unreachable(*args):
        raise AssertionError("term half reached")

    monkeypatch.setattr(series, "_term_half", unreachable)
    n = 5000
    with pytest.raises(HallforgeError, match="work cap"):
        one_class(n + 1).cmul(one_class(MAX_PRODUCT_PAIRS // n))
    with pytest.raises(HallforgeError, match="work cap"):
        one_class(n + 1).torus_mul(one_class(MAX_PRODUCT_PAIRS // n))
    with pytest.raises(AssertionError, match="term half reached"):
        one_class(n).cmul(one_class(MAX_PRODUCT_PAIRS // n))



def test_dense_kernels_on_edge_rows():
    """The dense kernels equal the dict kernels on rows at their edges:
    negative weights and an exact class in a signed product, an empty factor
    row, the zero class of a dividing recurrence (never divided), and an
    inexact division, which raises in both at the same class (the dense
    kernel names its least inexact weight)."""
    L0 = loop_quiver(0)
    a = QSeries(L0, TORUS, 3, {(1,): [(-5, 2), (-1, Fraction(1, 3)), (4, -1)]}, {(1,): (-5, None)})
    b = QSeries(L0, TORUS, 3, {(0,): [(-2, 1)], (2,): [(-3, -2), (0, 5)]}, {(0,): (-2, 3), (2,): (-3, None)})
    xb = QSeries(L0, MODULE, 3, b.rows, b.meta)  # char_star acts on a module series
    for got, want in (
        (a.cmul(b), dict_convolve(a, b, TORUS)),
        (a.char_star(xb), dict_convolve(a, xb, MODULE, _action_lift(L0, a.meta, -1), signed=True)),
    ):
        assert typed_rows(got.rows) == typed_rows(want.rows) and got.meta == want.meta
    order = [(n,) for n in range(4)]
    first = {(0,): [(-2, 6), (0, 6)]}  # 6 = lcm(1, 2, 3): every division is exact
    need = {(0,): None, (1,): 9, (2,): 9, (3,): 9}
    for factor in ({(1,): [], (2,): [(0, -2), (4, 6)]}, {(1,): [(0, -1), (4, -1)], (3,): []}):
        got = _triangular(order, factor, first, need, divide=True)
        assert typed_rows(got) == typed_rows(dict_triangular(order, factor, first, need, divide=True))
        assert got[(0,)] == first[(0,)]
    bad, first = {(1,): [(0, 3), (2, 1)]}, {(0,): [(-2, 3), (0, 1)]}
    for solve in (_triangular, dict_triangular):
        with pytest.raises(NonIntegralError, match=r"inexact division by 2 at class \(2,\)"):
            solve(order, bad, first, need, divide=True)
    with pytest.raises(NonIntegralError, match=r"inexact division by 2 at class \(2,\) weight -2"):
        _triangular(order, bad, first, need, divide=True)


def wide(width, maxdim=2):
    """t^1 (1 + q^(width/2)) on L0: an exact class of two terms, width apart."""
    L0 = loop_quiver(0)
    return QSeries(L0, TORUS, maxdim, {(1,): [(0, 1), (width, 1)]}, {(1,): (0, None)})


def test_cell_charge_refuses_wide_sparse_rows(monkeypatch):
    """A product or recurrence whose dense cells exceed MAX_SERIES_CELLS
    fails before its lists are allocated, where the dict kernels summed the
    few terms of wide sparse rows; one at exactly the cap gets through."""
    huge = wide(10**9)
    assert dict_convolve(huge, huge, TORUS).rows == {(2,): [(0, 1), (10**9, 2), (2 * 10**9, 1)]}
    with pytest.raises(HallforgeError, match="dense cells exceeds the work cap"):
        huge.cmul(huge)
    unit = QSeries.one(huge.quiver, TORUS, 1) + wide(10**9, 1)
    order, factor, first = [(0,), (1,)], {(1,): [(0, 1), (10**9, 1)]}, {(0,): [(0, 1)]}
    need = {(0,): None, (1,): None}
    assert dict_triangular(order, factor, first, need)[(1,)] == [(0, -1), (10**9, -1)]
    with pytest.raises(HallforgeError, match="dense cells exceeds the work cap"):
        unit.inverse()
    # a recurrence charges its classes together: 1 cell for the zero class
    unit = QSeries.one(huge.quiver, TORUS, 1) + wide(MAX_SERIES_CELLS - 2, 1)
    assert unit.inverse().rows[(1,)] == [(0, -1), (MAX_SERIES_CELLS - 2, -1)]
    with pytest.raises(HallforgeError, match="dense cells exceeds the work cap"):
        (QSeries.one(huge.quiver, TORUS, 1) + wide(MAX_SERIES_CELLS - 1, 1)).inverse()

    def unreachable(*args):
        raise AssertionError("term half reached")

    monkeypatch.setattr(series, "_term_half", unreachable)
    one = QSeries(huge.quiver, TORUS, 2, {(1,): [(0, 1)]}, {(1,): (0, None)})
    with pytest.raises(HallforgeError, match="dense cells exceeds the work cap"):
        wide(MAX_SERIES_CELLS).cmul(one)
    with pytest.raises(AssertionError, match="term half reached"):
        wide(MAX_SERIES_CELLS - 1).cmul(one)


FACTOR_QUIVERS = {
    **{
        "A%d %s" % (n, dual): build_typeA(n, ">" * (n - 1), dual).quiver
        for n in range(1, 6)
        for dual in ("orthogonal", "symplectic")
    },
    **{"L%d" % m: loop_quiver(m) for m in range(3)},
    "A1~": a1_tilde(),
}


@pytest.mark.parametrize("name", sorted(FACTOR_QUIVERS))
def test_pochhammer_factor_acts_as_the_expanded_factor(name):
    """PochhammerFactor(q, k0, d, maxdim, window, base).char_star(x) equals
    qpochhammer_inf(q, TORUS, k0, d, maxdim, window, base).char_star(x): the
    same rows in the same class order, coefficient types included, and the
    same windows, kind and maxdim.  Seeded over k0 in [-3, 3], base in {1,
    2, 3}, windows from 0 and every nonzero class d with |d| <= 2; x is a
    random module series (`random_series`: negative least weights, exact
    classes, windows with no term, Fraction coefficients) whose maxdim runs
    up to 2 past the factor's, so that some of its classes lie past the
    factor's reach; in half the cases x keeps only its first two classes,
    so that the targets above them take the factor's high classes."""
    quiver = FACTOR_QUIVERS[name]
    rng = Lcg(2900 + sorted(FACTOR_QUIVERS).index(name))
    top = {1: 9, 2: 6}.get(len(quiver.nodes), 4)  # up to n = 4 on one node
    dvecs = [d for d in quiver.dimension_vectors(2) if any(d)]
    for _ in range(32):
        maxdim, k0, base = rng.randint(1, top), rng.randint(-3, 3), rng.randint(1, 3)
        window, dvec = rng.choice([0, rng.randint(1, 24)]), rng.choice(dvecs)
        x = random_series(rng, quiver, MODULE, maxdim + rng.randint(0, 2))
        if rng.randint(0, 1):  # only small classes: the high ones take every n
            x = QSeries(quiver, MODULE, x.maxdim, *(dict(list(m.items())[:2]) for m in (x.rows, x.meta)))
        got = PochhammerFactor(quiver, k0, dvec, maxdim, window, base).char_star(x)
        want = qpochhammer_inf(quiver, TORUS, k0, dvec, maxdim, window, base).char_star(x)
        assert_rows(got)
        case = (name, k0, dvec, maxdim, window, base)
        assert list(typed_rows(got.rows).items()) == list(typed_rows(want.rows).items()), case
        assert list(got.meta.items()) == list(want.meta.items()), case
        assert (got.kind, got.maxdim) == (want.kind, want.maxdim), case


def test_dilog_product_cap_refuses_before_any_running_sum(monkeypatch):
    """The third product of the A3 ">>" dilogarithm check at (300, 400) is
    charged the term pairs of the expanded factor's `_convolve` and refused
    with its message before its first running sum; the two products before
    it run theirs."""
    chains, starts = [], []
    real_chain, real_star = series._pochhammer_chain, PochhammerFactor.char_star

    def chain(*args):
        chains.append(args)
        return real_chain(*args)

    def star(factor, x):
        starts.append(len(chains))
        return real_star(factor, x)

    monkeypatch.setattr(series, "_pochhammer_chain", chain)
    monkeypatch.setattr(PochhammerFactor, "char_star", star)
    message = "^a series product of up to 450792801 term pairs exceeds the work cap of 50000000$"
    with pytest.raises(HallforgeError, match=message):
        dilog_identity_check(build_typeA(3, ">>", "orthogonal"), 300, 400)
    assert len(starts) == 3 and 0 < starts[1] < starts[2] == len(chains)


def test_pochhammer_factor_charges_its_cells_before_allocating(monkeypatch):
    """The unexpanded factor's action charges its dense cells, the chain
    lists and the targets of several contributions, to MAX_SERIES_CELLS
    before its first running sum: one cell over the cap is refused, a cap
    at its cells gets through to the running sums."""
    quiver = build_typeA(2, ">", "orthogonal").quiver
    x = random_series(Lcg(31), quiver, MODULE, 6)
    factor = PochhammerFactor(quiver, 1, (1, 0), 6, 40)
    charged = []
    real_charge = series._charge_cells

    def charge(cells, what):
        charged.append((cells, what))
        return real_charge(cells, what)

    monkeypatch.setattr(series, "_charge_cells", charge)
    want = qpochhammer_inf(quiver, TORUS, 1, (1, 0), 6, 40).char_star(x)
    assert factor.char_star(x).rows == want.rows
    cells, what = charged[-1]
    assert what == "product" and cells > 0

    def unreachable(*args):
        raise AssertionError("running sum reached")

    monkeypatch.setattr(series, "_pochhammer_chain", unreachable)
    monkeypatch.setattr(series, "MAX_SERIES_CELLS", cells - 1)
    with pytest.raises(HallforgeError, match="series product of %d dense cells exceeds the work cap" % cells):
        factor.char_star(x)
    monkeypatch.setattr(series, "MAX_SERIES_CELLS", cells)
    with pytest.raises(AssertionError, match="running sum reached"):
        factor.char_star(x)
