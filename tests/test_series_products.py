"""The series products (`QSeries._convolve` on sorted per-class rows, cut at
the target window, with per-class action twists) against the flat product
they replaced (`oracles.flat_convolve`), the row layout of every producer on
the same random series, inverse and log of units made from them against the
power chains, the per-class twist rows against the quiver's forms, and the
product work cap."""

from fractions import Fraction

import pytest

from hallforge import series
from hallforge.errors import HallforgeError
from hallforge.finite_type import build_typeA
from hallforge.proputils import Lcg
from hallforge.quiver import MAX_PRODUCT_PAIRS, a1_tilde, loop_quiver
from hallforge.series import MODULE, TORUS, QSeries, module_classes

from oracles import (
    assert_rows,
    assert_window_rule,
    chain_inverse,
    chain_log,
    check_chain_windows,
    flat_add,
    flat_products,
    series_from_terms,
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
    one-pass window fixed points equal the round-based ones."""
    windows_checked = check_chain_windows(monkeypatch)
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
    assert windows_checked


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_twist_rows(name):
    """For every class pair (d, e) of total size <= 4, the per-class rows give
    chi(d, e) - chi(e, d) = r(d).e and the action lift of d gives H(d), |H(d)|
    and sign * star_twist(d, e)."""
    q = QUIVERS[name]
    classes = q.dimension_vectors(4)
    acting = QSeries(q, TORUS, 4, {}, {d: (0, None) for d in classes})
    lifts = {sign: acting._action_classes(sign) for sign in (1, -1)}
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

