from fractions import Fraction
from itertools import product

import pytest

from hallforge import series
from hallforge.coha import equivariant_dt
from hallforge.cohm import witt_representative
from hallforge.errors import GradingError, HallforgeError, InexactCoefficientError, KindMismatchError, NonIntegralError
from hallforge.poly import Poly
from hallforge.proputils import Lcg
from hallforge.quiver import MAX_SERIES_CELLS, a1_tilde, a2_quiver, loop_quiver
from hallforge.series import (
    MODULE,
    TORUS,
    PochhammerFactor,
    QSeries,
    _triangular,
    dt_series,
    invert_pochhammer_factorization,
    module_classes,
    ori_dt_series,
    pochhammer_q2_product,
    qdilog,
    qpochhammer_inf,
    quantum_integer,
    sign_pow,
    SignedInvariantTable,
)

from oracles import (
    assert_rows,
    assert_window_rule,
    chain_invert_pochhammer_factorization,
    chain_inverse,
    chain_log,
    chain_pochhammer_q2_product,
    check_chain_windows,
    check_dense_kernels,
    inverse_q2_pochhammer,
    loop_q2_windows,
    series_from_terms,
)

L0 = loop_quiver(0)
L1 = loop_quiver(1, s=1, tau=[1])
L2 = loop_quiver(2)


# -- oracle: the closed forms as quadratic Laurent products in Fractions -------


def geometric(step, top):
    """1 / (1 - q^(step/2)) as {k: 1} for k = 0, step, 2*step, ... <= top."""
    return {k: Fraction(1) for k in range(0, top + 1, step)}


def laurent_mul(a, b, hi):
    """a * b truncated at k <= hi, by the quadratic double loop."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            if k <= hi:
                out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def over_factors(lead, sign, steps, window):
    lau = {lead: Fraction(sign)}
    for step in steps:
        lau = laurent_mul(lau, geometric(step, window), lead + window)
    return lau


def oracle_series(quiver, kind, maxdim, classes):
    """classes: (class, leading weight, sign, steps, window) -> QSeries; a
    window None makes the class exact."""
    terms, meta = {}, {}
    for cls, lead, sign, steps, window in classes:
        for k, c in over_factors(lead, sign, steps, window).items():
            terms[(cls, k)] = c
        meta[cls] = (lead, None if window is None else lead + window)
    return series_from_terms(quiver, kind, maxdim, terms, meta)


def oracle_pochhammer(quiver, k0, dvec, maxdim, window, base):
    classes = [(quiver.zero(), 0, 1, [], None)]  # the exact constant term 1
    for n in range(1, maxdim // sum(dvec) + 1):
        kstart = n * k0 + base * n * (n - 1)
        steps = [2 * base * j for j in range(1, n + 1)]
        classes.append((tuple(n * x for x in dvec), kstart, (-1) ** n, steps, window))
    return oracle_series(quiver, TORUS, maxdim, classes)


def all_vectors(quiver, maxdim):
    n = len(quiver.nodes)
    return [d for d in product(*(range(maxdim + 1) for _ in range(n))) if sum(d) <= maxdim]


def oracle_dt_series(quiver, maxdim, window):
    classes = []
    for d in all_vectors(quiver, maxdim):
        chi = quiver.euler_form(d, d)
        steps = [2 * j for di in d for j in range(1, di + 1)]
        classes.append((d, chi, (-1) ** chi, steps, window))
    return oracle_series(quiver, TORUS, maxdim, classes)


def oracle_ori_dt_series(quiver, maxdim, window):
    idx = quiver.node_index
    classes = []
    for e in all_vectors(quiver, maxdim):
        if quiver.sigma_dim(e) != e:
            continue
        if any(quiver.s[nd] == -1 and e[idx[nd]] % 2 for nd in quiver.q0_sigma):
            continue
        ee = quiver.sd_euler_form(e)
        steps = [2 * j for nd in quiver.q0_plus for j in range(1, e[idx[nd]] + 1)]
        steps += [4 * j for nd in quiver.q0_sigma for j in range(1, e[idx[nd]] // 2 + 1)]
        classes.append((e, ee, (-1) ** ee, steps, window))
    return oracle_series(quiver, MODULE, maxdim, classes)


def assert_int_coefficients(series):
    bad = {key: c for key, c in series.terms.items() if type(c) is not int}
    assert not bad, bad


ORACLE_QUIVERS = [
    L0,
    loop_quiver(0, s=-1),
    L1,
    loop_quiver(1, s=-1, tau=[-1]),
    L2,
    loop_quiver(2, s=-1),
    loop_quiver(3, s=1, tau=[1, 1, 1]),
    a2_quiver(),
    a1_tilde(tau=1),
    a1_tilde(tau=-1),
]


def test_closed_forms_against_quadratic_oracle():
    """The running-sum Pochhammer factors agree with the quadratic Fraction
    expansion, and every coefficient, also after cmul/inverse/power, is an int."""
    rng = Lcg(4104)
    for quiver in ORACLE_QUIVERS:
        for _ in range(3):
            maxdim, window = rng.randint(1, 6), rng.randint(0, 24)
            pairs = [
                (dt_series(quiver, maxdim, window), oracle_dt_series(quiver, maxdim, window)),
                (ori_dt_series(quiver, maxdim, window), oracle_ori_dt_series(quiver, maxdim, window)),
            ]
            dvec = rng.choice([d for d in all_vectors(quiver, 2) if any(d)])
            for k0 in (-1, 0, 1):
                for base in (1, 2):
                    pairs.append((
                        qpochhammer_inf(quiver, TORUS, k0, dvec, maxdim, window, base=base),
                        oracle_pochhammer(quiver, k0, dvec, maxdim, window, base),
                    ))
            for got, want in pairs:
                assert got.terms == want.terms and got.meta == want.meta
                for derived in (got, got.cmul(got), got.inverse(), got.power(3), got.power(-2)):
                    assert_int_coefficients(derived)


def test_inverse_q2_pochhammer_against_inverse():
    """The closed-form inverse factor 1/(x; q^2)_inf equals the series
    inverse of the Pochhammer factor, terms and windows."""
    for quiver in ORACLE_QUIVERS:
        for e in module_classes(quiver, 2):
            if not any(e):
                continue
            for k0 in (-2, -1, 0, 1, 3):
                for maxdim, window in ((1, 0), (4, 9), (6, 24)):
                    p = qpochhammer_inf(quiver, MODULE, k0, e, maxdim, window, base=2)
                    got = inverse_q2_pochhammer(quiver, k0, e, maxdim, window)
                    want = p.inverse()
                    assert got.terms == want.terms and got.meta == want.meta, (quiver.nodes, e, k0)
                    assert_int_coefficients(got)


def rebuild_from_table(table, maxdim, window):
    """prod (q^(k/2) t^d ; q)_inf^(-m) over the table entries."""
    quiver = table.quiver
    out = QSeries.one(quiver, table.kind, maxdim)
    for (d, k), m in table.sorted_entries():
        if sum(d) > maxdim:
            continue
        p = qpochhammer_inf(quiver, table.kind, k, d, maxdim, 3 * window)
        out = out.cmul(p.power(-m * sign_pow(k)))
    return out


def brute_pochhammer(k0, nmax, qtop, base=1):
    """Oracle: expand prod_{i} (1 - q^((k0 + 2 b i)/2) t) with dict arithmetic."""
    series = {(0, 0): Fraction(1)}  # (power of t, k) -> coeff
    i = 0
    while k0 + 2 * base * i <= qtop + abs(k0) * nmax + 2 * base * nmax:
        out = dict(series)
        for (p, k), c in series.items():
            if p + 1 <= nmax:
                key = (p + 1, k + k0 + 2 * base * i)
                out[key] = out.get(key, Fraction(0)) - c
        series = out
        i += 1
    return series


def test_qpochhammer_against_brute_force():
    for k0, base in ((1, 1), (0, 1), (-1, 1), (1, 2), (-1, 2)):
        p = qpochhammer_inf(L0, "torus", k0, (1,), 4, 24, base=base)
        oracle = brute_pochhammer(k0, 4, 40, base)
        for n in range(5):
            hi = p.hi((n,))
            for k, c in oracle.items():
                if k[0] == n and (hi is None or k[1] <= hi):
                    assert p.coefficient((n,), k[1]) == c, (k0, base, n, k)
            for (d, k), c in p.terms.items():
                if d == (n,):
                    assert oracle.get((n, k), 0) == c


def test_qpochhammer_examples():
    p = qpochhammer_inf(L0, "torus", 1, (1,), 3, 8)
    assert p.coefficient((0,), 0) == 1
    assert {k: c for (d, k), c in p.terms.items() if d == (1,)} == {
        k: Fraction(-1) for k in (1, 3, 5, 7, 9)
    }
    t2 = qpochhammer_inf(L0, "torus", 0, (1,), 3, 8).class_laurent((2,))
    # (t;q)_inf t^2 coefficient: q + q^2 + 2 q^3 + ... (pentagonal-side oracle)
    assert t2[2] == 1 and t2[4] == 1 and t2[6] == 2
    assert 0 not in t2
    with pytest.raises(GradingError):
        qpochhammer_inf(L0, "torus", 1, (0,), 3, 8)


@pytest.mark.parametrize(
    "build",
    [
        lambda: QSeries.monomial(L0, TORUS, 3, (-1,), 0),
        lambda: QSeries.monomial(L0, TORUS, 3, (True,), 0),
        lambda: QSeries.monomial(L0, TORUS, 3, (1, 0), 0),
        lambda: qpochhammer_inf(L0, TORUS, 0, (1.5,), 3, 4),
        lambda: qpochhammer_inf(L0, TORUS, 0, (-1,), 3, 4),
        lambda: qpochhammer_inf(L0, TORUS, 0, (True,), 3, 4),
    ],
)
def test_torus_classes_are_validated(build):
    """A torus class is a dimension vector of the quiver: a negative entry
    (1 - t^-1 would be inverted over the classes (-4,) ... (0,)), a float,
    a bool or a wrong length raises GradingError, as a module class does."""
    with pytest.raises(GradingError):
        build()


@pytest.mark.parametrize("bad", [0.5, True, "1"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: QSeries.monomial(L0, TORUS, 3, (1,), x),
        lambda x: qpochhammer_inf(L0, TORUS, x, (1,), 3, 4),
        lambda x: qpochhammer_inf(L0, TORUS, 0, (1,), 3, 4, base=x),
    ],
    ids=["monomial k", "pochhammer k0", "pochhammer base"],
)
def test_weights_are_ints(build, bad):
    """A weight (monomial's k, qpochhammer_inf's k0 and base) that is a
    float, a bool or a string raises GradingError: stored, it would reach
    to_json_dict, whose output from_json_dict refuses."""
    with pytest.raises(GradingError, match="must be an int"):
        build(bad)
    assert build(1).to_json_dict() == QSeries.from_json_dict(L0, build(1).to_json_dict()).to_json_dict()


@pytest.mark.parametrize(
    "build",
    [
        lambda: dt_series(L1, 3, -1),
        lambda: ori_dt_series(L1, 3, -1),
        lambda: qpochhammer_inf(L0, TORUS, 0, (1,), 3, -1),
        lambda: qdilog(L0, 3, -1),
        lambda: PochhammerFactor(L0, 0, (1,), 3, -1),
        lambda: qpochhammer_inf(L0, TORUS, 0, (1,), 3, 4, base=0),
        lambda: qpochhammer_inf(L0, TORUS, 0, (1,), 3, 4, base=-1),
        lambda: PochhammerFactor(L0, 0, (1,), 3, 4, base=0),
    ],
    ids=["dt window", "ori window", "pochhammer window", "qdilog window", "factor window",
         "pochhammer base 0", "pochhammer base -1", "factor base 0"],
)
def test_closed_forms_refuse_negative_windows_and_bases(build):
    """A closed form's window is >= 0 and a q-Pochhammer base >= 1: a
    window of -1 would store rows above their windows (dt_series(L1, 3, -1)
    held weight 0 at class (1,) with hi -1), base 0 expanded 1 - 2t + 4t^2
    - ... and base -1 raised IndexError.  Both raise GradingError before
    any class is expanded; window 0 and base 1 are accepted."""
    with pytest.raises(GradingError):
        build()
    assert dt_series(L1, 3, 0).rows[(1,)] == [(0, 1)]
    assert qpochhammer_inf(L0, TORUS, 0, (1,), 3, 0, base=1).rows[(2,)] == [(2, 1)]


def test_float_coefficients_are_refused():
    """A float is never read as its binary fraction (0.1 would be
    3602879701896397/36028797018963968): Poly.const, Poly.scale, an exact
    division and QSeries.monomial raise InexactCoefficientError, a
    HallforgeError."""
    for build in (
        lambda: Poly.const(1, 0.5),
        lambda: Poly.const(1, 1).scale(0.1),
        lambda: Poly.variable(1, 0).divexact_linear(0.5, 0),
        lambda: QSeries.monomial(L0, TORUS, 3, (1,), 0, 0.1),
    ):
        with pytest.raises(InexactCoefficientError):
            build()
    assert issubclass(InexactCoefficientError, HallforgeError)
    exact = QSeries.monomial(L0, TORUS, 3, (1,), 0, Fraction(1, 10))
    assert exact.coefficient((1,), 0) == Fraction(1, 10)
    assert Poly.const(1, "1/10") == Poly.const(1, 1).scale(Fraction(1, 10))


def test_qdilog():
    E = qdilog(L0, 6, 20)
    assert E.coefficient((0,), 0) == 1
    ok, _ = E.agrees_with(dt_series(L0, 6, 20))
    assert ok
    # E_{q^2}(q^(-1/2) t): t-coefficient -q^(1/2)(1 + q^2 + q^4 + ...)
    E2 = qpochhammer_inf(L0, "torus", 1, (1,), 3, 12, base=2)
    lau = E2.class_laurent((1,))
    assert lau == {k: Fraction(-1) for k in (1, 5, 9, 13)}


def test_quantum_integer():
    assert quantum_integer(0) == {}
    assert quantum_integer(1) == {0: Fraction(1)}
    assert quantum_integer(3, 2) == {0: Fraction(1), 4: Fraction(1), 8: Fraction(1)}


def test_quantum_integer_sums_meeting_terms_and_refuses_inexact_input():
    """At base power 0 the n terms of [n] all land on q^0 and add up to n;
    an n or a base power that is not an int (a float or a bool) is refused
    with GradingError."""
    assert quantum_integer(3, 0) == {0: 3}
    assert quantum_integer(1, 0) == {0: 1} and quantum_integer(0, 0) == {}
    assert quantum_integer(3, -1) == {0: 1, -2: 1, -4: 1}
    for n, base in ((2.5, 1), (2.0, 1), (True, 1), (2, 1.0), (2, True), ("2", 1)):
        with pytest.raises(GradingError, match="must be an int"):
            quantum_integer(n, base)


def test_torus_mul_twists():
    a2 = a2_quiver()
    t10 = QSeries.monomial(a2, "torus", 4, (1, 0), 0)
    t01 = QSeries.monomial(a2, "torus", 4, (0, 1), 0)
    assert t10.torus_mul(t01).terms == {((1, 1), -1): Fraction(1)}
    assert t01.torus_mul(t10).terms == {((1, 1), 1): Fraction(1)}
    # symmetric quiver: no twist
    u = QSeries.monomial(L2, "torus", 4, (1,), -1)
    v = QSeries.monomial(L2, "torus", 4, (2,), 0)
    assert u.torus_mul(v).terms == {((3,), -1): Fraction(1)}


def test_torus_mul_associative_unit():
    from hallforge.proputils import Lcg

    rng = Lcg(9)
    one = QSeries.one(L2, "torus", 5)
    series = []
    for _ in range(3):
        terms = {}
        for _ in range(4):
            d = (rng.randint(0, 2),)
            k = rng.randint(-4, 4)
            terms[(d, k)] = Fraction(rng.randint(-3, 3))
        meta = {(i,): (-10, None) for i in range(3)}
        series.append(series_from_terms(L2, "torus", 5, terms, meta))
    a, b, c = series
    assert a.torus_mul(b).torus_mul(c).terms == a.torus_mul(b.torus_mul(c)).terms
    assert one.torus_mul(a).terms == a.torus_mul(one).terms == a.terms


def test_module_star():
    a2 = a2_quiver()
    t = QSeries.monomial(a2, "torus", 6, (1, 0), 0)
    xi = QSeries.monomial(a2, "module", 6, (1, 1), 0)
    out = t.module_star(xi)
    assert out.terms == {((2, 2), -1): Fraction(1)}
    # unit action
    one = QSeries.one(a2, "torus", 6)
    assert one.module_star(xi).terms == xi.terms
    # sigma-symmetric: twist-free
    ta = QSeries.monomial(L2, "torus", 6, (2,), -4)
    xb = QSeries.monomial(L2, "module", 6, (1,), 0)
    assert ta.module_star(xb).terms == {((5,), -4): Fraction(1)}


def test_char_star_needs_torus_on_module():
    """char_star, as module_star, acts by a torus series on a module series:
    torus * torus, module * torus and module * module raise
    KindMismatchError (torus.char_star(torus) returned a "module" series),
    and so does the unexpanded factor's char_star on a torus series or on
    a series over another quiver."""
    a2 = a2_quiver()
    t = QSeries.monomial(a2, TORUS, 6, (1, 0), 0)
    xi = QSeries.monomial(a2, MODULE, 6, (1, 1), 0)
    for acting, acted in ((t, t), (xi, t), (xi, xi)):
        for op in (acting.module_star, acting.char_star):
            with pytest.raises(KindMismatchError):
                op(acted)
    factor = PochhammerFactor(a2, 1, (1, 0), 6, 4)
    with pytest.raises(KindMismatchError):
        factor.char_star(t)
    with pytest.raises(KindMismatchError):
        factor.char_star(QSeries.monomial(L2, MODULE, 6, (2,), 0))


def test_module_action_compatibility():
    a1t = a1_tilde(tau=1)
    a = QSeries.monomial(a1t, "torus", 6, (1, 0), 1)
    b = QSeries.monomial(a1t, "torus", 6, (0, 1), -1)
    x = QSeries.monomial(a1t, "module", 6, (1, 1), 0)
    lhs = a.torus_mul(b).module_star(x)
    rhs = a.module_star(b.module_star(x))
    assert lhs.terms == rhs.terms


def test_invert_factorization_examples():
    t0 = invert_pochhammer_factorization(dt_series(L0, 5, 16))
    assert t0.entries == {((1,), 1): 1}
    t1 = invert_pochhammer_factorization(dt_series(L1, 5, 16))
    assert t1.entries == {((1,), 0): 1}
    t2 = invert_pochhammer_factorization(dt_series(L2, 4, 24))
    assert t2.rendered((1,)) == {-1: Fraction(-1)}
    assert t2.rendered((2,)) == {-4: Fraction(1)}
    assert t2.rendered((3,)) == {-9: Fraction(-1)}
    assert t2.rendered((4,)) == {-16: Fraction(1), -12: Fraction(1)}


def test_invert_rebuild_roundtrip():
    for q, dim, win in ((L2, 4, 24), (loop_quiver(3, s=1, tau=[1, 1, 1]), 4, 30)):
        A = dt_series(q, dim, win)
        table = invert_pochhammer_factorization(A)
        ok, _ = rebuild_from_table(table, dim, win).agrees_with(A)
        assert ok
        assert all(m >= 0 for m in table.entries.values())


def test_invert_requires_unit_constant():
    bad = QSeries.monomial(L0, "torus", 3, (0,), 0, 2)
    with pytest.raises(NonIntegralError):
        invert_pochhammer_factorization(bad)


def test_invert_non_integral_exponent():
    """A half-integral coefficient gives an integral E(log A) whose class-2
    exponent fails the divisibility by |D|, with the Fraction route's text."""
    A = QSeries(
        L0, TORUS, 2, {(0,): [(0, 1)], (2,): [(0, Fraction(1, 2))]},
        {(0,): (0, None), (1,): (0, 4), (2,): (0, 4)},
    )
    text = r"non-integer exponent 1/2 at class \(2,\) weight 0"
    with pytest.raises(NonIntegralError, match=text):
        invert_pochhammer_factorization(A)
    with pytest.raises(NonIntegralError, match=text):
        chain_invert_pochhammer_factorization(A)


def test_exp_division_raises_on_corrupted_factor_table():
    """The exponential step |d| X_d = -sum G_f X_(d-f) of the q^2-Pochhammer
    product: G = -E(log 1/(xi; q^2)_inf) gives the closed form back, and a
    corrupted coefficient of G leaves a remainder that raises."""
    order = [(n,) for n in range(4)]
    g = {(n,): [(k, -1) for k in range(0, 9, 4 * n)] for n in range(1, 4)}
    need = {(0,): None, (1,): 8, (2,): 8, (3,): 8}
    X = _triangular(order, g, {(0,): [(0, 1)]}, need, divide=True)
    got = {(d, k): c for d in order for k, c in X[d]}
    assert got == inverse_q2_pochhammer(L0, 0, (1,), 3, 8).terms
    g[(2,)][0] = (0, 0)
    with pytest.raises(NonIntegralError, match=r"inexact division by 2 at class \(2,\) weight 0"):
        _triangular(order, g, {(0,): [(0, 1)]}, need, divide=True)


def outcome(fn, *args):
    """fn(*args), or the text of the NonIntegralError it raises."""
    try:
        return fn(*args)
    except NonIntegralError as exc:
        return str(exc)


def random_signed_table(rng, quiver, maxdim):
    classes = [e for e in module_classes(quiver, maxdim) if any(e)]
    entries = {}
    for _ in range(rng.randint(0, 3) if classes else 0):
        entries[(rng.choice(classes), rng.randint(-6, 6))] = (rng.randint(-2, 2), rng.randint(-2, 2))
    validity = {e: rng.randint(-4, 20) for e in classes if rng.randint(0, 1)}
    return SignedInvariantTable(quiver, entries, maxdim, validity)


# class (1,) has a window but no term; x^2 still carries it, cutting class
# (2,) at weight 5 and reaching class (3,)
GAP = QSeries(L0, TORUS, 3, {(0,): [(0, 1)], (2,): [(0, 1)]}, {(0,): (0, None), (1,): (0, 5), (2,): (0, None)})
# 1 + t with a zero class known up to weight 2: 1/A has t-coefficient
# -1/(1 + x_0)^2, known up to weight 2 only, and settled at x^(maxdim + 1)
SHORT_ZERO = QSeries(L0, TORUS, 1, {(0,): [(0, 1)], (1,): [(0, 1)]}, {(0,): (0, 2), (1,): (0, 10)})


def test_recurrences_against_power_chains(monkeypatch):
    """inverse, log, the factorization inversion and the q^2-Pochhammer
    product agree with the power chains they replaced (tests/oracles.py):
    terms, windows, tables, validity and error text; every coefficient but
    the logarithm's is an int.  The chains run to x^(maxdim + 1), with no
    stop at a power that has no term in its windows, and the windows of
    inverse and log keep the product rule (`oracles.assert_window_rule`).
    Every one-pass window fixed point equals the round-based one, and every
    dense kernel call equals the dict kernel's (`oracles.check_dense_kernels`)."""
    windows_checked = check_chain_windows(monkeypatch)
    kernels_checked = check_dense_kernels(monkeypatch)
    inv = GAP.inverse()
    assert inv.hi((2,)) == 5 and (3,) in inv.meta
    assert SHORT_ZERO.inverse().hi((1,)) == 2 and SHORT_ZERO.log().hi((1,)) == 2
    for s in (GAP, SHORT_ZERO):
        for new, old in ((s.inverse(), chain_inverse(s)), (s.log(), chain_log(s))):
            assert new.terms == old.terms and new.meta == old.meta
            assert_window_rule(s, new)
    rng = Lcg(5150)
    quivers = ORACLE_QUIVERS + [loop_quiver(3, s=-1), loop_quiver(4, s=-1, tau=[-1] * 4)]
    for quiver in quivers:
        for _ in range(2):
            maxdim, window = rng.randint(1, 7), rng.randint(0, 24)
            dvec = rng.choice([d for d in all_vectors(quiver, 2) if any(d)])
            k0, base = rng.randint(-2, 2), rng.randint(1, 2)
            A = dt_series(quiver, maxdim, window)
            P = qpochhammer_inf(quiver, TORUS, k0, dvec, maxdim, window, base=base)
            for s in (A, ori_dt_series(quiver, maxdim, window), P, A.cmul(P)):
                for new, old in ((s.inverse(), chain_inverse(s)), (s.log(), chain_log(s))):
                    assert new.terms == old.terms and new.meta == old.meta, quiver.nodes
                    assert_window_rule(s, new)
                assert_int_coefficients(s.inverse())
            got = outcome(invert_pochhammer_factorization, A)
            want = outcome(chain_invert_pochhammer_factorization, A)
            assert got == want
            if not isinstance(want, str):
                assert got.validity == want.validity
            tables = [random_signed_table(rng, quiver, maxdim)]
            if len(quiver.nodes) == 1 and quiver.is_sigma_symmetric():
                erep = witt_representative(quiver, (rng.randint(0, 1) if quiver.s[quiver.nodes[0]] == 1 else 0,))
                tables.append(equivariant_dt(quiver, erep, maxdim, window))
            for table in tables:
                new = pochhammer_q2_product(table, maxdim, window)
                old = chain_pochhammer_q2_product(table, maxdim, window)
                assert new.terms == old.terms and new.meta == old.meta, (quiver.nodes, table.entries)
                assert_int_coefficients(new)
    assert windows_checked and {"product", "recurrence"} <= set(kernels_checked)


def test_no_term_above_window(monkeypatch):
    """No series that the layer returns stores a term above its class's
    window, and each keeps the row layout (`oracles.assert_rows`): closed
    forms, cmul, inverse, log, power and the capped q^2-Pochhammer product
    (on L2 up to xi^12 it used to keep 187 terms, 123 of them above the
    caps).  Their dense kernels equal the dict kernels."""
    kernels_checked = check_dense_kernels(monkeypatch)
    rng = Lcg(77)
    for quiver in ORACLE_QUIVERS:
        maxdim, window = rng.randint(1, 6), rng.randint(0, 24)
        dvec = rng.choice([d for d in all_vectors(quiver, 2) if any(d)])
        A, As = dt_series(quiver, maxdim, window), ori_dt_series(quiver, maxdim, window)
        P = qpochhammer_inf(quiver, TORUS, rng.randint(-2, 2), dvec, maxdim, window, base=2)
        table = random_signed_table(rng, quiver, maxdim)
        for s in (A, As, P, A.cmul(P), A.inverse(), As.log(), P.power(3), P.power(-2),
                  pochhammer_q2_product(table, maxdim, window)):
            assert_rows(s)
    L2m = loop_quiver(2)
    for w in ((0,), (1,)):
        sig = equivariant_dt(L2m, witt_representative(L2m, w), 12, 40)
        assert_rows(pochhammer_q2_product(sig, 12, 40))
    assert {"product", "recurrence"} <= set(kernels_checked)


def test_q2_windows_by_squaring_against_the_loop():
    """`pochhammer_q2_product` raises each factor's windows to its power by
    squaring; its windows equal those of one `_windows` call per unit of
    power (`oracles.loop_q2_windows`), in the same key order, on seeded
    tables with powers up to 48 and on the equivariant tables of L2."""
    rng = Lcg(20261020)
    tables, powers = [], set()
    for quiver in ORACLE_QUIVERS:
        for _ in range(3):
            maxdim, window = rng.randint(1, 7), rng.randint(0, 24)
            seed = random_signed_table(rng, quiver, maxdim)
            entries = {key: (p * rng.randint(1, 24), m * rng.randint(1, 24)) for key, (p, m) in seed.entries.items()}
            powers.update(abs(x) for pm in entries.values() for x in pm)
            tables.append((SignedInvariantTable(quiver, entries, maxdim, seed.validity), maxdim, window))
    for w in ((0,), (1,)):
        tables.append((equivariant_dt(L2, witt_representative(L2, w), 12, 40), 12, 40))
    for table, maxdim, window in tables:
        got = pochhammer_q2_product(table, maxdim, window).meta
        assert list(got.items()) == list(loop_q2_windows(table, maxdim, window).items()), table.entries
    assert max(powers) > 16 and len(tables) > 20


def test_pochhammer_q2_product():
    empty = SignedInvariantTable(L2, {})
    assert pochhammer_q2_product(empty, 6, 10).terms == {
        ((0,), 0): Fraction(1)
    }
    single = SignedInvariantTable(L2, {((2,), 0): (1, 0)})
    series = pochhammer_q2_product(single, 6, 12)
    inv = qpochhammer_inf(L2, "module", 0, (2,), 6, 12, base=2).inverse()
    ok, _ = series.agrees_with(inv)
    assert ok


def test_ori_series_closed_form():
    s = ori_dt_series(L0, 4, 10)
    assert s.coefficient((0,), 0) == 1
    # s = 1, no loops: E(2) = 1, one BCD variable
    lau = s.class_laurent((2,))
    assert lau[1] == -1 and lau[5] == -1
    symp = ori_dt_series(loop_quiver(0, s=-1), 5, 10)
    assert all(d[0] % 2 == 0 for d in symp.meta)


def test_module_classes_admissibility():
    symp = loop_quiver(1, s=-1, tau=[-1])
    assert module_classes(symp, 5) == [(0,), (2,), (4,)]
    a2 = a2_quiver()
    assert module_classes(a2, 4) == [(0, 0), (1, 1), (2, 2)]


def test_json_roundtrip():
    A = dt_series(L2, 3, 12)
    doc = A.to_json_dict(12)
    back = QSeries.from_json_dict(L2, doc)
    ok, _ = A.agrees_with(back)
    assert ok


def series_doc(terms, maxdim=3, effective_hi=None):
    """A series document with the given (d, k, c) terms."""
    return {
        "kind": TORUS,
        "trunc": {"maxdim": maxdim, "window": None},
        "effective_hi": effective_hi or {},
        "terms": [{"d": list(d), "k": k, "c": c} for d, k, c in terms],
    }


def test_json_refuses_a_repeated_term():
    doc = series_doc([((1,), 0, "2"), ((1,), 0, "3")])
    with pytest.raises(HallforgeError, match="repeats"):
        QSeries.from_json_dict(L2, doc)


def test_json_drops_zero_coefficients():
    back = QSeries.from_json_dict(L2, series_doc([((1,), 0, "0"), ((1,), 2, "5"), ((2,), 1, "0/3")]))
    assert back.terms == {((1,), 2): 5}
    assert back.to_json_dict()["terms"] == [{"d": [1], "k": 2, "c": "5"}]


def test_json_refuses_a_class_of_the_wrong_length():
    with pytest.raises(HallforgeError, match="one entry per node"):
        QSeries.from_json_dict(L2, series_doc([((1, 0), 0, "1")]))
    with pytest.raises(HallforgeError, match="one entry per node"):
        QSeries.from_json_dict(L2, series_doc([], effective_hi={"1,0": 4}))


def test_json_refuses_a_class_over_maxdim():
    with pytest.raises(HallforgeError, match="over maxdim 3"):
        QSeries.from_json_dict(L2, series_doc([((4,), 0, "1")]))


def test_json_refuses_a_term_above_its_window():
    with pytest.raises(HallforgeError, match="above its window 2"):
        QSeries.from_json_dict(L2, series_doc([((1,), 3, "1")], effective_hi={"1": 2}))


ONE_TERM = series_doc([((1,), 0, "1")])


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(series_doc([((1,), 2.5, "1")]), id="float weight"),
        pytest.param(series_doc([((1,), 0, 0.1)]), id="float coefficient"),
        pytest.param(series_doc([((1,), 0, "abc")]), id="non-rational coefficient"),
        pytest.param(series_doc([((1,), 0, "1/0")]), id="zero denominator"),
        pytest.param(series_doc([((True,), 0, "1")]), id="bool class entry"),
        pytest.param(series_doc([((-1,), 0, "1")]), id="negative class entry"),
        pytest.param(series_doc([((1,), 0, "1")], maxdim=2.9), id="float maxdim"),
        pytest.param({**ONE_TERM, "trunc": {"maxdim": 3, "window": 1.5}}, id="float window"),
        pytest.param(series_doc([], effective_hi={"1": 4.5}), id="float class window"),
        pytest.param(series_doc([], effective_hi={"x": 4}), id="class key not digits"),
        pytest.param([], id="not an object"),
        pytest.param({**ONE_TERM, "terms": [{"d": [1], "k": 0}]}, id="term without c"),
        pytest.param({**ONE_TERM, "terms": [{"d": 1, "k": 0, "c": "1"}]}, id="class not a list"),
        pytest.param({"kind": TORUS, "terms": []}, id="no trunc"),
    ],
)
def test_json_refuses_inexact_or_malformed_input(doc):
    """Series JSON is exact, as element JSON: a float or a bool is refused,
    not rounded, and a malformed document raises GradingError."""
    with pytest.raises(GradingError):
        QSeries.from_json_dict(L2, doc)


def test_terms_is_a_read_only_view():
    """A series is never written after construction: `terms` is a view."""
    p = qpochhammer_inf(L0, TORUS, 1, (1,), 3, 8)
    with pytest.raises(TypeError):
        p.terms[((1,), 1)] = 5
    with pytest.raises(AttributeError):
        p.terms = {}
    assert p.coefficient((1,), 1) == -1 and p.coefficient((1,), 2) == 0


def test_sign_pow():
    assert sign_pow(-3) == -1 and sign_pow(-4) == 1 and sign_pow(0) == 1


def test_laurent_helpers():
    a = {0: Fraction(1), 2: Fraction(2)}
    assert laurent_mul(a, {0: Fraction(1)}, 2) == a
    assert laurent_mul(a, {0: Fraction(1)}, 1) == {0: 1}
    assert geometric(4, 9) == {0: 1, 4: 1, 8: 1} and geometric(2, -1) == {}
    # (1 - q) / (1 - q) = 1 up to the truncation
    assert laurent_mul({0: Fraction(1), 2: Fraction(-1)}, geometric(2, 10), 10) == {0: 1}


def test_char_products_match_torus_for_symmetric():
    from hallforge.proputils import Lcg
    from oracles import char_mul

    rng = Lcg(17)
    for _ in range(20):
        terms_a, terms_b = {}, {}
        for _ in range(4):
            terms_a[((rng.randint(0, 2),), rng.randint(-4, 4))] = Fraction(rng.randint(-3, 3))
            terms_b[((rng.randint(0, 2),), rng.randint(-4, 4))] = Fraction(rng.randint(-3, 3))
        meta = {(i,): (-10, None) for i in range(3)}
        a = series_from_terms(L2, "torus", 5, terms_a, dict(meta))
        b = series_from_terms(L2, "torus", 5, terms_b, dict(meta))
        assert a.torus_mul(b).terms == char_mul(a, b).terms
        x = QSeries.monomial(L2, "module", 5, (1,), 0)
        assert a.module_star(x).terms == a.char_star(x).terms


def test_torus_commutative_for_symmetric():
    from hallforge.proputils import Lcg

    rng = Lcg(23)
    meta = {(i,): (-8, None) for i in range(3)}
    for _ in range(10):
        ta, tb = {}, {}
        for _ in range(3):
            ta[((rng.randint(0, 2),), rng.randint(-3, 3))] = Fraction(rng.randint(-2, 2))
            tb[((rng.randint(0, 2),), rng.randint(-3, 3))] = Fraction(rng.randint(-2, 2))
        a = series_from_terms(L2, "torus", 4, ta, dict(meta))
        b = series_from_terms(L2, "torus", 4, tb, dict(meta))
        assert a.torus_mul(b).terms == b.torus_mul(a).terms


def test_series_cell_cap_refuses_before_allocating(monkeypatch):
    """A window whose dense cells, classes x (window + 1), exceed
    MAX_SERIES_CELLS fails before any class is expanded; a window at the cap
    gets through to the expansion."""

    def unreachable(*args):
        raise AssertionError("expanded")

    monkeypatch.setattr(series, "_add_class", unreachable)
    l2 = loop_quiver(2)
    for call in (
        lambda: dt_series(l2, 6, 10**9),
        lambda: ori_dt_series(l2, 6, 3 * 10**8),
        lambda: qpochhammer_inf(l2, TORUS, 1, (1,), 6, 10**9),
        lambda: qdilog(l2, 1, MAX_SERIES_CELLS),
    ):
        with pytest.raises(HallforgeError, match="work cap"):
            call()
    # one class (maxdim 0) or one factor (maxdim 1) at exactly the cap
    for call in (lambda: dt_series(l2, 0, MAX_SERIES_CELLS - 1), lambda: qdilog(l2, 1, MAX_SERIES_CELLS - 1)):
        with pytest.raises(AssertionError, match="expanded"):
            call()
