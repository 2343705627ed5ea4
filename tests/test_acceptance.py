"""Acceptance criteria: every reported series is reproduced exactly, at the
stated tolerances (exact equality throughout), one criterion per test."""

import time
from fractions import Fraction

import pytest

from hallforge.coha import CohaElement, dt_invariants, equivariant_dt, shuffle_mul
from hallforge.cohm import (
    CohmElement,
    cohm_action,
    loop_factorization,
    ori_dt_invariants,
)
from hallforge.errors import GradingError
from hallforge.finite_type import (
    build_typeA,
    dilog_identity_check,
    pbw_check_coha,
    pbw_check_cohm,
    thom_polynomial,
)
from hallforge.poly import Poly, key_degree
from hallforge.quiver import a1_tilde, loop_quiver
from hallforge.series import quantum_integer, sign_pow
from hallforge.symfun import schur
from oracles import monomial_sym

L2 = loop_quiver(2)
L3 = loop_quiver(3, s=1, tau=[1, 1, 1])


def _announce(num, text):
    print("PASS criterion %d: %s" % (num, text))


def fr(d):
    return {k: Fraction(v) for k, v in d.items()}


def laurent_shift(lau, dk):
    return {k + dk: c for k, c in lau.items()}


def laurent_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def test_criterion_01_omega_l2():
    t0 = time.time()
    table = dt_invariants(L2, 4, 40)
    elapsed = time.time() - t0
    assert table.rendered((1,)) == fr({-1: -1})
    assert table.rendered((2,)) == fr({-4: 1})
    assert table.rendered((3,)) == fr({-9: -1})
    assert table.rendered((4,)) == fr({-16: 1, -12: 1})
    assert elapsed < 30
    _announce(1, "Omega_L2 through t^4 exact (%.2fs < 30s)" % elapsed)


def test_criterion_02_equivariant_l2():
    sig = equivariant_dt(L2, (1,), 8, 40)
    entries = {k: v for k, v in sig.entries.items() if 2 <= sum(k[0]) <= 8}
    assert entries == {
        ((2,), -1): (0, 1),
        ((4,), -4): (0, 1),
        ((6,), -9): (1, 0),
        ((8,), -16): (1, 0),
        ((8,), -12): (1, 0),
    }
    _announce(2, "Omega~^+- of L2 matches on xi^2..xi^8 exactly")


OMEGA_B_L2 = {
    (1,): {0: 1},
    (3,): {-3: -1},
    (5,): {-10: 1, -6: 1},
    (7,): {-21: -1, -17: -1, -13: -2, -9: -1},
    (9,): {-36: 1, -32: 1, -28: 2, -24: 3, -20: 4, -16: 3, -12: 1},
}


def test_criterion_03_omega_b_l2_both_routes():
    t0 = time.time()
    quotient = ori_dt_invariants(L2, 9, 26).table()
    division = loop_factorization(L2, 9, 26, quotient_window=26)
    elapsed = time.time() - t0
    assert all(data["consistent"] for data in division.values())
    div_b = division[(1,)]["table"]
    for e, lau in OMEGA_B_L2.items():
        assert quotient.rendered(e) == fr(lau), e
        assert div_b.rendered(e) == fr(lau), e
    assert elapsed < 600
    _announce(3, "Omega^B_L2 through xi^9 via both routes, equal (%.1fs < 600s)" % elapsed)


OMEGA_L3 = {
    (1,): {-2: 1},
    (2,): {-8: 1},
    (3,): {-18: 1, -14: 1, -12: 1},
    (4,): {-32: 1, -28: 1, -26: 1, -24: 2, -22: 1, -20: 2, -18: 1, -16: 1},
}

OMEGA_D_L3 = {
    (0,): {0: 1},
    (2,): {-8: 1, -4: 1},
    (4,): {-24: 1, -20: 1, -16: 2, -12: 2, -8: 1},
    (6,): {-48: 1, -44: 1, -40: 2, -36: 3, -32: 4, -28: 5, -24: 6, -20: 6, -16: 4, -12: 1},
    (8,): {
        -80: 1, -76: 1, -72: 2, -68: 3, -64: 5, -60: 6, -56: 9, -52: 11,
        -48: 14, -44: 16, -40: 19, -36: 20, -32: 21, -28: 19, -24: 14,
        -20: 6, -16: 1,
    },
}


def test_criterion_04_l3_series():
    table = dt_invariants(L3, 4, 40)
    for d, lau in OMEGA_L3.items():
        assert table.rendered(d) == fr(lau), d
    lf = loop_factorization(L3, 8, 72)
    tD = lf[(0,)]["table"]
    for e, lau in OMEGA_D_L3.items():
        assert tD.rendered(e) == fr(lau), e
    _announce(4, "Omega_L3 through t^4 and Omega^D_L3 through xi^8 exact")


def test_criterion_05_general_m_loops():
    for m in range(2, 7):
        lm = loop_quiver(m, s=1, tau=[-1] * m)
        table = dt_invariants(lm, 2, 8 * m)
        exp1 = {1 - m: Fraction(sign_pow(1 - m))}
        assert table.rendered((1,)) == exp1, m
        exp2 = fr(laurent_shift(quantum_integer(m // 2, 2), 4 * (1 - m)))
        assert table.rendered((2,)) == exp2, m
        lf = loop_factorization(lm, 4, 10 * m)
        dxi4 = fr(
            laurent_shift(
                laurent_mul(
                    quantum_integer(2 * (m // 4) + 1, 2),
                    quantum_integer((m + 2) // 4, 4),
                ),
                6 * (1 - m),
            )
        )
        assert lf[(0,)]["table"].rendered((4,)) == dxi4, m
        assert lf[(0,)]["table"].rendered((2,)) == {}, m
        lc = loop_quiver(m, s=-1, tau=[-1] * m)
        lfc = loop_factorization(lc, 2, 10 * m)
        cxi2 = {
            k + 3 * (1 - m): Fraction(v * sign_pow(3 * (1 - m)))
            for k, v in quantum_integer(m // 2, 2).items()
        }
        assert lfc[(0,)]["table"].rendered((2,)) == cxi2, m
    _announce(5, "Omega_{L_m}, Omega^D/C_{L_m} small-degree closed forms, m=2..6")


def test_criterion_06_zero_one_loop_closed_forms():
    assert ori_dt_invariants(loop_quiver(0), 8, 16).table().entries == {
        ((0,), 0): 1,
        ((1,), 0): 1,
    }
    assert ori_dt_invariants(loop_quiver(0, s=-1), 8, 16).table().entries == {
        ((0,), 0): 1
    }
    t1 = ori_dt_invariants(loop_quiver(1, s=1, tau=[1]), 8, 16).table()
    assert t1.entries == {((0,), 0): 1} | {((e,), -e): 1 for e in range(1, 9)}
    assert ori_dt_invariants(loop_quiver(1, s=-1, tau=[1]), 8, 16).table().entries == {
        ((0,), 0): 1
    }
    t1m = ori_dt_invariants(loop_quiver(1, s=1, tau=[-1]), 8, 16).table()
    assert t1m.entries == {((0,), 0): 1, ((1,), 0): 1}
    assert ori_dt_invariants(loop_quiver(1, s=-1, tau=[-1]), 8, 16).table().entries == {
        ((0,), 0): 1
    }
    _announce(6, "L0 and L1 orientifold invariants match the closed forms to xi^8")


def test_criterion_07_a1_tilde():
    tm = ori_dt_invariants(a1_tilde(tau=-1), 8, 16).table()
    assert tm.entries == {((0, 0), 0): 1}
    tp = ori_dt_invariants(a1_tilde(tau=1), 8, 16).table()
    assert tp.entries == {((e, e), -e): 1 for e in range(5)}
    _announce(7, "A1-tilde orientifold invariants through xi^(4,4) exact")


def _neg_schur(lam, n):
    s = schur(lam, n)
    return Poly(s.n, {k: -c if key_degree(k) % 2 else c for k, c in s.terms.items()})


def test_criterion_08_a2_thom_polynomials():
    orth = build_typeA(2, ">", "orthogonal")
    symp = build_typeA(2, ">", "symplectic")
    for d in (1, 2, 3):
        for e in (0, 2):
            t = thom_polynomial(orth, {(1, 1): d, (2, 2): d, (1, 2): e})
            assert t.poly == _neg_schur(tuple(range(d - 1, 0, -1)), d + e), (d, e)
        for e in (0, 1, 2):
            t = thom_polynomial(symp, {(1, 1): d, (2, 2): d, (1, 2): e})
            assert t.poly == _neg_schur(tuple(range(d, 0, -1)), d + e).scale(2 ** d), (d, e)
    with pytest.raises(GradingError):
        thom_polynomial(orth, {(1, 1): 2, (2, 2): 2, (1, 2): 1})
    _announce(8, "A2 Thom polynomials match the Schur closed forms, d<=3, e<=2")


def test_criterion_09_dilog_identity():
    cases = [(1, ""), (2, ">"), (3, ">>"), (3, "<<")]
    for n, orient in cases:
        for dual in ("orthogonal", "symplectic"):
            rs = build_typeA(n, orient, dual)
            rep = dilog_identity_check(rs, 6, 24)
            assert rep["pass"], (n, orient, dual, rep["mismatches"][:2])
            widths = [
                hi - rs.quiver.sd_euler_form(d)
                for d, hi in rep["windows"].items()
                if hi is not None
            ]
            assert not widths or min(widths) >= 12
    _announce(9, "quantum dilogarithm identity exact for A1, A2, A3 (both dualities)")


def test_criterion_10_pbw_checks():
    assert pbw_check_coha(build_typeA(2, ">", "orthogonal"), 3, 12)["pass"]
    assert pbw_check_coha(build_typeA(3, ">>", "orthogonal"), 3, 6)["pass"]
    assert pbw_check_cohm(build_typeA(2, ">", "orthogonal"), 3, 12)["pass"]
    assert pbw_check_cohm(build_typeA(2, ">", "symplectic"), 2, 12)["pass"]
    _announce(10, "PBW multiplication/action maps are graded isomorphisms")


def test_criterion_11_property_suites():
    from hallforge.proputils import (
        suite_disjoint_union,
        suite_module_relation,
        suite_super_module_parity,
        suite_witt_preservation,
    )
    from propsuites import (
        suite_anti_homomorphism,
        suite_associativity,
        suite_hilbert_consistency,
        suite_module_axiom,
        suite_sd_euler_identity,
        suite_unit_laws,
    )

    seed = 20140917
    l1 = loop_quiver(1, s=1, tau=[1])
    a1t = a1_tilde(tau=1)
    from hallforge.quiver import a2_quiver

    a2 = a2_quiver()
    suites = [
        suite_associativity(L2, seed),
        suite_module_axiom(L2, seed + 2),
        suite_unit_laws(L2, seed + 4),
        suite_anti_homomorphism(a2, seed + 5),
        suite_module_relation(L2, seed + 8),
        suite_module_relation(a1t, seed + 9, maxtotal=2, maxdeg=1),
        suite_super_module_parity(L2, seed + 10),
        suite_sd_euler_identity(a1t, seed + 11),
        suite_witt_preservation(L2, seed + 12),
        suite_disjoint_union(l1, seed + 13),
        suite_disjoint_union(a2, seed + 14, budget=2),
        suite_hilbert_consistency(L2, seed + 15),
        suite_hilbert_consistency(a1t, seed + 16),
    ]
    for rep in suites:
        assert rep["pass"], (rep["property"], rep["counterexample"])
        assert rep["instances"] >= 200
    _announce(11, "all randomized property suites pass with zero failures")


def _decreasing_sequences(total, length):
    out = []

    def rec(rem, slots, ceiling, acc):
        if slots == 0:
            if rem == 0:
                out.append(tuple(acc))
            return
        for top in range(min(rem, ceiling), -1, -1):
            rec(rem - top, slots - 1, top - 1, acc + [top])

    rec(total, length, total, [])
    return [s for s in out if len(set(s)) == length]


def test_criterion_12_loop_generator_identities():
    l0 = loop_quiver(0)
    l1 = loop_quiver(1, s=1, tau=[1])
    for total in range(0, 7):
        for length in (1, 2, 3):
            for seq in _decreasing_sequences(total, length):
                factors = [
                    CohaElement(l0, (1,), Poly.variable(1, 0, i)) for i in reversed(seq)
                ]
                prod = factors[0]
                for f in factors[1:]:
                    prod = shuffle_mul(prod, f)
                lam = tuple(seq[t] - (length - 1 - t) for t in range(length))
                assert prod.poly == schur(tuple(x for x in lam if x), length), seq
                # type B/D Schur actions with the sign of the sigma-shuffle sum
                d = length
                sign = (-1) ** (d * (d - 1) // 2)
                felem = CohaElement(l0, (d,), prod.poly)
                if all(x % 2 == 0 for x in seq):
                    mu = tuple(seq[t] // 2 - (d - 1 - t) for t in range(d))
                    expected = schur(tuple(x for x in mu if x), d, squared=True).scale(
                        sign * 2 ** d
                    )
                    got = cohm_action(felem, CohmElement.unit(l0, (0,)))
                    assert got.poly == expected, seq
                if all(x % 2 == 1 for x in seq):
                    mu = tuple((seq[t] - 1) // 2 - (d - 1 - t) for t in range(d))
                    expected = schur(tuple(x for x in mu if x), d, squared=True).scale(
                        sign * (-2) ** d
                    )
                    got = cohm_action(felem, CohmElement.unit(l0, (1,)))
                    assert got.poly == expected, seq
    from math import factorial

    from hallforge.symfun import partitions

    for total in range(0, 7):
        for length in (1, 2, 3):
            for lam in partitions(total, length, min_part=0):
                lam = tuple(lam) + (0,) * (length - len(lam))
                if len(lam) != length:
                    continue
                factors = [
                    CohaElement(l1, (1,), Poly.variable(1, 0, i)) for i in lam
                ]
                prod = factors[0]
                for f in factors[1:]:
                    prod = shuffle_mul(prod, f)
                mult = 1
                for v in set(lam):
                    mult *= factorial(sum(1 for x in lam if x == v))
                assert prod.poly == monomial_sym(lam, length).scale(mult), lam
    _announce(12, "L0 Schur and L1 monomial generator identities, |i| <= 6")
