from fractions import Fraction

import pytest

from hallforge.errors import ExponentOverflowError, HallforgeError, InexactDivisionError
from hallforge.poly import Poly, unpack_exponents
from hallforge.symfun import (
    expand_labels,
    partitions,
    schur,
    weight_basis_size,
    weight_labels,
)
from oracles import (
    dd_schur,
    divided_difference,
    double_exponents,
    flip,
    from_exponents,
    monomial_sym,
    mul_linear,
    mul_square_difference,
    recursive_weight_labels,
    swap_variables,
)


def bialternant(lam, n):
    """Independent Schur oracle: ratio of alternants, via exact division."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    exps = [lam[i] + n - 1 - i for i in range(n)]

    def alternant(es):
        from itertools import permutations

        out = Poly.zero(n)
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(len(seen)):
                for j in range(i + 1, len(seen)):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = Poly.const(n, sign)
            for row, col in enumerate(perm):
                term = term * Poly.variable(n, col, es[row])
            out = out + term
        return out

    # divide the alternant by the Vandermonde prod_{i<j}(x_i - x_j)
    out = alternant(exps)
    for i in range(n):
        for j in range(i + 1, n):
            out = out.divexact_linear(1, i, -1, j)
    return out


def test_schur_small_examples():
    assert schur((1,), 2) == from_exponents(2, {(1, 0): 1, (0, 1): 1})
    assert schur((1, 1), 2) == from_exponents(2, {(1, 1): 1})
    assert schur((2, 1), 2) == from_exponents(2, {(2, 1): 1, (1, 2): 1})
    with pytest.raises(HallforgeError):
        schur((1, 1, 1), 2)


def test_schur_against_bialternant():
    for n in (2, 3, 4):
        for size in range(0, 7):
            for lam in partitions(size, n):
                assert schur(lam, n) == bialternant(lam, n) == dd_schur(lam, n), (lam, n)


def _placed(poly, offset, nvars):
    """poly moved to the variables offset.. of a ring of nvars variables."""
    return poly.map_variables(nvars, [(1, offset + j) for j in range(poly.n)])


def test_expand_labels_against_bialternants():
    """A row over several blocks expands to the sum of its coefficients
    times the products of bialternants (squared on a BCD block), also when
    the coefficients cancel; blocks of up to 4 variables, empty ones
    included."""
    from hallforge.proputils import Lcg

    rng = Lcg(15)
    specs = (
        [("a", "GL", 2), ("b", "BCD", 2)],
        [("a", "BCD", 3), ("b", "GL", 0), ("c", "GL", 1)],
        [("a", "GL", 4)],
        [("a", "GL", 1), ("b", "GL", 3), ("c", "BCD", 1)],
        [("a", "BCD", 4), ("b", "GL", 2)],
    )
    for spec in specs:
        nvars = sum(nv for _, _, nv in spec)
        labels = [lab for deg in range(0, 7) for lab in weight_labels(spec, deg)]
        for _ in range(12):
            row = {}
            for _ in range(rng.randint(1, 4)):
                lab = rng.choice(labels)
                row[lab] = row.get(lab, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
            want = Poly.zero(nvars)
            for lab, c in row.items():
                term, off = Poly.const(nvars, c), 0
                for (_, kind, nv), lam in zip(spec, lab):
                    block = bialternant(lam, nv) if nv else Poly.const(0, 1)
                    term = term * _placed(double_exponents(block) if kind == "BCD" else block, off, nvars)
                    off += nv
                want = want + term
            terms, bound = expand_labels(spec, row)
            assert Poly(nvars, terms) == want, (spec, row)
            assert bound == max((e for k in terms for e in unpack_exponents(k, nvars)), default=0)
    # s_(2) - s_(1,1) = x1^2 + x2^2 on the GL block: the Kostka numbers of
    # x1 x2 cancel, next to every z monomial of the BCD block
    spec = [("a", "GL", 2), ("b", "BCD", 1)]
    row = {((2,), (1,)): 1, ((1, 1), (1,)): -1}
    assert Poly(3, *expand_labels(spec, row)) == from_exponents(3, {(2, 0, 2): 1, (0, 2, 2): 1})
    assert expand_labels(spec, {((2,), (1,)): 0}) == ({}, 0)
    with pytest.raises(HallforgeError):
        expand_labels(spec, {((1, 1, 1), ()): 1})


def test_permutations_are_the_distinct_orderings():
    """The multiset permutations of a block equal the set of all its
    orderings, each listed once."""
    from itertools import permutations

    from hallforge.symfun import _permutations

    for items in ((), (0,), (1, 1), (2, 1, 1), (3, 3, 0, 0), (2, 2, 2, 1, 0), (4, 1, 1, 1, 1, 0), (5, 3, 3, 1, 1, 1)):
        got = _permutations(items)
        assert len(got) == len(set(got)) and set(got) == set(permutations(items)), items


def test_clear_caches_empties_the_expansion_memos():
    from hallforge import symfun
    from hallforge.quiver import loop_quiver

    expand_labels([("a", "GL", 3), ("b", "BCD", 2)], {((2, 1), (1,)): 1})
    memos = (symfun._dominant, symfun._orbit)
    assert all(memo.cache_info().currsize for memo in memos)
    loop_quiver(1).clear_caches()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_monomial_sym():
    assert monomial_sym((2,), 2) == from_exponents(2, {(2, 0): 1, (0, 2): 1})
    assert monomial_sym((1, 1), 2) == from_exponents(2, {(1, 1): 1})
    assert monomial_sym((2, 1), 2) == from_exponents(2, {(2, 1): 1, (1, 2): 1})


def weight_basis(blocks, deg):
    """(basis polynomials, labels) of a slice: its labels, expanded."""
    labels = weight_labels(blocks, deg)
    nvars = sum(nv for _, _, nv in blocks)
    return [Poly(nvars, *expand_labels(blocks, {label: 1})) for label in labels], labels


def test_weight_basis_sizes_and_independence():
    basis, _ = weight_basis([("1", "GL", 2)], 1)
    assert len(basis) == 1
    basis, _ = weight_basis([("1", "BCD", 1)], 2)
    assert len(basis) == 1 and basis[0] == Poly.variable(1, 0, 2)
    basis, labels = weight_basis([("1", "GL", 2)], 3)
    assert len(basis) == 2 and len(labels) == 2

    # cardinality equals the Hilbert series coefficient
    def hilbert_coeff(blocks, deg):
        coeffs = [Fraction(0)] * (deg + 1)
        coeffs[0] = Fraction(1)
        for (_, kind, nv) in blocks:
            step = 1 if kind == "GL" else 2
            for j in range(1, nv + 1):
                # multiply by 1/(1 - q^(step*j))
                for dd in range(step * j, deg + 1):
                    coeffs[dd] += coeffs[dd - step * j]
        return coeffs[deg]

    from hallforge.linalg import rank_of_rows

    for blocks in ([("1", "GL", 3)], [("1", "GL", 2), ("2", "BCD", 2)]):
        for deg in range(0, 7):
            basis, _ = weight_basis(blocks, deg)
            assert len(basis) == hilbert_coeff(blocks, deg)
            assert weight_basis_size(blocks, 6)[deg] == len(basis)
            assert rank_of_rows([dict(p.terms) for p in basis]) == len(basis)


def test_weight_labels_against_the_recursive_listing():
    """`weight_labels` lists the labels of one degree only, building each
    from shared suffixes; on seeded block specs (0-4 GL or BCD blocks of
    0-5 variables, the empty spec included) and degrees -1..14 it returns
    the list of the recursion over every degree of every block, in the
    same order.  Entry n of the count list `weight_basis_size(spec, top)`
    is the number of labels of degree n for every n up to each top 0..14;
    below degree 0 the list is empty."""
    from hallforge.proputils import Lcg

    rng = Lcg(20261020)
    specs = [[]] + [
        [(str(i), rng.choice(("GL", "BCD")), rng.randint(0, 5)) for i in range(rng.randint(0, 4))] for _ in range(40)
    ]
    assert any(len(spec) == 4 for spec in specs) and any(nv == 0 for spec in specs for _, _, nv in spec)
    listed = 0
    for spec in specs:
        assert weight_basis_size(spec, -1) == []
        for top in range(15):
            assert weight_basis_size(spec, top) == [len(weight_labels(spec, n)) for n in range(top + 1)], (spec, top)
        for deg in range(-1, 15):
            labels = weight_labels(spec, deg)
            assert labels == recursive_weight_labels(spec, deg), (spec, deg)
            listed += len(labels)
    assert weight_labels([], 0) == [()] and weight_labels([], 3) == [] and listed > 10000


def test_reduce():
    num = from_exponents(2, {(0, 2): 1, (2, 0): -1})  # x2^2 - x1^2
    # dividing by x1 - x2 gives -(x1 + x2)
    assert num.divexact_linear(1, 0, -1, 1) == from_exponents(2, {(1, 0): -1, (0, 1): -1})
    one = from_exponents(2, {(1, 0): 1, (0, 1): -1})
    assert one.divexact_linear(1, 0, -1, 1) == Poly.const(2, 1)
    with pytest.raises(InexactDivisionError):
        Poly.variable(2, 0).divexact_linear(1, 0, -1, 1)


def test_reduce_roundtrip():
    from hallforge.proputils import Lcg

    rng = Lcg(3)
    factors = [(1, 0, -1, 1), (1, 0, 1, 2)]
    for _ in range(30):
        p = Poly.zero(3)
        for _ in range(4):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            p = p + from_exponents(3, {exps: rng.randint(-4, 4)})
        q = mul_linear(p, 1, 1)
        for f in factors:
            q = mul_linear(q, *f)
        for f in factors:
            q = q.divexact_linear(*f)
        assert q.divexact_mono(1) == p


def test_packed_exponent_guards():
    with pytest.raises(OverflowError):
        Poly.variable(1, 0, 2000)
    big = Poly.variable(1, 0, 1000)
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        double_exponents(big)
    with pytest.raises(ExponentOverflowError):
        schur((512,), 1, squared=True)
    assert schur((511,), 1, squared=True) == Poly.variable(1, 0, 1022)


def test_packed_exponent_guard_uses_true_maxima():
    from hallforge.coha import CohaElement, shuffle_mul
    from hallforge.quiver import loop_quiver

    # the bounds add up past the packed range, the exponents do not
    x, y = Poly.variable(2, 0, 600), Poly.variable(2, 1, 600)
    assert (x * y).bound == 600
    l1 = loop_quiver(1, s=1, tau=[1])
    f = CohaElement(l1, (1,), Poly.variable(1, 0, 600))
    out = shuffle_mul(f, f)
    assert out.poly.bound <= 601
    assert out.poly == from_exponents(2, {(600, 600): 2})
    lin = Poly.variable(2, 0, 1000)
    for _ in range(30):
        lin = mul_linear(lin, 1, 1)
    assert lin == from_exponents(2, {(1000, 30): 1})
    with pytest.raises(OverflowError):
        for _ in range(30):
            lin = mul_linear(lin, 1, 0, 1, 1)


def test_substitute():
    p = Poly.variable(1, 0, 2)
    assert p.map_variables(1, [(-1, 0)]) == Poly.variable(1, 0, 2)
    q = Poly.variable(1, 0) + Poly.const(1, 1)
    assert q.map_variables(1, [None]) == Poly.const(1, 1)
    r = from_exponents(2, {(1, 0): 1, (0, 1): 1})
    assert r.map_variables(1, [(1, 0), (-1, 0)]).is_zero()


def random_poly(rng, n, terms=5, maxexp=5):
    p = Poly.zero(n)
    for _ in range(terms):
        exps = tuple(rng.randint(0, maxexp) for _ in range(n))
        p = p + from_exponents(n, {exps: rng.randint(-4, 4)})
    return p


def test_divided_difference_identity():
    from hallforge.proputils import Lcg

    rng = Lcg(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        i = rng.randint(0, n - 2)
        p = random_poly(rng, n)
        dp = divided_difference(p, i)
        assert mul_linear(dp, 1, i, -1, i + 1) == p - swap_variables(p, i, i + 1)
        sym = p + swap_variables(p, i, i + 1)
        assert divided_difference(sym, i).is_zero()


def test_divided_difference_in_squares_identity():
    from hallforge.proputils import Lcg

    rng = Lcg(12)
    for _ in range(60):
        n = rng.randint(2, 4)
        i = rng.randint(0, n - 2)
        p = random_poly(rng, n).map_variables(n, [(1, j) for j in range(n)])
        p = double_exponents(p)
        dp = divided_difference(p, i, 2)
        lhs = mul_linear(mul_linear(dp, 1, i, -1, i + 1), 1, i, 1, i + 1)
        assert lhs == p - swap_variables(p, i, i + 1)
        sym = p + swap_variables(p, i, i + 1)
        assert divided_difference(sym, i, 2).is_zero()
    with pytest.raises(InexactDivisionError):
        divided_difference(Poly.variable(2, 0), 0, 2)


def test_flip_identity():
    from hallforge.proputils import Lcg

    rng = Lcg(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        i = rng.randint(0, n - 1)
        p = random_poly(rng, n)
        reflected = p.map_variables(n, [(-1 if j == i else 1, j) for j in range(n)])
        assert mul_linear(flip(p, i), 2, i) == p - reflected
        assert flip(p + reflected, i).is_zero()


def test_square_difference_against_two_linear_passes():
    from hallforge.proputils import Lcg

    rng = Lcg(14)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = rng.randint(0, n - 1)
        b = (a + rng.randint(1, n - 1)) % n
        p = random_poly(rng, n)
        two = mul_linear(mul_linear(p, 1, a, -1, b), 1, a, 1, b)
        one = mul_square_difference(p, a, b)
        assert one == two and one.bound == two.bound
    big = Poly.variable(2, 0, 1021)
    assert mul_square_difference(big, 0, 1) == from_exponents(2, {(1023, 0): 1, (1021, 2): -1})
    with pytest.raises(OverflowError):
        mul_square_difference(mul_square_difference(big, 0, 1), 0, 1)
