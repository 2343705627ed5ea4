"""The rank pipelines work in Schur coordinates ({label: coeff}, a label one
partition per block); the element products `shuffle_mul` and `cohm_action`
(divided differences on monomials) are their oracle here.  Every label
product, expanded through `from_label`, must equal the element product of the
expanded inputs."""

import pytest

from oracles import q3

from hallforge import symfun
from hallforge.coha import CohaElement, _times_power_sum, s_involution, s_label, schur_mul, shuffle_mul
from hallforge.cohm import CohmElement, cohm_action, ori_dt_invariants, schur_act
from hallforge.finite_type import build_typeA
from hallforge.poly import Poly
from hallforge.proputils import Lcg, random_dim, random_selfdual_dim
from hallforge.quiver import a1_tilde, disjoint_double, loop_quiver
from hallforge.symfun import schur, straighten


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
    out = Poly.zero(cls.layout(quiver, d)[1])
    for label, c in row.items():
        out = out + cls.from_label(quiver, d, label).poly.scale(c)
    return out


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
        want = shuffle_mul(CohaElement.from_label(quiver, d1, a), CohaElement.from_label(quiver, d2, b))
        assert expand(CohaElement, quiver, d, schur_mul(quiver, d1, {a: 1}, d2, {b: 1})) == want.poly, (d1, a, d2, b)
        products += 1
    for _ in range(80):
        d, e = random_dim(rng, quiver, 2), random_selfdual_dim(rng, quiver, 2)
        a, b = _draw_label(rng, CohaElement, quiver, d, 2), _draw_label(rng, CohmElement, quiver, e, 1)
        if a is None or b is None:
            continue
        want = cohm_action(CohaElement.from_label(quiver, d, a), CohmElement.from_label(quiver, e, b))
        assert expand(CohmElement, quiver, want.e, schur_act(quiver, d, {a: 1}, e, {b: 1})) == want.poly, (d, a, e, b)
        actions += 1
    assert products > 20 and actions > 20


def test_linear_combinations_and_chains():
    """Rows with several labels multiply bilinearly, and an action on an
    action's result (the PBW words) matches the element chain."""
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
            once = cohm_action(fe, ge)
            row = schur_act(quiver, d, f, e, g)
            assert expand(CohmElement, quiver, once.e, row) == once.poly
            again = cohm_action(fe, once)
            assert expand(CohmElement, quiver, again.e, schur_act(quiver, d, f, once.e, row)) == again.poly
            product = shuffle_mul(fe, fe)
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
                    elem = CohaElement.from_label(quiver, d, label)
                    sign, image = s_label(quiver, label)
                    sd = quiver.sigma_dim(d)
                    assert CohaElement.from_label(quiver, sd, image).scale(sign) == s_involution(elem)
                    row = _times_power_sum(quiver, d, label)
                    assert expand(CohaElement, quiver, d, row) == power_sum * elem.poly


def test_straighten_is_the_full_divided_difference():
    """partial_w0(x^alpha) by divided differences against `straighten`."""
    for alpha in [(0,), (2, 0), (0, 2), (1, 1), (3, 0, 1), (0, 4, 2), (2, 2, 0), (1, 5, 0, 3), (4, 0, 6, 1)]:
        n = len(alpha)
        out = Poly.from_exponents(n, {alpha: 1})
        for k in range(1, n):
            for i in range(k, 0, -1):
                out = out.divided_difference(i - 1)
        r = straighten(alpha)
        assert out == (Poly.zero(n) if r is None else schur(r[1], n).scale(r[0])), alpha


def test_ori_quotient_expands_only_the_stored_complements(monkeypatch):
    """`ori_dt_invariants(L2, 8, 22)` builds no slice basis: symfun.schur runs
    once per nonempty partition of the stored complement labels."""
    calls = []
    real = symfun.schur

    def counted(lam, *args, **kwargs):
        calls.append(lam)
        return real(lam, *args, **kwargs)

    monkeypatch.setattr(symfun, "schur", counted)
    quiver = loop_quiver(2)
    table = ori_dt_invariants(quiver, 8, 22)
    monkeypatch.undo()  # _labels_of expands labels itself
    stored = sum(len(basis) for basis in table.bases.values())
    assert stored > 10
    expected = sorted(
        (lam for (e, k), basis in table.bases.items() for elem in basis for lam in _labels_of(quiver, e, k, elem) if lam),
    )
    assert sorted(calls) == expected
    assert not any(key[0] == "slice_basis" for key in quiver._cache if isinstance(key, tuple))


def _labels_of(quiver, e, k, elem):
    """The label of a stored basis element, found among the slice labels."""
    for label in CohmElement.slice_labels(quiver, e, k):
        if CohmElement.from_label(quiver, e, label) == elem:
            return label
    raise AssertionError("stored element is not a slice basis element")
