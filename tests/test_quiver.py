import json

import pytest

from hallforge.coha import equivariant_dt
from hallforge.errors import (
    DualitySignError,
    GradingError,
    HallforgeError,
    InvolutionError,
    OddSymplecticError,
    QuiverSpecError,
    SymmetryError,
)
from hallforge.quiver import (
    MAX_DIMENSION_VECTORS,
    QuiverWithDuality,
    a1_tilde,
    a2_quiver,
    disjoint_double,
    loop_quiver,
    parse_quiver,
)


def test_parse_roundtrip():
    doc = {
        "nodes": ["1", "2"],
        "arrows": [{"id": "a", "tail": "1", "head": "2"}],
        "sigma_nodes": {"1": "2", "2": "1"},
        "sigma_arrows": {"a": "a"},
        "s": {"1": 1, "2": 1},
        "tau": {"a": -1},
    }
    q = parse_quiver(doc)
    assert q == parse_quiver(json.dumps(doc))
    assert q.node_partition == ((), (), ("1",)) or q.q0_plus == ("1",)
    assert q.q0_minus == ("2",)


def test_parse_l2_valid():
    q = loop_quiver(2, s=1, tau=[-1, -1])
    assert q.q0_sigma == ("1",)
    assert q.is_sigma_symmetric()


def test_duality_sign_violation():
    with pytest.raises(DualitySignError):
        QuiverWithDuality(
            ["1", "2"],
            [("b", "1", "1"), ("c", "2", "2")],
            {"1": "2", "2": "1"},
            {"b": "c", "c": "b"},
            {"1": 1, "2": 1},
            {"b": 1, "c": -1},
        )


def test_involution_violations():
    with pytest.raises(InvolutionError):
        QuiverWithDuality(
            ["1", "2"],
            [("a", "1", "2")],
            {"1": "2", "2": "2"},
            {"a": "a"},
            {"1": 1, "2": 1},
            {"a": -1},
        )
    # arrow i -> sigma(i) must be sigma-fixed
    with pytest.raises(InvolutionError):
        QuiverWithDuality(
            ["1", "2"],
            [("a", "1", "2"), ("b", "1", "2")],
            {"1": "2", "2": "1"},
            {"a": "b", "b": "a"},
            {"1": 1, "2": 1},
            {"a": 1, "b": 1},
        )


def test_malformed_document():
    with pytest.raises(QuiverSpecError):
        parse_quiver({"nodes": ["1"]})


@pytest.mark.parametrize("s, tau", [(True, -1), (1, 1.0), (-1.0, -1), (1, False), (1, "1")])
def test_signs_must_be_ints(s, tau):
    with pytest.raises(QuiverSpecError, match="must be \\+1 or -1"):
        QuiverWithDuality(["1"], [("l1", "1", "1")], {"1": "1"}, {"l1": "l1"}, {"1": s}, {"l1": tau})
    doc = loop_quiver(1).to_dict()
    doc.update(s={"1": s}, tau={"l1": tau})
    with pytest.raises(QuiverSpecError, match="must be \\+1 or -1"):
        parse_quiver(doc)


@pytest.mark.parametrize("tau", [-1, 1, "ab", (-1,), [-1, -1, -1], {"l1": -1, "l2": -1}])
def test_loop_signs_must_be_a_list_of_m_signs(tau):
    """`loop_quiver` refuses a tau that is not a list or tuple of m signs,
    a scalar sign or a mapping too, with QuiverSpecError; the signs of a
    list of the right length are checked as every quiver's are."""
    with pytest.raises(QuiverSpecError, match="tau must be a list of 2 loop signs"):
        loop_quiver(2, s=1, tau=tau)
    with pytest.raises(QuiverSpecError, match="must be \\+1 or -1"):
        loop_quiver(2, s=1, tau=(-1, 1.0))
    assert loop_quiver(2, s=1, tau=(-1, -1)) == loop_quiver(2, s=1, tau=[-1, -1])


@pytest.mark.parametrize("m", [2.0, True, False, "2", None])
def test_loop_count_must_be_an_int(m):
    """`loop_quiver` refuses a number of loops that is not an int, a bool
    included (True built L1), with QuiverSpecError."""
    with pytest.raises(QuiverSpecError, match="L_m needs an int m"):
        loop_quiver(m)


def test_euler_form_examples():
    a2 = a2_quiver()
    assert a2.euler_form((1, 0), (0, 1)) == -1
    for m in range(5):
        lm = loop_quiver(m, s=1, tau=[-1] * m)
        for d in range(4):
            assert lm.euler_form((d,), (d,)) == (1 - m) * d * d
    a1t = a1_tilde(tau=1)
    assert a1t.euler_form((1, 1), (1, 1)) == 0


def test_sd_euler_examples():
    l2 = loop_quiver(2)
    assert l2.sd_euler_form((2,)) == -1
    assert all(l2.sd_euler_form((d,)) == -d * (d - 1) // 2 for d in range(7))
    a1t = a1_tilde(tau=1)
    assert a1t.sd_euler_form((1, 1)) == -1
    for d1 in range(4):
        for d2 in range(4):
            expected = d1 * d2 - d1 * (d1 + 1) // 2 - d2 * (d2 + 1) // 2
            assert a1t.sd_euler_form((d1, d2)) == expected
    assert a2_quiver().sd_euler_form((0, 0)) == 0


def test_hyperbolic():
    a2 = a2_quiver()
    assert a2.hyperbolic((1, 0)) == (1, 1)
    assert loop_quiver(1, s=1, tau=[1]).hyperbolic((3,)) == (6,)
    assert a2.hyperbolic((0, 0)) == (0, 0)


def test_sigma_symmetry():
    for m in range(4):
        for s in (1, -1):
            assert loop_quiver(m, s=s, tau=[-1] * m).is_sigma_symmetric()
    assert a1_tilde(tau=1).is_sigma_symmetric()
    assert a1_tilde(tau=-1).is_sigma_symmetric()
    assert not a2_quiver().is_sigma_symmetric()


def test_supercommutativity_criterion():
    assert loop_quiver(3).supercommutativity_criterion()
    assert a1_tilde(tau=1).supercommutativity_criterion()
    l1 = loop_quiver(1, s=1, tau=[1])
    assert disjoint_double(l1).supercommutativity_criterion()
    with pytest.raises(SymmetryError):
        a2_quiver().supercommutativity_criterion()


def test_witt_class():
    lm = loop_quiver(2)
    assert lm.witt_class((3,)) == (1,)
    assert lm.witt_class((4,)) == (0,)
    assert a1_tilde(tau=1).witt_class((2, 2)) == ()


def test_selfdual_dim_validation():
    symp = loop_quiver(1, s=-1, tau=[-1])
    with pytest.raises(OddSymplecticError):
        symp.check_selfdual_dim((3,))
    a2 = a2_quiver()
    with pytest.raises(GradingError):
        a2.check_selfdual_dim((1, 0))
    assert a2.check_selfdual_dim((2, 2)) == (2, 2)


@pytest.mark.parametrize("d", [(1.5,), (True,), ("2",), (1.0,), 2])
def test_check_dim_refuses_what_is_not_one_int_per_node(d):
    """A float, a bool or a string entry is refused, not truncated, also as
    the target of equivariant_dt."""
    with pytest.raises(GradingError, match="not a dimension vector"):
        loop_quiver(2).check_dim(d)
    with pytest.raises(GradingError, match="not a dimension vector"):
        equivariant_dt(loop_quiver(2), d, 4, 8)


def test_bilinearity_and_identities():
    from hallforge.proputils import Lcg, random_dim

    rng = Lcg(11)
    for q in (a2_quiver(), loop_quiver(3), a1_tilde(tau=-1)):
        for _ in range(40):
            d = random_dim(rng, q, 5)
            dp = random_dim(rng, q, 5)
            dpp = random_dim(rng, q, 5)
            s = tuple(a + b for a, b in zip(d, dpp))
            assert q.euler_form(s, dp) == q.euler_form(d, dp) + q.euler_form(dpp, dp)
            assert q.sd_euler_form(tuple(a + b for a, b in zip(d, dp))) == (
                q.sd_euler_form(d)
                + q.sd_euler_form(dp)
                + q.euler_form(q.sigma_dim(d), dp)
            )
            assert q.euler_form(d, dp) == q.euler_form(q.sigma_dim(dp), q.sigma_dim(d))


def test_super_parity_for_sigma_symmetric():
    from hallforge.proputils import Lcg, random_dim, random_selfdual_dim

    rng = Lcg(5)
    for q in (loop_quiver(2), a1_tilde(tau=1)):
        for _ in range(40):
            d = random_dim(rng, q, 4)
            e = random_selfdual_dim(rng, q, 3)
            he = tuple(a + b for a, b in zip(q.hyperbolic(d), e))
            par = (q.sd_euler_form(he) - q.euler_form(d, d) - q.sd_euler_form(e)) % 2
            assert par == 0


def test_dimension_vectors_order_and_cap():
    from itertools import product
    from math import comb

    three = QuiverWithDuality(["1", "2", "3"], [], {n: n for n in "123"}, {}, {n: 1 for n in "123"}, {})
    for q in (loop_quiver(2), a2_quiver(), three):
        n = len(q.nodes)
        for maxdim in range(5):
            want = [d for d in product(range(maxdim + 1), repeat=n) if sum(d) <= maxdim]
            assert q.dimension_vectors(maxdim) == want
            assert len(want) == comb(maxdim + n, n)
    assert three.dimension_vectors(-1) == []
    big = 1
    while comb(big + 3, 3) <= MAX_DIMENSION_VECTORS:
        big += 1
    assert len(three.dimension_vectors(big - 1)) == comb(big + 2, 3)
    with pytest.raises(HallforgeError, match="work cap"):
        three.dimension_vectors(big)


def _form_quivers():
    """Quivers with every kind of form term: fixed and swapped nodes, fixed
    loops and fixed arrows between swapped nodes with both tau, Q1^+ pairs,
    and the type-A quivers of the PBW checks."""
    from oracles import q3

    from hallforge.finite_type import build_typeA

    out = [loop_quiver(m, s=s, tau=[(-1) ** (j + t) for j in range(m)]) for m in range(4) for s in (1, -1) for t in (0, 1)]
    out += [a1_tilde(tau=tau, s=s) for tau in (1, -1) for s in (1, -1)]
    out += [a2_quiver(s) for s in (1, -1)] + [disjoint_double(a2_quiver()), disjoint_double(loop_quiver(2))]
    out += [q3(loops) for loops in range(3)]
    for n, orient in ((1, ""), (2, ">"), (3, "<<"), (4, "><>"), (5, ">>>>")):
        out += [build_typeA(n, orient, duality).quiver for duality in ("orthogonal", "symplectic")]
    return list(dict.fromkeys(out))  # loop_quiver(0) ignores tau


def test_form_tables_match_loop_oracles():
    # chi and E read index/sign tuples built on first use; the oracles loop
    # over the arrow triples with dict lookups, as the forms did before
    from oracles import loop_euler_form, loop_sd_euler_form

    from hallforge.proputils import Lcg, random_dim

    fresh = a1_tilde()
    assert not {"_arrow_ends", "_sd_terms"} & set(vars(fresh))  # construction builds no table
    fresh.euler_form((1, 0), (0, 1))
    fresh.sd_euler_form((1, 1))
    assert {"_arrow_ends", "_sd_terms"} <= set(vars(fresh))
    rng = Lcg(2024)
    for q in _form_quivers():
        for _ in range(100):
            d, dp = random_dim(rng, q, 6), random_dim(rng, q, 6)
            assert q.euler_form(d, dp) == loop_euler_form(q, d, dp), (q, d, dp)
            assert q.sd_euler_form(d) == loop_sd_euler_form(q, d), (q, d)
            assert q.star_twist(d, dp) == (
                loop_euler_form(q, d, dp) - loop_euler_form(q, dp, d)
                + loop_sd_euler_form(q, q.sigma_dim(d)) - loop_sd_euler_form(q, d)
            )


def test_one_memo_policy(monkeypatch):
    """Every per-quiver memo goes through `memoized`: after a W^prim, a
    V^prim and an equivariant DT run, the cache holds exactly the kinds
    that `memoized` and README list, a second call of each memoized
    function returns the cached object, and clear_caches changes no
    table."""
    import re
    from pathlib import Path

    from hallforge import coha, cohm, graded
    from hallforge.cohm import ori_dt_invariants
    from hallforge.quiver import memoized

    monkeypatch.delenv("HALLFORGE_THREADS", raising=False)  # one process, one cache
    memos = {
        "slice_labels": graded._slice_labels,
        "coha_integrand": coha._mul_integrand,
        "coha_plan": coha._coha_plan,
        "coha_ideal": coha._ideal_echelon,
        "coha_complement": coha.generator_complement,
        "cohm_integrand": cohm._act_integrand,
        "cohm_plan": cohm._cohm_plan,
        "wprim_slice": cohm._wprim_slice,
    }
    assert set(re.findall(r'"(\w+)"', memoized.__doc__)) == set(memos)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert all("`%s`" % kind in readme for kind in memos)

    l2, a1 = loop_quiver(2), a1_tilde()

    def tables():
        wprim, vprim = ori_dt_invariants(l2, 8, 22), coha.primitive_dims(l2, 5, 12)
        signed = equivariant_dt(a1, (0, 0), 6, 12)
        return [(t.dims, t.bases, t.validity) for t in (wprim, vprim)] + [(signed.entries, signed.validity)]

    first = tables()
    assert {key[0] for q in (l2, a1) for key in q._cache} == set(memos)
    for q in (l2, a1):
        for key, value in q._cache.items():
            assert memos[key[0]](q, *key[1:]) is value, key
        q.clear_caches()
        assert q._cache == {}
    assert tables() == first


@pytest.mark.parametrize("field, value", [
    ("nodes", "12"),
    ("nodes", {"1": 0, "2": 0}),
    ("arrows", ""),
    ("arrows", {}),
    ("sigma_nodes", ["1"]),
    ("sigma_arrows", []),
    ("s", "1"),
    ("tau", [-1, -1]),
])
def test_spec_fields_have_their_json_types(field, value):
    """nodes and arrows are JSON arrays, the maps JSON objects: a string or
    an object would be iterated as the array it is not ("12" as the nodes
    "1" and "2"), so any other type raises QuiverSpecError."""
    doc = loop_quiver(2).to_dict()
    doc["nodes"], doc["sigma_nodes"], doc["s"] = ["1", "2"], {"1": "1", "2": "2"}, {"1": 1, "2": 1}
    assert parse_quiver(doc).nodes == ("1", "2")
    doc[field] = value
    with pytest.raises(QuiverSpecError, match="must be a JSON"):
        parse_quiver(doc)


@pytest.mark.parametrize("size", [2.5, "2", True, None])
def test_enumerations_refuse_a_size_that_is_not_an_int(size):
    q = loop_quiver(2)
    with pytest.raises(GradingError, match="must be an int"):
        q.dimension_vectors(size)
    with pytest.raises(GradingError, match="must be an int"):
        q.decompositions((2,), size)
    assert q.dimension_vectors(-1) == [] and q.dimension_vectors(2) == [(0,), (1,), (2,)]
