"""The element JSON codec decodes straight into packed keys and tests Weyl
invariance on the term dict (`GradedElement.from_json_dict`,
`to_json_dict`, `is_invariant`).  Its oracle is the codec it replaced,
kept in `oracles`: exponent tuples, `Fraction` coefficients,
`from_exponents`, `Poly.sorted_terms` and a swapped `Poly` per
adjacent pair (`tuple_from_json_dict`, `tuple_to_json_dict`,
`tuple_is_invariant`)."""

import json
from fractions import Fraction

import pytest

from oracles import q3, tuple_from_json_dict, tuple_is_invariant, tuple_to_json_dict

from hallforge.coha import CohaElement
from hallforge.cohm import CohmElement
from hallforge.errors import ExponentOverflowError, GradingError
from hallforge.finite_type import build_typeA
from hallforge.poly import MAXDEG, SHIFT, Poly
from hallforge.proputils import Lcg, random_coha_element, random_cohm_element
from hallforge.quiver import a1_tilde, loop_quiver


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
    out.append(("q3", q3(1)))
    return out


QUIVERS = _quivers()
IDS = [name for name, _ in QUIVERS]


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _elements(quiver, seed, count=30):
    """Seeded nonzero CoHA and CoHM elements of total dim <= 3, some scaled
    by 1/3 so that coefficients are also Fractions."""
    rng = Lcg(seed)
    out = []
    while len(out) < count:
        draw = random_coha_element if len(out) % 2 else random_cohm_element
        elem = draw(rng, quiver, 3, 3)
        if elem.is_zero():
            continue
        out.append(elem.scale(Fraction(1, 3)) if rng.randint(0, 2) == 0 else elem)
    return out


def term(exp, c="1"):
    return {"exp": exp, "c": c}


def _decode_both(cls, quiver, doc):
    new = cls.from_json_dict(quiver, doc)
    old = tuple_from_json_dict(cls, quiver, doc)
    assert new == old
    assert new.poly.bound == old.poly.bound and new.poly.n == old.poly.n
    assert canonical(new.to_json_dict()) == canonical(tuple_to_json_dict(old))
    return new


@pytest.mark.parametrize("name, quiver", QUIVERS, ids=IDS)
def test_round_trip_against_the_oracle(name, quiver):
    """Both encoders write the same bytes, and both decoders read them back
    to equal elements with equal bounds, from string and from int
    coefficients alike."""
    for elem in _elements(quiver, 20261019 + len(name)):
        cls = type(elem)
        doc = tuple_to_json_dict(elem)
        assert canonical(elem.to_json_dict()) == canonical(doc)
        assert _decode_both(cls, quiver, doc) == elem
        ints = {"d": doc["d"], "poly": [dict(t, c=int(t["c"])) if "/" not in t["c"] else t for t in doc["poly"]]}
        assert _decode_both(cls, quiver, ints) == elem
        # a term with a zero coefficient is dropped and bounds nothing (no
        # exponent of these elements reaches 9)
        names = cls.var_names(quiver, elem.degree)
        if names:
            padded = {"d": doc["d"], "poly": doc["poly"] + [term({nm: 9 for nm in names}, "0")]}
            assert _decode_both(cls, quiver, padded) == elem


def _perturbations(elem):
    """elem's polynomial plus one monomial that breaks exactly one adjacent
    swap of a block (x_0 ... x_p of the block, p + 1 ones, changes only
    under the swap of p and p + 1), and, on a BCD block, plus its power sum
    p_1, which every swap fixes but is odd."""
    out, base = [], 0
    for _, kind, size in elem.blocks(elem.quiver, elem.degree):
        for p in range(size - 1):
            key = sum(1 << (SHIFT * (base + i)) for i in range(p + 1))
            out.append({key: 1})
        if kind == "BCD" and size:
            out.append({1 << (SHIFT * (base + i)): 1 for i in range(size)})
        base += size
    return [elem.poly + Poly(elem.poly.n, terms) for terms in out]


@pytest.mark.parametrize("name, quiver", QUIVERS, ids=IDS)
def test_non_invariant_polynomials_are_refused(name, quiver):
    """Each perturbation is caught by the term-dict test and its oracle,
    refused by both decoders with one message, and refused by the checked
    constructor."""
    refused = 0
    for elem in _elements(quiver, 7 + len(name), count=20):
        cls = type(elem)
        assert elem.is_invariant() and tuple_is_invariant(elem)
        for poly in _perturbations(elem):
            bad = cls(elem.quiver, elem.degree, poly, check=False)
            assert not bad.is_invariant() and not tuple_is_invariant(bad)
            doc = tuple_to_json_dict(bad)
            for decode in (cls.from_json_dict, lambda q, doc: tuple_from_json_dict(cls, q, doc)):
                with pytest.raises(GradingError, match="not Weyl invariant"):
                    decode(quiver, doc)
            with pytest.raises(GradingError, match="not Weyl invariant"):
                cls(elem.quiver, elem.degree, poly)
            refused += 1
    assert refused


L2 = loop_quiver(2)
L0C = loop_quiver(0, s=-1)
A2 = build_typeA(2, ">", "orthogonal").quiver
X = "x:1:1"


# (element class, quiver, document): each has one fault, and both decoders
# refuse it with one exception class and message
MALFORMED = [
    (CohaElement, L2, []),
    (CohaElement, L2, {"d": [1]}),
    (CohaElement, L2, {"d": "1", "poly": []}),
    (CohaElement, L2, {"d": [1], "poly": {}}),
    (CohaElement, L2, {"d": [1.0], "poly": []}),
    (CohaElement, L2, {"d": [True], "poly": []}),
    (CohaElement, L2, {"d": [-1], "poly": []}),
    (CohaElement, L2, {"d": [1, 0], "poly": []}),
    (CohmElement, A2, {"d": [1, 0], "poly": []}),
    (CohmElement, L0C, {"d": [1], "poly": []}),
    (CohaElement, L2, {"d": [1], "poly": ["x"]}),
    (CohaElement, L2, {"d": [1], "poly": [{"exp": {X: 1}}]}),
    (CohaElement, L2, {"d": [1], "poly": [{"exp": [1], "c": "1"}]}),
    (CohaElement, L2, {"d": [1], "poly": [term({"x:9:9": 1})]}),
    (CohaElement, L2, {"d": [1], "poly": [term({"x:1:2": 1})]}),
    (CohmElement, L2, {"d": [2], "poly": [term({X: 1})]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1.0})]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: True})]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: "1"})]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: None})]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, 0.5)]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, True)]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, None)]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, ["1"])]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "one")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "-")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "1/0")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "0x10")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "- 3")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "²")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({}), term({X: 0}, "2")]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: 1}, "0"), term({X: 1})]}),
    (CohaElement, L2, {"d": [2], "poly": [term({X: 1})]}),
    (CohmElement, L2, {"d": [2], "poly": [term({"z:1:1": 1})]}),
    (CohmElement, a1_tilde(tau=1), {"d": [2, 2], "poly": [term({"z:1:1": 1})]}),
    (CohaElement, L2, {"d": [1], "poly": [term({X: MAXDEG + 1})]}),
]


def _outcome(decode):
    try:
        return canonical(decode().to_json_dict())
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, quiver, doc", MALFORMED, ids=[canonical(doc) for _, _, doc in MALFORMED])
def test_malformed_documents_match_the_oracle(cls, quiver, doc):
    new = _outcome(lambda: cls.from_json_dict(quiver, doc))
    assert isinstance(new, tuple), new
    assert new == _outcome(lambda: tuple_from_json_dict(cls, quiver, doc))


# decimal strings int() and Fraction() might read differently: both codecs
# read each through Fraction unless it is ASCII digits after an optional "-"
COEFFICIENTS = ["0", "-0", "007", "-12", "+3", " 12 ", "3\n", "1_0", "1/2", "2/4", "-6/3", "1.5", "1e2",
                "٣", "３", "-٣"]


@pytest.mark.parametrize("c", COEFFICIENTS, ids=[ascii(c) for c in COEFFICIENTS])
def test_coefficient_strings_match_the_oracle(c):
    doc = {"d": [1], "poly": [term({X: 1}, c), term({})]}
    new = _outcome(lambda: CohaElement.from_json_dict(L2, doc))
    assert new == _outcome(lambda: tuple_from_json_dict(CohaElement, L2, doc))
    if not isinstance(new, tuple):  # an integral coefficient is stored as an int
        values = CohaElement.from_json_dict(L2, doc).poly.terms.values()
        assert all(type(v) is int or v.denominator > 1 for v in values)


# the deliberate change: an exponent out of 0..MAXDEG is refused whatever
# the coefficient; the oracle dropped it in a zero term and raised
# ExponentOverflowError for a negative one in a nonzero term
EXPONENTS = [
    ({"d": [1], "poly": [term({X: -1}, 0)]}, GradingError, "negative exponent -1"),
    ({"d": [1], "poly": [term({X: -1}, "1")]}, GradingError, "negative exponent -1"),
    ({"d": [1], "poly": [term({X: 5000}, "0")]}, ExponentOverflowError, "exponent 5000 out of packed range"),
    ({"d": [1], "poly": [term({X: MAXDEG + 1}, 0), term({})]}, ExponentOverflowError, "out of packed range"),
]


@pytest.mark.parametrize("doc, exc, message", EXPONENTS, ids=[canonical(doc) for doc, _, _ in EXPONENTS])
def test_exponents_out_of_range_are_refused(doc, exc, message):
    with pytest.raises(exc, match=message) as info:
        CohaElement.from_json_dict(L2, doc)
    assert type(info.value) is exc
    if doc["poly"][0]["c"] in (0, "0"):
        tuple_from_json_dict(CohaElement, L2, doc)  # the oracle dropped the term
    else:
        with pytest.raises(ExponentOverflowError):
            tuple_from_json_dict(CohaElement, L2, doc)


def test_top_exponent_is_accepted():
    doc = {"d": [1], "poly": [term({X: MAXDEG}, "-2")]}
    assert _decode_both(CohaElement, L2, doc).poly.bound == MAXDEG
