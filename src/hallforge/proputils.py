"""Seeded randomized property suites.

All random instances derive from a documented 64-bit linear congruential
generator (x -> 6364136223846793005 x + 1442695040888963407 mod 2^64) so
failures are reproducible across implementations and runs.
"""

from __future__ import annotations

from fractions import Fraction

from .coha import CohaElement, coha_slice_basis, s_involution, shuffle_mul
from .cohm import (
    CohmElement,
    check_disjoint_union,
    check_module_relation,
    check_sd_euler_disjoint,
    cohm_action,
    cohm_slice_basis,
    general_factorization_check,
    ori_dt_series,
)
from .poly import Poly
from .series import dt_series

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MOD = 1 << 64


class Lcg:
    """The documented 64-bit linear generator."""

    def __init__(self, seed):
        self.state = seed % LCG_MOD

    def next(self):
        self.state = (LCG_MULT * self.state + LCG_INC) % LCG_MOD
        return self.state

    def randint(self, lo, hi):
        """Uniform-ish integer in [lo, hi] from the top generator bits."""
        span = hi - lo + 1
        return lo + (self.next() >> 16) % span

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def random_dim(rng, quiver, total, exact=False):
    n = len(quiver.nodes)
    d = [0] * n
    size = total if exact else rng.randint(0, total)
    for _ in range(size):
        d[rng.randint(0, n - 1)] += 1
    return tuple(d)


def split_budget(rng, budget, parts):
    """Random composition of at most `budget` into `parts` pieces."""
    out = []
    remaining = budget
    for i in range(parts):
        t = rng.randint(0, remaining)
        out.append(t)
        remaining -= t
    return out


def random_selfdual_dim(rng, quiver, total):
    d = random_dim(rng, quiver, total)
    e = quiver.hyperbolic(d)
    # sprinkle admissible fixed-node components
    e = list(e)
    for nd in quiver.q0_sigma:
        i = quiver.node_index[nd]
        step = 2 if quiver.s[nd] == -1 else 1
        e[i] += step * rng.randint(0, 1)
    return quiver.check_selfdual_dim(tuple(e))


def _random_in_slice(rng, cls, quiver, d, basis, deg):
    """A random integer combination of one or two slice basis elements (a
    constant when the slice is the empty degree-0 one)."""
    n = cls.layout(quiver, d)[1]
    poly = Poly.zero(n)
    if basis:
        for _ in range(rng.randint(1, 2)):
            poly = poly + rng.choice(basis).poly.scale(rng.randint(-3, 3))
    elif deg == 0:
        poly = Poly.const(n, rng.randint(-3, 3))
    return cls(quiver, d, poly, check=False)


def random_coha_element(rng, quiver, maxtotal=3, maxdeg=2, exact=False):
    d = random_dim(rng, quiver, maxtotal, exact)
    deg = rng.randint(0, maxdeg)
    basis = coha_slice_basis(quiver, d, quiver.euler_form(d, d) + 2 * deg)
    return _random_in_slice(rng, CohaElement, quiver, d, basis, deg)


def random_cohm_element(rng, quiver, maxtotal=3, maxdeg=2, exact=False):
    e = random_selfdual_dim(rng, quiver, maxtotal)
    deg = rng.randint(0, maxdeg)
    basis = cohm_slice_basis(quiver, e, quiver.sd_euler_form(e) + 2 * deg)
    return _random_in_slice(rng, CohmElement, quiver, e, basis, deg)


def _report(prop, failures, count):
    return {
        "property": prop,
        "pass": not failures,
        "instances": count,
        "counterexample": failures[0] if failures else None,
    }


def suite_associativity(quiver, seed, count=200, budget=4, maxdeg=2):
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        t1, t2, t3 = split_budget(rng, budget, 3)
        f = random_coha_element(rng, quiver, t1, maxdeg, exact=True)
        g = random_coha_element(rng, quiver, t2, maxdeg, exact=True)
        h = random_coha_element(rng, quiver, t3, maxdeg, exact=True)
        if shuffle_mul(shuffle_mul(f, g), h) != shuffle_mul(f, shuffle_mul(g, h)):
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict(), "h": h.to_json_dict()})
    return _report("associativity", failures, count)


def suite_unit_laws(quiver, seed, count=200):
    rng = Lcg(seed)
    one = CohaElement.unit(quiver)
    failures = []
    for _ in range(count):
        f = random_coha_element(rng, quiver)
        g = random_cohm_element(rng, quiver)
        if shuffle_mul(one, f) != f or shuffle_mul(f, one) != f:
            failures.append({"f": f.to_json_dict()})
        if cohm_action(one, g) != g:
            failures.append({"g": g.to_json_dict()})
    return _report("unit-laws", failures, count)


def suite_module_axiom(quiver, seed, count=200, budget=3, maxdeg=2):
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        t1, t2 = split_budget(rng, budget, 2)
        f = random_coha_element(rng, quiver, t1, maxdeg, exact=True)
        g = random_coha_element(rng, quiver, t2, maxdeg, exact=True)
        x = random_cohm_element(rng, quiver, 1, maxdeg)
        lhs = cohm_action(shuffle_mul(f, g), x)
        rhs = cohm_action(f, cohm_action(g, x))
        if lhs != rhs:
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict(), "x": x.to_json_dict()})
    return _report("module-axiom", failures, count)


def suite_anti_homomorphism(quiver, seed, count=200, budget=4, maxdeg=2):
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        t1, t2 = split_budget(rng, budget, 2)
        f = random_coha_element(rng, quiver, t1, maxdeg, exact=True)
        g = random_coha_element(rng, quiver, t2, maxdeg, exact=True)
        if s_involution(shuffle_mul(f, g)) != shuffle_mul(s_involution(g), s_involution(f)):
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict()})
        if s_involution(s_involution(f)) != f:
            failures.append({"f": f.to_json_dict(), "kind": "involution"})
    return _report("s-involution-anti-homomorphism", failures, count)


def suite_supercommutativity(quiver, seed, count=200, budget=4, maxdeg=2):
    from .series import sign_pow

    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        t1, t2 = split_budget(rng, budget, 2)
        f = random_coha_element(rng, quiver, t1, maxdeg, exact=True)
        g = random_coha_element(rng, quiver, t2, maxdeg, exact=True)
        if f.is_zero() or g.is_zero():
            continue
        sign = sign_pow(f.weight() * g.weight())
        if shuffle_mul(f, g) != shuffle_mul(g, f).scale(sign):
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict()})
    return _report("supercommutativity", failures, count)


def suite_module_relation(quiver, seed, count=200, maxtotal=2, maxdeg=2):
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        f = random_coha_element(rng, quiver, maxtotal, maxdeg)
        g = random_cohm_element(rng, quiver, 1, maxdeg)
        rep = check_module_relation(f, g)
        if not rep["pass"]:
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict(), "sign": rep["sign"]})
    return _report("module-relation", failures, count)


def suite_super_module_parity(quiver, seed, count=200, maxtotal=2, maxdeg=2):
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        f = random_coha_element(rng, quiver, maxtotal, maxdeg)
        g = random_cohm_element(rng, quiver, 1, maxdeg)
        out = cohm_action(f, g)
        if out.is_zero() or f.is_zero() or g.is_zero():
            continue
        if (out.weight() - f.weight() - g.weight()) % 2:
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict()})
    return _report("super-module-parity", failures, count)


def suite_sd_euler_identity(quiver, seed, count=200, maxtotal=6):
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        d = random_dim(rng, quiver, maxtotal)
        dp = random_dim(rng, quiver, maxtotal)
        lhs = quiver.sd_euler_form(tuple(a + b for a, b in zip(d, dp)))
        rhs = (
            quiver.sd_euler_form(d)
            + quiver.sd_euler_form(dp)
            + quiver.euler_form(quiver.sigma_dim(d), dp)
        )
        if lhs != rhs:
            failures.append({"d": list(d), "dp": list(dp)})
        if quiver.euler_form(d, dp) != quiver.euler_form(
            quiver.sigma_dim(dp), quiver.sigma_dim(d)
        ):
            failures.append({"d": list(d), "dp": list(dp), "kind": "euler-symmetry"})
        h = quiver.hyperbolic(tuple(a + b for a, b in zip(d, dp)))
        hh = tuple(a + b for a, b in zip(quiver.hyperbolic(d), quiver.hyperbolic(dp)))
        if h != hh or quiver.sigma_dim(quiver.hyperbolic(d)) != quiver.hyperbolic(d):
            failures.append({"d": list(d), "kind": "hyperbolic-additivity"})
    return _report("sd-euler-identity", failures, count)


def suite_witt_preservation(quiver, seed, count=200, maxtotal=2, maxdeg=2):
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        f = random_coha_element(rng, quiver, maxtotal, maxdeg)
        g = random_cohm_element(rng, quiver, 1, maxdeg)
        out = cohm_action(f, g)
        if quiver.witt_class(out.e) != quiver.witt_class(g.e):
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict()})
    return _report("witt-preservation", failures, count)


def suite_disjoint_union(quiver, seed, count=200, budget=3, maxdeg=2):
    rng = Lcg(seed)
    triples = []
    for _ in range(count):
        t1, t2, t3 = split_budget(rng, budget, 3)
        triples.append(
            (
                random_coha_element(rng, quiver, t1, maxdeg, exact=True),
                random_coha_element(rng, quiver, t2, maxdeg, exact=True),
                random_coha_element(rng, quiver, t3, maxdeg, exact=True),
            )
        )
    rep = check_disjoint_union(quiver, triples)
    pairs = [
        (random_dim(rng, quiver, 6), random_dim(rng, quiver, 6)) for _ in range(count)
    ]
    rep_e = check_sd_euler_disjoint(quiver, pairs)
    failures = rep["failures"] + rep_e["failures"]
    return _report("disjoint-union", [str(f)[:200] for f in failures], count)


def suite_hilbert_consistency(quiver, seed, count=200, maxtotal=5, window=12):
    """Graded dimensions of the polynomial models reproduce A_Q and A^sigma_Q."""
    from .series import module_classes, sign_pow

    rng = Lcg(seed)
    A = dt_series(quiver, maxtotal, window)
    As = ori_dt_series(quiver, maxtotal, window)
    classes = module_classes(quiver, maxtotal)
    failures = []
    for _ in range(count):
        d = random_dim(rng, quiver, maxtotal)
        k = quiver.euler_form(d, d) + 2 * rng.randint(0, window // 2)
        if A.coefficient(d, k) != Fraction(CohaElement.slice_dim(quiver, d, k) * sign_pow(k)):
            failures.append({"d": list(d), "k": k, "side": "coha"})
        e = rng.choice(classes)
        k = quiver.sd_euler_form(e) + 2 * rng.randint(0, window // 2)
        if As.coefficient(e, k) != Fraction(CohmElement.slice_dim(quiver, e, k) * sign_pow(k)):
            failures.append({"e": list(e), "k": k, "side": "cohm"})
    return _report("hilbert-consistency", failures, count)


def run_property(quiver, prop, seed, maxdim=None, window=None):
    """CLI dispatch for `check --property ...`."""
    if prop == "module-relation":
        return suite_module_relation(quiver, seed)
    if prop == "parity":
        return suite_super_module_parity(quiver, seed)
    if prop == "witt":
        return suite_witt_preservation(quiver, seed)
    if prop == "disjoint":
        return suite_disjoint_union(quiver, seed)
    if prop == "factorization":
        rep = general_factorization_check(quiver, maxdim or 6, window or 12)
        rep["counterexample"] = rep["mismatches"][0] if rep["mismatches"] else None
        return rep
    if prop == "freeness":
        from .cohm import check_freeness

        rep = check_freeness(quiver, maxdim or 6, window or 12)
        rep["counterexample"] = rep["mismatches"][0] if rep["mismatches"] else None
        return rep
    raise ValueError("unknown property %r" % prop)
