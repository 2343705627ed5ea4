"""The seeded property suites that only the tests run.

The suites the CLI's `check --property` runs, and the generator and random
elements they share with these, stay in `hallforge.proputils`.  Not
collected by pytest (no test_ prefix); the test modules import it from their
own directory.
"""

from fractions import Fraction

from hallforge.coha import CohaElement, s_involution, shuffle_mul
from hallforge.cohm import CohmElement, cohm_action, ori_dt_series
from hallforge.proputils import (
    Lcg,
    _report,
    random_coha_element,
    random_cohm_element,
    random_dim,
    split_budget,
)
from hallforge.series import dt_series, module_classes, sign_pow
from oracles import slice_dim


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


def suite_hilbert_consistency(quiver, seed, count=200, maxtotal=5, window=12):
    """Graded dimensions of the polynomial models reproduce A_Q and A^sigma_Q."""
    rng = Lcg(seed)
    A = dt_series(quiver, maxtotal, window)
    As = ori_dt_series(quiver, maxtotal, window)
    classes = module_classes(quiver, maxtotal)
    failures = []
    for _ in range(count):
        d = random_dim(rng, quiver, maxtotal)
        k = quiver.euler_form(d, d) + 2 * rng.randint(0, window // 2)
        if A.coefficient(d, k) != Fraction(slice_dim(CohaElement, quiver, d, k) * sign_pow(k)):
            failures.append({"d": list(d), "k": k, "side": "coha"})
        e = rng.choice(classes)
        k = quiver.sd_euler_form(e) + 2 * rng.randint(0, window // 2)
        if As.coefficient(e, k) != Fraction(slice_dim(CohmElement, quiver, e, k) * sign_pow(k)):
            failures.append({"e": list(e), "k": k, "side": "cohm"})
    return _report("hilbert-consistency", failures, count)
