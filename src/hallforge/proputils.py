"""Seeded random instances and the property suites behind `check --property`.

All random instances derive from a documented 64-bit linear congruential
generator (x -> 6364136223846793005 x + 1442695040888963407 mod 2^64) so
failures are reproducible across implementations and runs.
"""

from __future__ import annotations

from .coha import CohaElement
from .cohm import (
    CohmElement,
    check_disjoint_union,
    check_freeness,
    check_module_relation,
    check_sd_euler_disjoint,
    cohm_action,
    general_factorization_check,
)
from .errors import HallforgeError

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


def _random_in_slice(rng, cls, quiver, d, maxdeg):
    """A random integer combination of one or two basis elements of the slice
    of d at a random degree <= maxdeg, each label drawn from `slice_labels`,
    expanded as one row."""
    labels = cls.slice_labels(quiver, d, cls.weight_form(quiver, d) + 2 * rng.randint(0, maxdeg))
    row = {}
    if labels:
        for _ in range(rng.randint(1, 2)):
            label = rng.choice(labels)
            row[label] = row.get(label, 0) + rng.randint(-3, 3)
    return cls.from_labels(quiver, d, row)


def random_coha_element(rng, quiver, maxtotal=3, maxdeg=2, exact=False):
    return _random_in_slice(rng, CohaElement, quiver, random_dim(rng, quiver, maxtotal, exact), maxdeg)


def random_cohm_element(rng, quiver, maxtotal=3, maxdeg=2, exact=False):
    return _random_in_slice(rng, CohmElement, quiver, random_selfdual_dim(rng, quiver, maxtotal), maxdeg)


def _report(prop, failures, count):
    return {
        "property": prop,
        "pass": not failures,
        "instances": count,
        "counterexample": failures[0] if failures else None,
    }


def _draw_and_check(prop, check, quiver, seed, count, maxtotal, maxdeg):
    """Report of check(f, g), None on a pass and else the fields a failure
    adds, over count draws of a CoHA element f, then a CoHM element g."""
    rng = Lcg(seed)
    failures = []
    for _ in range(count):
        f = random_coha_element(rng, quiver, maxtotal, maxdeg)
        g = random_cohm_element(rng, quiver, 1, maxdeg)
        extra = check(f, g)
        if extra is not None:
            failures.append({"f": f.to_json_dict(), "g": g.to_json_dict(), **extra})
    return _report(prop, failures, count)


def _relation_failure(f, g):
    rep = check_module_relation(f, g)
    return None if rep["pass"] else {"sign": rep["sign"]}


def _parity_failure(f, g):
    out = cohm_action(f, g)
    nonzero = not (out.is_zero() or f.is_zero() or g.is_zero())
    return {} if nonzero and (out.weight() - f.weight() - g.weight()) % 2 else None


def _witt_failure(f, g):
    witt = f.quiver.witt_class
    return {} if witt(cohm_action(f, g).e) != witt(g.e) else None


def suite_module_relation(quiver, seed, count=200, maxtotal=2, maxdeg=2):
    return _draw_and_check("module-relation", _relation_failure, quiver, seed, count, maxtotal, maxdeg)


def suite_super_module_parity(quiver, seed, count=200, maxtotal=2, maxdeg=2):
    return _draw_and_check("super-module-parity", _parity_failure, quiver, seed, count, maxtotal, maxdeg)


def suite_witt_preservation(quiver, seed, count=200, maxtotal=2, maxdeg=2):
    return _draw_and_check("witt-preservation", _witt_failure, quiver, seed, count, maxtotal, maxdeg)


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
    if prop in ("factorization", "freeness"):
        check = general_factorization_check if prop == "factorization" else check_freeness
        # a size of 0 is a size, not a missing one
        rep = check(quiver, 6 if maxdim is None else maxdim, 12 if window is None else window)
        rep["counterexample"] = rep["mismatches"][0] if rep["mismatches"] else None
        return rep
    raise HallforgeError("unknown property %r" % prop)
