"""Randomized property suites, each on >= 200 seeded instances (criterion 11)."""

import hashlib
import json

from hallforge.finite_type import build_typeA
from hallforge.proputils import (
    Lcg,
    random_coha_element,
    random_cohm_element,
    suite_disjoint_union,
    suite_module_relation,
    suite_super_module_parity,
    suite_witt_preservation,
)
from hallforge.quiver import a1_tilde, a2_quiver, loop_quiver

from propsuites import (
    suite_anti_homomorphism,
    suite_associativity,
    suite_hilbert_consistency,
    suite_module_axiom,
    suite_sd_euler_identity,
    suite_supercommutativity,
    suite_unit_laws,
)

SEED = 20140917
L1 = loop_quiver(1, s=1, tau=[1])
L2 = loop_quiver(2)
A1T = a1_tilde(tau=1)
A2 = a2_quiver()


def _run(rep):
    assert rep["pass"], rep["counterexample"]
    assert rep["instances"] >= 200


def test_associativity():
    _run(suite_associativity(L2, SEED))


def test_associativity_twisted():
    _run(suite_associativity(A2, SEED + 1, budget=3))


def test_module_axiom():
    _run(suite_module_axiom(L2, SEED + 2))


def test_module_axiom_two_nodes():
    _run(suite_module_axiom(A1T, SEED + 3, budget=2, maxdeg=1))


def test_unit_laws():
    _run(suite_unit_laws(L2, SEED + 4))


def test_anti_homomorphism():
    _run(suite_anti_homomorphism(A2, SEED + 5))
    _run(suite_anti_homomorphism(L2, SEED + 6))


def test_supercommutativity():
    _run(suite_supercommutativity(L2, SEED + 7))


def test_module_relation_sign():
    _run(suite_module_relation(L2, SEED + 8))
    _run(suite_module_relation(A1T, SEED + 9, maxtotal=2, maxdeg=1))


def test_super_module_parity():
    _run(suite_super_module_parity(L2, SEED + 10))


def test_sd_euler_identity():
    for q in (L1, L2, A1T, A2, loop_quiver(3, s=-1, tau=[-1] * 3)):
        _run(suite_sd_euler_identity(q, SEED + 11))


def test_witt_preservation():
    _run(suite_witt_preservation(L2, SEED + 12))


def test_disjoint_union_l1():
    _run(suite_disjoint_union(L1, SEED + 13))


def test_disjoint_union_a2():
    _run(suite_disjoint_union(A2, SEED + 14, budget=2))


def test_hilbert_consistency():
    _run(suite_hilbert_consistency(L2, SEED + 15))
    _run(suite_hilbert_consistency(A1T, SEED + 16))


# sha256 of the JSON of the first 50 CoHA and 50 CoHM draws on each quiver of
# the benchmark's operation stream; the stream and its reference digests
# depend on these draws staying the same elements
DRAWS_DIGEST = "919d5cf2ad23e932ca7da524d8e8b970e18ca687bc6d5032f2b3e219bc720f38"


def test_seeded_draws_are_pinned():
    quivers = [L2, A1T, A2, build_typeA(3, ">>", "orthogonal").quiver]
    digest = hashlib.sha256()
    for i, quiver in enumerate(quivers):
        rng = Lcg(SEED + 17 + i)
        for _ in range(50):
            for draw in (random_coha_element, random_cohm_element):
                elem = draw(rng, quiver, 3, 3)
                digest.update(json.dumps(elem.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == DRAWS_DIGEST


def _suite_digest(monkeypatch):
    """sha256 over the CLI's four draw-and-check suites at seeds 1-3 on L1,
    L2, A1~ and A2 (the module relation on the sigma-symmetric three only):
    each suite's draws, in the order it makes them, then its report."""
    import hallforge.proputils as proputils

    digest = hashlib.sha256()

    def recorded(draw):
        def wrapper(*args, **kwargs):
            out = draw(*args, **kwargs)
            digest.update(json.dumps(out if isinstance(out, tuple) else out.to_json_dict(), sort_keys=True).encode())
            return out

        return wrapper

    for name in ("random_coha_element", "random_cohm_element", "random_dim"):
        monkeypatch.setattr(proputils, name, recorded(getattr(proputils, name)))
    suites = [
        (suite_module_relation, (L1, L2, A1T)),
        (suite_super_module_parity, (L1, L2, A1T, A2)),
        (suite_witt_preservation, (L1, L2, A1T, A2)),
        (suite_disjoint_union, (L1, L2, A1T, A2)),
    ]
    for suite, quivers in suites:
        for quiver in quivers:
            for seed in (1, 2, 3):
                digest.update(json.dumps(suite(quiver, seed), sort_keys=True).encode())
    return digest.hexdigest()


# the draw order and the report dicts of the suites behind `check --property`
SUITES_DIGEST = "1f92c3280251ffb4b5f2501e8dcda1a6e5c6c0d4146d9ad296503ca2de50ccda"


def test_suite_draws_and_reports_are_pinned(monkeypatch):
    assert _suite_digest(monkeypatch) == SUITES_DIGEST
