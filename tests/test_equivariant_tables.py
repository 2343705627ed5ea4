"""Z2-equivariant DT tables on quivers whose classes include sigma(d) = d.

On a loop quiver `equivariant_dt` takes the parity route, and on a quiver
whose nodes are all swapped only the hyperbolic classes sigma(d) = d split
into eigenspaces.  These cases pin that split: A1-tilde at every sign, the
disjoint doubles of L0, L1 and L2, and the three-node quiver `q3` with a
fixed middle node.  Regenerate the data (only when a change of the tables is
intended) with

    PYTHONPATH=src python tests/test_equivariant_tables.py > tests/data/equivariant_tables.json
"""

import json
import sys
from pathlib import Path

from hallforge.coha import _plus_dim, equivariant_dt
from hallforge.proputils import Lcg
from hallforge.quiver import a1_tilde, disjoint_double, loop_quiver

from oracles import q3, quotient_involution_matrix

GOLDEN = Path(__file__).parent / "data" / "equivariant_tables.json"


# name -> (quiver constructor, target or None for zero, maxdim, window)
CASES = {}
for s in (1, -1):
    for tau in (1, -1):
        CASES["A1t s=%+d tau=%+d 8 16" % (s, tau)] = (lambda s=s, tau=tau: a1_tilde(tau=tau, s=s), None, 8, 16)
for m in (0, 1, 2):
    CASES["double L%d 8 16" % m] = (lambda m=m: disjoint_double(loop_quiver(m)), None, 8, 16)
for loops in (1, 2):
    for target in ((0, 0, 0), (0, 1, 0), (1, 0, 1)):
        CASES["Q3 loops=%d target=%s 6 14" % (loops, target)] = (lambda n=loops: q3(n), target, 6, 14)
# only at this size do the eigenspaces of the k - 2 slices change the tables
CASES["Q3 loops=1 target=(0, 0, 0) 8 20"] = (lambda: q3(1), (0, 0, 0), 8, 20)
CASES["Q3 loops=2 target=(0, 1, 0) 8 20"] = (lambda: q3(2), (0, 1, 0), 8, 20)


def table_document(name):
    make, target, maxdim, window = CASES[name]
    quiver = make()
    table = equivariant_dt(quiver, target or quiver.zero(), maxdim, window)
    doc = table.to_json_dict()
    doc["validity"] = [[list(h), top] for h, top in sorted(table.validity.items())]
    return doc


def test_tables_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    for name in CASES:
        assert table_document(name) == golden[name], name


def test_plus_dim_against_involution_oracle():
    """On every sigma(d) = d slice with |d| <= 3 and window 12, of L2 and the
    quivers above, the oracle's matrix of S_H squares to the identity and
    its trace is 2 plus - r, with plus = `_plus_dim` and r the complement
    size.  The slices are visited in a seeded random order, so the cached
    echelons and complements fill in an order unrelated to the tables'."""
    quivers = [loop_quiver(2)] + [a1_tilde(tau=tau, s=s) for s in (1, -1) for tau in (1, -1)]
    quivers += [disjoint_double(loop_quiver(m)) for m in (0, 1, 2)] + [q3(1), q3(2)]
    slices = []
    for quiver in quivers:
        for d in quiver.dimension_vectors(3):
            if any(d) and quiver.sigma_dim(d) == d:
                chi = quiver.euler_form(d, d)
                slices += [(quiver, d, k) for k in range(chi, chi + 13)]
    rng = Lcg(20140917)
    flipped = 0
    while slices:
        quiver, d, k = slices.pop(rng.randint(0, len(slices) - 1))
        mat = quotient_involution_matrix(quiver, d, k)
        r = len(mat)
        square = [[sum(mat[i][t] * mat[t][j] for t in range(r)) for j in range(r)] for i in range(r)]
        assert square == [[int(i == j) for j in range(r)] for i in range(r)], (quiver.nodes, d, k)
        trace = sum(mat[i][i] for i in range(r))
        assert 2 * _plus_dim(quiver, d, k) - r == trace, (quiver.nodes, d, k)
        flipped += trace != r
    # S_H is not the identity on every slice, so the traces test something
    assert flipped


if __name__ == "__main__":
    json.dump({name: table_document(name) for name in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
