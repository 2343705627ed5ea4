"""The stored complement bases of W^prim and V^prim, pinned element by element.

The CLI golden files print only dimensions; this file pins the basis that
`ori_dt_invariants` and `primitive_dims` store for every slice (as labels,
expanded here by `from_labels`), together with the validity of every class.
Regenerate the data (only when a change of the bases is intended) with

    PYTHONPATH=src python tests/test_golden_bases.py > tests/data/golden_bases.json
"""

import json
import sys
from pathlib import Path

from hallforge.coha import CohaElement, primitive_dims
from hallforge.cohm import CohmElement, ori_dt_invariants
from hallforge.quiver import a1_tilde, loop_quiver

GOLDEN = Path(__file__).parent / "data" / "golden_bases.json"

CASES = {
    "ori_dt_invariants L2 s=+1 8 22": lambda: ori_dt_invariants(loop_quiver(2, s=1), 8, 22),
    "ori_dt_invariants L2 s=-1 8 22": lambda: ori_dt_invariants(loop_quiver(2, s=-1), 8, 22),
    "ori_dt_invariants A1t tau=+1 7 16": lambda: ori_dt_invariants(a1_tilde(tau=1), 7, 16),
    "ori_dt_invariants A1t tau=-1 7 16": lambda: ori_dt_invariants(a1_tilde(tau=-1), 7, 16),
    "primitive_dims L2 4 16": lambda: primitive_dims(loop_quiver(2), 4, 16),
    "primitive_dims A1t tau=+1 4 10": lambda: primitive_dims(a1_tilde(tau=1), 4, 10),
}
# L0 at both signs and L1 at every (s, tau): the products fill most of their
# slices, so these pin the image steps where the echelon spans the slice
for m, s, tau in ((0, 1, 0), (0, -1, 0), (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
    tag = "L%d s=%+d" % (m, s) + (" tau=%+d" % tau if m else "")
    quiver = lambda m=m, s=s, tau=tau: loop_quiver(m, s=s, tau=[tau] * m)
    CASES["ori_dt_invariants %s 7 16" % tag] = lambda q=quiver: ori_dt_invariants(q(), 7, 16)
    CASES["primitive_dims %s 5 10" % tag] = lambda q=quiver: primitive_dims(q(), 5, 10)


def _document(table):
    cls = CohaElement if table.kind == "torus" else CohmElement
    return {
        "validity": [[list(d), top] for d, top in sorted(table.validity.items())],
        "slices": [
            {
                "degree": list(d),
                "k": k,
                "basis": [cls.from_labels(table.quiver, d, {label: 1}).to_json_dict() for label in table.bases[(d, k)]],
            }
            for d, k in sorted(table.bases)
        ],
    }


def golden_document():
    return {name: _document(run()) for name, run in CASES.items()}


def test_bases_match_golden():
    assert golden_document() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(golden_document(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
