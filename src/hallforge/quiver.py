"""Quivers with involution and duality structure, and their integer form data.

A quiver is a finite directed graph.  An involution is a pair of maps sigma on
nodes and arrows reversing arrows (an arrow i -> j maps to sigma(j) -> sigma(i))
with every arrow i -> sigma(i) fixed.  A duality structure is a pair of sign
functions (s on nodes, tau on arrows) with s sigma-invariant and
tau_a * tau_{sigma(a)} = s_i * s_j for every arrow i -> j.

Dimension vectors are tuples of nonnegative integers aligned with the sorted
node list.  All bilinear/quadratic form data (Euler form chi, self-dual Euler
form E, hyperbolic map H, Witt class) is computed here in exact integers.
"""

from __future__ import annotations

import json
from math import comb

from .errors import (
    DualitySignError,
    GradingError,
    HallforgeError,
    InvolutionError,
    OddSymplecticError,
    QuiverSpecError,
    SymmetryError,
)

# Work cap: the largest number of dimension vectors |d| <= maxdim that one
# call may enumerate (C(maxdim + n, n) for n nodes).  Larger requests fail
# with a HallforgeError before any work is done.
MAX_DIMENSION_VECTORS = 100_000


class QuiverWithDuality:
    """Immutable quiver with involution sigma and duality signs (s, tau).

    Nodes and arrows carry user-supplied string ids; every internal index is
    relative to the canonical sorted order, so all outputs are deterministic.
    Instances must not be mutated after construction; the ``_cache`` dict only
    memoizes pure functions of the quiver.
    """

    def __init__(self, nodes, arrows, sigma_nodes, sigma_arrows, s, tau):
        self.nodes = tuple(sorted(nodes))
        self.node_index = {n: i for i, n in enumerate(self.nodes)}
        arrows = [(str(a), str(t), str(h)) for (a, t, h) in arrows]
        self.arrows = tuple(sorted(arrows))
        self.arrow_ids = tuple(a for (a, _, _) in self.arrows)
        self.sigma_nodes = dict(sigma_nodes)
        self.sigma_arrows = dict(sigma_arrows)
        self.s = {n: int(v) for n, v in s.items()}
        self.tau = {a: int(v) for a, v in tau.items()}
        self._validate()
        self.node_partition = self._partition_nodes()
        self.arrow_partition = self._partition_arrows()
        self._cache = {}

    # -- validation -------------------------------------------------------

    def _validate(self):
        nodes, arrows = set(self.nodes), dict((a, (t, h)) for a, t, h in self.arrows)
        if len(nodes) != len(self.nodes):
            raise QuiverSpecError("duplicate node ids")
        if len(arrows) != len(self.arrows):
            raise QuiverSpecError("duplicate arrow ids")
        for a, t, h in self.arrows:
            if t not in nodes or h not in nodes:
                raise QuiverSpecError("arrow %r has endpoint outside node set" % a)
        if set(self.sigma_nodes) != nodes or set(self.sigma_nodes.values()) != nodes:
            raise InvolutionError("sigma_nodes is not a bijection of the node set")
        for n in nodes:
            if self.sigma_nodes[self.sigma_nodes[n]] != n:
                raise InvolutionError("sigma_nodes is not an involution at %r" % n)
        if set(self.sigma_arrows) != set(arrows):
            raise InvolutionError("sigma_arrows is not defined on the arrow set")
        for a, (t, h) in arrows.items():
            b = self.sigma_arrows.get(a)
            if b not in arrows:
                raise InvolutionError("sigma_arrows image %r missing" % b)
            if self.sigma_arrows[b] != a:
                raise InvolutionError("sigma_arrows is not an involution at %r" % a)
            bt, bh = arrows[b]
            if (bt, bh) != (self.sigma_nodes[h], self.sigma_nodes[t]):
                raise InvolutionError(
                    "sigma of arrow %r must go %r -> %r" % (a, self.sigma_nodes[h], self.sigma_nodes[t])
                )
            if h == self.sigma_nodes[t] and b != a:
                raise InvolutionError("arrow %r into sigma(tail) must be sigma-fixed" % a)
        if set(self.s) != nodes:
            raise QuiverSpecError("s must assign a sign to every node")
        if set(self.tau) != set(arrows):
            raise QuiverSpecError("tau must assign a sign to every arrow")
        for n in nodes:
            if self.s[n] not in (1, -1):
                raise QuiverSpecError("s[%r] must be +1 or -1" % n)
            if self.s[n] != self.s[self.sigma_nodes[n]]:
                raise DualitySignError("s is not sigma-invariant at %r" % n)
        for a, (t, h) in arrows.items():
            if self.tau[a] not in (1, -1):
                raise QuiverSpecError("tau[%r] must be +1 or -1" % a)
            if self.tau[a] * self.tau[self.sigma_arrows[a]] != self.s[t] * self.s[h]:
                raise DualitySignError(
                    "tau_a tau_{sigma(a)} != s_i s_j for arrow %r: %r -> %r" % (a, t, h)
                )

    def _partition_nodes(self):
        # Q0^+ holds the lex-smaller member of each swapped pair so that the
        # module variables live at the textbook side of every example.
        minus, fixed, plus = [], [], []
        for n in self.nodes:
            m = self.sigma_nodes[n]
            if m == n:
                fixed.append(n)
            elif n < m:
                plus.append(n)
            else:
                minus.append(n)
        return tuple(minus), tuple(fixed), tuple(plus)

    def _partition_arrows(self):
        minus, fixed, plus = [], [], []
        for a, _, _ in self.arrows:
            b = self.sigma_arrows[a]
            if b == a:
                fixed.append(a)
            elif a < b:
                plus.append(a)
            else:
                minus.append(a)
        return tuple(minus), tuple(fixed), tuple(plus)

    # -- basic structure ---------------------------------------------------

    @property
    def q0_minus(self):
        return self.node_partition[0]

    @property
    def q0_sigma(self):
        return self.node_partition[1]

    @property
    def q0_plus(self):
        return self.node_partition[2]

    def zero(self):
        return (0,) * len(self.nodes)

    def dimension_vectors(self, maxdim):
        """Every dimension vector with |d| <= maxdim, in lexicographic order.

        Raises HallforgeError when there are more than MAX_DIMENSION_VECTORS."""
        if maxdim < 0:
            return []
        n = len(self.nodes)
        count = comb(maxdim + n, n)
        if count > MAX_DIMENSION_VECTORS:
            raise HallforgeError(
                "%d dimension vectors of total dimension <= %d on %d nodes exceed "
                "the work cap of %d" % (count, maxdim, n, MAX_DIMENSION_VECTORS)
            )
        out = [()]
        for _ in range(n):
            out = [d + (x,) for d in out for x in range(maxdim - sum(d) + 1)]
        return out

    def decompositions(self, target, total, image=None):
        """(a, target - image(a)) for every nonzero a with |a| <= total and
        image(a) <= target (image defaults to the identity), in lexicographic
        order of a; the work cap is that of dimension_vectors(total)."""
        out = []
        for a in self.dimension_vectors(total):
            h = a if image is None else image(a)
            if any(a) and all(x <= y for x, y in zip(h, target)):
                out.append((a, tuple(y - x for x, y in zip(h, target))))
        return out

    def check_dim(self, d):
        if len(d) != len(self.nodes) or any(x < 0 for x in d):
            raise GradingError("not a dimension vector for this quiver: %r" % (d,))
        return tuple(int(x) for x in d)

    def sigma_dim(self, d):
        """Apply sigma to a dimension vector."""
        out = [0] * len(self.nodes)
        for n in self.nodes:
            out[self.node_index[self.sigma_nodes[n]]] = d[self.node_index[n]]
        return tuple(out)

    def hyperbolic(self, d):
        """H(d) = d + sigma(d)."""
        sd = self.sigma_dim(d)
        return tuple(a + b for a, b in zip(d, sd))

    def check_selfdual_dim(self, e):
        """Validate e in the self-dual grading monoid (sigma-invariant, even
        at symplectic fixed nodes)."""
        e = self.check_dim(e)
        if self.sigma_dim(e) != e:
            raise GradingError("dimension vector %r is not sigma-invariant" % (e,))
        for n in self.q0_sigma:
            if self.s[n] == -1 and e[self.node_index[n]] % 2 == 1:
                raise OddSymplecticError(
                    "odd component %d at symplectic fixed node %r" % (e[self.node_index[n]], n)
                )
        return e

    # -- form data ----------------------------------------------------------

    def adjacency(self):
        """a_ij = number of arrows i -> j, as a nested dict keyed by index."""
        key = "adjacency"
        if key not in self._cache:
            n = len(self.nodes)
            a = [[0] * n for _ in range(n)]
            for _, t, h in self.arrows:
                a[self.node_index[t]][self.node_index[h]] += 1
            self._cache[key] = a
        return self._cache[key]

    def euler_form(self, d, dp):
        """chi(d, d') = sum_i d_i d'_i - sum_{a: i->j} d_i d'_j."""
        total = sum(x * y for x, y in zip(d, dp))
        for _, t, h in self.arrows:
            total -= d[self.node_index[t]] * dp[self.node_index[h]]
        return total

    def sd_euler_form(self, d):
        """Self-dual Euler form E(d) (four-sum formula; empty sums give 0)."""
        idx = self.node_index
        total = 0
        for n in self.q0_sigma:
            total += d[idx[n]] * (d[idx[n]] - self.s[n]) // 2
        for n in self.q0_plus:
            total += d[idx[self.sigma_nodes[n]]] * d[idx[n]]
        for a, t, h in self.arrows:
            if self.sigma_arrows[a] == a:
                # fixed arrow sigma(i) -> i contributes d_i (d_i + tau s_i)/2
                total -= d[idx[h]] * (d[idx[h]] + self.tau[a] * self.s[h]) // 2
        plus_arrows = set(self.arrow_partition[2])
        for a, t, h in self.arrows:
            if a in plus_arrows:
                total -= d[idx[self.sigma_nodes[t]]] * d[idx[h]]
        return total

    def star_twist(self, d, e):
        """gamma(d, e) = chi(d,e) - chi(e,d) + E(sigma d) - E(d), the weight
        shift of the quantum-torus action t^d * xi^e."""
        return (
            self.euler_form(d, e)
            - self.euler_form(e, d)
            + self.sd_euler_form(self.sigma_dim(d))
            - self.sd_euler_form(d)
        )

    def is_symmetric(self):
        a = self.adjacency()
        n = len(self.nodes)
        return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))

    def is_sigma_symmetric(self):
        """Symmetric and E = E o sigma, decided by the finite arrow-sum
        criterion (per node, sum of tau over fixed arrows sigma(i) -> i equals
        the sum over fixed arrows i -> sigma(i))."""
        if not self.is_symmetric():
            return False
        for n in self.nodes:
            into = sum(
                self.tau[a]
                for a, t, h in self.arrows
                if self.sigma_arrows[a] == a and h == n
            )
            outof = sum(
                self.tau[a]
                for a, t, h in self.arrows
                if self.sigma_arrows[a] == a and t == n
            )
            if into != outof:
                return False
        return True

    def supercommutativity_criterion(self):
        """a_ij = (1 + a_ii)(1 + a_jj) mod 2 for all distinct nodes i, j."""
        if not self.is_symmetric():
            raise SymmetryError("supercommutativity criterion needs a symmetric quiver")
        a = self.adjacency()
        n = len(self.nodes)
        for i in range(n):
            for j in range(i + 1, n):
                if (a[i][j] - (1 + a[i][i]) * (1 + a[j][j])) % 2:
                    return False
        return True

    def witt_class(self, e):
        """Parities of e at the fixed nodes, ordered by Q0^sigma."""
        return tuple(e[self.node_index[n]] % 2 for n in self.q0_sigma)

    # -- misc ---------------------------------------------------------------

    def structure_key(self):
        key = self._cache.get("structure_key")
        if key is None:
            key = (
                self.nodes,
                self.arrows,
                tuple(sorted(self.sigma_nodes.items())),
                tuple(sorted(self.sigma_arrows.items())),
                tuple(sorted(self.s.items())),
                tuple(sorted(self.tau.items())),
            )
            self._cache["structure_key"] = key
        return key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuiverWithDuality):
            return NotImplemented
        return self.structure_key() == other.structure_key()

    def __hash__(self):
        return hash(self.structure_key())

    def __reduce__(self):
        # a pickled quiver is its spec: the copy starts with an empty _cache
        return (type(self), (self.nodes, self.arrows, self.sigma_nodes, self.sigma_arrows, self.s, self.tau))

    def __repr__(self):
        return "QuiverWithDuality(nodes=%r, arrows=%r)" % (self.nodes, self.arrows)

    def to_dict(self):
        return {
            "nodes": list(self.nodes),
            "arrows": [{"id": a, "tail": t, "head": h} for a, t, h in self.arrows],
            "sigma_nodes": dict(sorted(self.sigma_nodes.items())),
            "sigma_arrows": dict(sorted(self.sigma_arrows.items())),
            "s": dict(sorted(self.s.items())),
            "tau": dict(sorted(self.tau.items())),
        }


def parse_quiver(doc):
    """Build a validated QuiverWithDuality from a JSON document.

    Accepts a dict, a JSON string, or a path-like pointing at a JSON file.
    """
    if isinstance(doc, QuiverWithDuality):
        return doc
    if isinstance(doc, (str, bytes)):
        text = str(doc)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    if not isinstance(doc, dict):
        raise QuiverSpecError("quiver spec must be a JSON object")
    try:
        nodes = [str(n) for n in doc["nodes"]]
        arrows = [(a["id"], a["tail"], a["head"]) for a in doc.get("arrows", [])]
        sigma_nodes = {str(k): str(v) for k, v in doc["sigma_nodes"].items()}
        sigma_arrows = {str(k): str(v) for k, v in doc.get("sigma_arrows", {}).items()}
        s = {str(k): int(v) for k, v in doc["s"].items()}
        tau = {str(k): int(v) for k, v in doc.get("tau", {}).items()}
    except (KeyError, TypeError) as exc:
        raise QuiverSpecError("malformed quiver spec: %s" % exc) from None
    return QuiverWithDuality(nodes, arrows, sigma_nodes, sigma_arrows, s, tau)


# -- stock constructions ----------------------------------------------------


def loop_quiver(m, s=1, tau=None):
    """L_m: one node, m loops.  tau is a sign list (default all -1)."""
    if tau is None:
        tau = [-1] * m
    if len(tau) != m:
        raise QuiverSpecError("need %d loop signs" % m)
    node = "1"
    arrows = [("l%d" % (k + 1), node, node) for k in range(m)]
    return QuiverWithDuality(
        [node],
        arrows,
        {node: node},
        {a: a for a, _, _ in arrows},
        {node: s},
        {("l%d" % (k + 1)): tau[k] for k in range(m)},
    )


def a1_tilde(tau=1, s=1):
    """Affine A1: nodes 1, 2 with arrows a: 1->2 and b: 2->1, sigma swapping
    the nodes and fixing both arrows."""
    return QuiverWithDuality(
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        {"1": "2", "2": "1"},
        {"a": "a", "b": "b"},
        {"1": s, "2": s},
        {"a": tau, "b": tau},
    )


def a2_quiver(s=1):
    """A2 quiver 1 -> 2 with sigma swapping the nodes, tau = -1."""
    return QuiverWithDuality(
        ["1", "2"],
        [("a", "1", "2")],
        {"1": "2", "2": "1"},
        {"a": "a"},
        {"1": s, "2": s},
        {"a": -1},
    )


def disjoint_double(quiver):
    """Q^sq = Q sqcup Q^op with the swap involution, s = +1, tau = +1.

    Nodes are prefixed "1:" (Q side) and "2:" (opposite side); the arrow a:
    i -> j yields "1:a": 1:i -> 1:j and "2:a": 2:j -> 2:i.
    """
    nodes = ["1:%s" % n for n in quiver.nodes] + ["2:%s" % n for n in quiver.nodes]
    arrows, sigma_arrows, tau = [], {}, {}
    for a, t, h in quiver.arrows:
        arrows.append(("1:%s" % a, "1:%s" % t, "1:%s" % h))
        arrows.append(("2:%s" % a, "2:%s" % h, "2:%s" % t))
        sigma_arrows["1:%s" % a] = "2:%s" % a
        sigma_arrows["2:%s" % a] = "1:%s" % a
        tau["1:%s" % a] = 1
        tau["2:%s" % a] = 1
    sigma_nodes = {}
    for n in quiver.nodes:
        sigma_nodes["1:%s" % n] = "2:%s" % n
        sigma_nodes["2:%s" % n] = "1:%s" % n
    return QuiverWithDuality(
        nodes, arrows, sigma_nodes, sigma_arrows, {n: 1 for n in nodes}, tau
    )
