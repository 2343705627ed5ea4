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
from functools import cached_property, lru_cache, update_wrapper
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
# Work cap: the most dense cells, classes x (window + 1), that one closed-form
# series may expand, as a PochhammerFactor is charged when it is described;
# also the most that one series product or triangular recurrence may fill
# (`series._charge_cells`), for PochhammerFactor.char_star its chain lists
# plus its targets of several contributions.  Larger requests fail with a
# HallforgeError before any cell is allocated.
MAX_SERIES_CELLS = 2_000_000
# Work cap: the most slices, classes x (window // 2 + 1), that one primitive
# quotient (V^prim, W^prim or the sigma(d) = d eigenspaces of equivariant DT)
# may visit; a class's slices of odd weight offset are empty and not counted.
# Larger requests fail with a HallforgeError before any slice is computed.
MAX_QUOTIENT_SLICES = 100_000
# Work cap: the most term pairs that one series product (cmul, torus_mul,
# module_star, char_star) may multiply, bounded per class pair by the terms
# of either operand's row that fit the target window next to the least
# weight of the other.  Larger products fail with a HallforgeError before
# any pair is multiplied.  PochhammerFactor.char_star charges the pairs of
# the expanded factor's char_star, read off its known rows, before any
# running sum.
MAX_PRODUCT_PAIRS = 50_000_000
# Work cap: the most term pairs, len(a) x len(b), that one factor of
# poly.expand_factors (the integrand builders coha._mul_integrand and
# cohm._act_integrand) may multiply, as may one Poly.__mul__, which no
# product of the library forms.  Larger products fail with a HallforgeError
# before any pair is multiplied; on L2 the arrow numerators of H_(13,) x
# H_(1,) reach it.
MAX_POLY_PAIRS = 2_000_000
# Work cap: the most straightening work one push may charge, each term at
# a work of at least 1 (poly.check_push_work).  An element product
# (graded.element_product: shuffle_mul, cohm_action) charges its label
# pairs times the integrand's terms times its length; a fixed node's
# deferred product (symfun._push) its pushed terms times its deferred terms
# times D + m.  A larger charge fails with a HallforgeError before that
# straightening.  The largest charges are 286 020 and 24 990 in the tests,
# 2 328 and 260 in the benchmark, and 1 179 920 (the full slices of L3 H_(4,)
# x H_(2,)) and 31 500 in CI; the L2 constants of H_(12,) x H_(1,) charge
# 6 377 292, the L3 units of H_(3,) x M_(8,) a deferred 7 246 400.
MAX_PUSH_WORK = 2_000_000
# Work cap: the most ordered pairs of distinct positive roots, R (R - 1) for
# the R = n (n + 1) / 2 roots of A_n, whose Hom and Ext^1 the
# Auslander-Reiten order of a type A root system may tabulate.  A larger n
# fails with a HallforgeError before any pair is visited.
MAX_ROOT_PAIRS = 50_000
# Work cap: the most words, root tuples (times, for the module, the
# multiplicity tuples of every seed over its sigma-fixed roots), that one side
# of a PBW check may enumerate.  A larger side fails with a HallforgeError
# while its tuples are enumerated, before any product is formed.  At bound 1
# the indecomposable side of the algebra check of A_n has F(2n + 1) words
# (Fibonacci), 10 946 for A10.  The largest sides reach 405 words in the
# tests and 280 in the benchmark and in CI.
MAX_PBW_WORDS = 10_000


def memoized(kind):
    """Memoize fn(quiver, *args) on the quiver under the key (kind, *args).

    This is the whole per-quiver cache policy: one dict per quiver
    instance (`_cache`), unbounded, freed with the quiver, emptied by
    `QuiverWithDuality.clear_caches` and absent from a pickled copy (the
    process-global memos follow `shared_memo` instead).  A hit
    is one dict lookup; a result (never None) is computed once per key and
    shared, so callers must not mutate it.  The kinds are "slice_labels"
    (graded), "coha_integrand", "coha_plan", "coha_ideal" and
    "coha_complement" (coha), and "cohm_integrand", "cohm_plan" and
    "wprim_slice" (cohm); the element products fill only the integrand
    kinds.  The wrapper keeps fn's module and name."""

    prefix = (kind,)  # prefix + args builds the key faster than (kind, *args)

    def decorate(fn):
        def memo(quiver, *args):
            key = prefix + args
            out = quiver._cache.get(key)
            if out is None:
                out = quiver._cache[key] = fn(quiver, *args)
            return out

        return update_wrapper(memo, fn)

    return decorate


# every memo that `shared_memo` made, for `QuiverWithDuality.clear_caches`
_SHARED_MEMOS = []


def shared_memo(maxsize):
    """`functools.lru_cache(maxsize)`, registered so that
    `QuiverWithDuality.clear_caches` empties it.  This is the policy of the
    process-global memos: pure functions of small tuples and ints, shared by
    all quivers and bounded by maxsize.  They are each block size's
    straightening memo (`symfun._straightener`), `symfun._lead_key`,
    `symfun.lead`, `symfun._partitions`, the expansion memos
    `symfun._dominant` and `symfun._orbit`, and `symfun._type_b_push`."""

    def decorate(fn):
        memo = lru_cache(maxsize=maxsize)(fn)
        _SHARED_MEMOS.append(memo)
        return memo

    return decorate


class QuiverWithDuality:
    """Immutable quiver with involution sigma and duality signs (s, tau).

    Nodes and arrows carry user-supplied string ids; every internal index is
    relative to the canonical sorted order, so all outputs are deterministic.
    Instances must not be mutated after construction; the ``_cache`` dict only
    memoizes pure functions of the quiver (`memoized`).
    """

    def __init__(self, nodes, arrows, sigma_nodes, sigma_arrows, s, tau):
        self.nodes = tuple(sorted(nodes))
        self.node_index = {n: i for i, n in enumerate(self.nodes)}
        arrows = [(str(a), str(t), str(h)) for (a, t, h) in arrows]
        self.arrows = tuple(sorted(arrows))
        self.arrow_ids = tuple(a for (a, _, _) in self.arrows)
        self.sigma_nodes = dict(sigma_nodes)
        self.sigma_arrows = dict(sigma_arrows)
        self.s = dict(s)
        self.tau = dict(tau)
        self._validate()
        self.node_partition = self._partition(self.nodes, self.sigma_nodes)
        self.arrow_partition = self._partition(self.arrow_ids, self.sigma_arrows)
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
        # signs are exact ints, as in element JSON: a bool or a float that
        # compares equal to +-1 is refused
        for n in nodes:
            if type(self.s[n]) is not int or self.s[n] not in (1, -1):
                raise QuiverSpecError("s[%r] must be +1 or -1" % n)
            if self.s[n] != self.s[self.sigma_nodes[n]]:
                raise DualitySignError("s is not sigma-invariant at %r" % n)
        for a, (t, h) in arrows.items():
            if type(self.tau[a]) is not int or self.tau[a] not in (1, -1):
                raise QuiverSpecError("tau[%r] must be +1 or -1" % a)
            if self.tau[a] * self.tau[self.sigma_arrows[a]] != self.s[t] * self.s[h]:
                raise DualitySignError(
                    "tau_a tau_{sigma(a)} != s_i s_j for arrow %r: %r -> %r" % (a, t, h)
                )

    @staticmethod
    def _partition(ids, sigma):
        """(minus, fixed, plus) of the ids: fixed by sigma, or the lex-smaller
        (plus) or larger (minus) member of a swapped pair; Q0^+ holds the
        smaller so that the module variables live at the textbook side of
        every example."""
        out = ([], [], [])
        for x in ids:
            y = sigma[x]
            out[1 if x == y else 2 if x < y else 0].append(x)
        return tuple(map(tuple, out))

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
        """d as a tuple of one int >= 0 per node; a float, a bool (an int
        subclass) or a string is refused, not truncated."""
        if not (isinstance(d, (tuple, list)) and len(d) == len(self.nodes) and all(type(x) is int and x >= 0 for x in d)):
            raise GradingError("not a dimension vector for this quiver: %r" % (d,))
        return tuple(d)

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

    # The structure data is built on a quiver's first use, not on construction.

    @cached_property
    def adjacency(self):
        """a[i][j] = number of arrows i -> j, a list of lists by node index."""
        n = len(self.nodes)
        a = [[0] * n for _ in range(n)]
        for _, t, h in self.arrows:
            a[self.node_index[t]][self.node_index[h]] += 1
        return a

    @cached_property
    def _arrow_ends(self):
        """(tail, head) indices of every arrow."""
        return tuple((self.node_index[t], self.node_index[h]) for _, t, h in self.arrows)

    @cached_property
    def _sd_terms(self):
        """The four sums of E: (index, s) of the fixed nodes, (sigma(i), i)
        of Q0^+, (head, tau s_head) of the fixed arrows and (sigma(tail),
        head) of Q1^+."""
        idx = self.node_index
        plus_arrows = set(self.arrow_partition[2])
        return (
            tuple((idx[n], self.s[n]) for n in self.q0_sigma),
            tuple((idx[self.sigma_nodes[n]], idx[n]) for n in self.q0_plus),
            tuple((idx[h], self.tau[a] * self.s[h]) for a, t, h in self.arrows if self.sigma_arrows[a] == a),
            tuple((idx[self.sigma_nodes[t]], idx[h]) for a, t, h in self.arrows if a in plus_arrows),
        )

    def euler_form(self, d, dp):
        """chi(d, d') = sum_i d_i d'_i - sum_{a: i->j} d_i d'_j."""
        total = sum(x * y for x, y in zip(d, dp))
        for t, h in self._arrow_ends:
            total -= d[t] * dp[h]
        return total

    def skew_row(self, d):
        """The row r(d) with chi(d, e) - chi(e, d) = r(d).e for every e: an
        arrow t -> h adds d_h at t and takes d_t off at h."""
        row = [0] * len(self.nodes)
        for t, h in self._arrow_ends:
            row[t] += d[h]
            row[h] -= d[t]
        return tuple(row)

    def sd_euler_form(self, d):
        """Self-dual Euler form E(d) (four-sum formula; empty sums give 0)."""
        fixed_nodes, plus_nodes, fixed_arrows, plus_arrows = self._sd_terms
        total = 0
        for i, s in fixed_nodes:
            total += d[i] * (d[i] - s) // 2
        for j, i in plus_nodes:
            total += d[j] * d[i]
        # a fixed arrow sigma(i) -> i contributes d_i (d_i + tau s_i) / 2
        for i, sign in fixed_arrows:
            total -= d[i] * (d[i] + sign) // 2
        for j, i in plus_arrows:
            total -= d[j] * d[i]
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
        a = self.adjacency
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
        a = self.adjacency
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

    @cached_property
    def structure_key(self):
        return (
            self.nodes,
            self.arrows,
            tuple(sorted(self.sigma_nodes.items())),
            tuple(sorted(self.sigma_arrows.items())),
            tuple(sorted(self.s.items())),
            tuple(sorted(self.tau.items())),
        )

    def clear_caches(self):
        """Empty the per-quiver memo (`memoized`) and the process-global
        memos (`shared_memo`, shared with every other quiver); later calls
        recompute what they need, with identical results."""
        self._cache.clear()
        for memo in _SHARED_MEMOS:
            memo.cache_clear()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuiverWithDuality):
            return NotImplemented
        return self.structure_key == other.structure_key

    def __hash__(self):
        return hash(self.structure_key)

    def __reduce__(self):
        # a pickled quiver is its spec: the copy starts with an empty memo
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
    An unreadable file or malformed JSON raises QuiverSpecError.
    """
    if isinstance(doc, QuiverWithDuality):
        return doc
    if isinstance(doc, (str, bytes)):
        text = str(doc)
        try:
            if text.lstrip().startswith("{"):
                doc = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON and Unicode decoding errors are ValueErrors
            raise QuiverSpecError("cannot read a quiver spec: %s" % exc) from None
    if not isinstance(doc, dict):
        raise QuiverSpecError("quiver spec must be a JSON object")
    try:
        nodes = [str(n) for n in doc["nodes"]]
        arrows = [(a["id"], a["tail"], a["head"]) for a in doc.get("arrows", [])]
        sigma_nodes = {str(k): str(v) for k, v in doc["sigma_nodes"].items()}
        sigma_arrows = {str(k): str(v) for k, v in doc.get("sigma_arrows", {}).items()}
        s = {str(k): v for k, v in doc["s"].items()}
        tau = {str(k): v for k, v in doc.get("tau", {}).items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise QuiverSpecError("malformed quiver spec: %s" % exc) from None
    return QuiverWithDuality(nodes, arrows, sigma_nodes, sigma_arrows, s, tau)


# -- stock constructions ----------------------------------------------------


def loop_quiver(m, s=1, tau=None):
    """L_m: one node, m loops, m an int.  tau is a list or tuple of m signs
    (default all -1); anything else raises QuiverSpecError."""
    if type(m) is not int:
        raise QuiverSpecError("L_m needs an int m, not %r" % (m,))
    if tau is None:
        tau = [-1] * m
    if not isinstance(tau, (list, tuple)) or len(tau) != m:
        raise QuiverSpecError("tau must be a list of %d loop signs, not %r" % (m, tau))
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
