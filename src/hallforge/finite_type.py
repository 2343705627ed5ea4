"""Type A root systems with duality and the finite-type CoHA/CoHM structure.

Roots of A_n are intervals [a,b]; the duality sends [a,b] to [n+1-b, n+1-a].
A total order compatible with the Auslander-Reiten quiver (Hom(I_i, I_j) =
0 = Ext^1(I_j, I_i) for i < j) is built by topological sort, with Hom and
Ext^1 between interval modules read off the intervals and the orientation.
The two inequivalent duality structures are tau = -1 with s = +1
(orthogonal) or s = -1 (symplectic); in type A_2n orthogonal and A_2n+1
symplectic every self-dual representation is hyperbolic (h = 0), otherwise
each sigma-fixed root carries a unique self-dual structure (h = 1).

The PBW checks of the algebra and the module run one word engine.  A PBW
product is a word: letters (root, multiplicity m, partition), each the Schur
image of its partition in m parts, acting right to left on a seed.  The
algebra's seed is the unit; the module's is 1^sigma over an admissible set
pi of sigma-fixed roots, and its generator parts are letters of their own
that carry shifted Schur partitions.  One degree law covers both: a word's
degree is the sum of its letter sizes plus the shift chained letter by
letter through step(quiver, d, e) -> (shift, class), which is
(-chi(d, e), d + e) for the product and (`action_degree_shift`, H(d) + e)
for the action.  Each word thus gets the exact budget window // 2 - shift,
and the engine computes exactly the products that land in the weight
window, sharing suffixes through a trie of letters.  The slots alone fix
the chain of classes and the shift, so both are computed once per word,
and each product is filed under the slice its word fixes, not one read
off its terms.  The checks read only ranks, so letters and products are
rows in Schur coordinates (`coha.schur_mul`, `cohm.schur_act`) and no
polynomial is expanded.
"""

from __future__ import annotations

from bisect import insort

from .coha import CohaElement, schur_mul
from .cohm import CohmElement, act_many, action_degree_shift, schur_act
from .errors import GradingError, HallforgeError, QuiverSpecError
from .linalg import rank_of_rows
from .quiver import MAX_PBW_WORDS, MAX_ROOT_PAIRS, QuiverWithDuality
from .series import MODULE, PochhammerFactor, QSeries, check_sizes
from .symfun import _partitions, schur, weight_basis_size  # noqa: F401  (perfbench binds finite_type.schur)


def _node(i):
    return "%02d" % i


def build_typeA(n, orientation, duality_type):
    """Root system of A_n with the involution i -> n+1-i.

    orientation: string of length n-1 over {'>', '<'}; '>' is i -> i+1.
    duality_type: "orthogonal" (s=+1) or "symplectic" (s=-1); tau = -1.
    An n whose ordered root pairs exceed MAX_ROOT_PAIRS (n > 20) raises
    before `ar_order` tabulates them.
    """
    if type(n) is not int:  # a bool is an int subclass: refused too
        raise QuiverSpecError("A_n needs an int n, not %r" % (n,))
    if n < 1:
        raise QuiverSpecError("A_n needs n >= 1, not %d" % n)
    roots = n * (n + 1) // 2
    if roots * (roots - 1) > MAX_ROOT_PAIRS:
        raise HallforgeError(
            "the %d root pairs of A_%d exceed the work cap of %d" % (roots * (roots - 1), n, MAX_ROOT_PAIRS)
        )
    if len(orientation) != max(n - 1, 0) or any(c not in "<>" for c in orientation):
        raise QuiverSpecError("orientation must be %d characters of <>" % (n - 1))
    if duality_type not in ("orthogonal", "symplectic"):
        raise QuiverSpecError("duality_type must be orthogonal or symplectic")
    s = 1 if duality_type == "orthogonal" else -1
    # sigma-stability: the arrow on edge i maps to the arrow on edge n-i
    for i in range(1, n):
        if orientation[i - 1] != orientation[n - i - 1]:
            raise QuiverSpecError(
                "orientation %r is not compatible with sigma(i) = n+1-i" % orientation
            )
    nodes = [_node(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n):
        if orientation[i - 1] == ">":
            arrows.append(("e%02d" % i, _node(i), _node(i + 1)))
        else:
            arrows.append(("e%02d" % i, _node(i + 1), _node(i)))
    sigma_nodes = {_node(i): _node(n + 1 - i) for i in range(1, n + 1)}
    sigma_arrows = {"e%02d" % i: "e%02d" % (n - i) for i in range(1, n)}
    quiver = QuiverWithDuality(
        nodes,
        arrows,
        sigma_nodes,
        sigma_arrows,
        {nd: s for nd in nodes},
        {a: -1 for a, _, _ in arrows},
    )
    return RootSystemA(n, orientation, duality_type, quiver)


class RootSystemA:
    def __init__(self, n, orientation, duality_type, quiver):
        self.n = n
        self.orientation = orientation
        self.duality_type = duality_type
        self.s = 1 if duality_type == "orthogonal" else -1
        self.quiver = quiver
        self.roots = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        self._dims = {(a, b): tuple(int(a <= i <= b) for i in range(1, n + 1)) for a, b in self.roots}
        self.hyperbolic_case = (n % 2 == 0) == (self.s == 1)
        self.h = 0 if self.hyperbolic_case else 1
        self.order = ar_order(self)
        self.position = {r: i for i, r in enumerate(self.order)}
        self.delta_sigma = tuple(r for r in self.order if self.dual_root(r) == r)
        self.delta_minus = tuple(
            r
            for r in self.order
            if self.dual_root(r) != r and self.position[r] < self.position[self.dual_root(r)]
        )
        self.delta_plus = tuple(self.dual_root(r) for r in self.delta_minus)

    # -- root data ----------------------------------------------------------

    def dim_vector(self, root):
        """The dimension vector of a root: 1 on the nodes of its interval."""
        return self._dims[root]

    def dual_root(self, root):
        a, b = root
        return (self.n + 1 - b, self.n + 1 - a)

    def admits_selfdual(self, root):
        if self.dual_root(root) != root:
            raise GradingError("self-dual structures concern sigma-fixed roots")
        return not self.hyperbolic_case

    def simple_roots(self):
        return [r for r in self.order if r[0] == r[1]]

    def support_node(self, root):
        """i(beta): the leftmost node of the interval (dimension one there)."""
        return _node(root[0])

    # -- CoHA/CoHM ingredients ------------------------------------------------

    def unit(self, root, mult=1):
        d = tuple(mult * x for x in self.dim_vector(root))
        return CohaElement.unit(self.quiver, d)

    def psi(self, root, lam, parts):
        """psi(s_lam in `parts` variables) = s_lam(x_{i(beta),1..parts}) in
        Schur coordinates: (its class, its label), the label lam at the
        support node and () elsewhere.  `CohaElement.from_labels` expands
        it."""
        d = tuple(parts * x for x in self.dim_vector(root))
        node = self.support_node(root)
        return d, tuple(lam if n == node else () for n in self.quiver.nodes)


def hom_ext(rs, I, J):
    """(dim Hom, dim Ext^1) between the interval modules I = [a,b] and J = [c,d].

    Hom is one-dimensional when the overlap [e,f] is nonempty, a quotient of
    I (the arrows joining it to the rest of I point out of it) and a
    submodule of J (the arrows joining it to the rest of J point into it),
    and zero otherwise; Ext^1 = dim Hom - chi(dim I, dim J).  chi is the
    overlap's length less the arrows from a node of I to a node of J.  The
    arrows inside the overlap all count, which leaves 1; past it only the
    edge at either end can join I to J, and it counts when its arrow leaves
    I for J.  Adjacent intervals share no node but one such edge, and apart
    ones neither.
    """
    (a, b), (c, d) = I, J
    e, f = max(a, c), min(b, d)
    if e > f + 1:
        return 0, 0
    o = rs.orientation  # o[i - 1] is the arrow between nodes i and i + 1
    right = (b < d and o[f - 1] == ">") or (d < b and o[f - 1] == "<")
    if e > f:
        return 0, int(right)
    left = (a < c and o[e - 2] == ">") or (c < a and o[e - 2] == "<")
    hom = int(
        (e == a or o[e - 2] == "<") and (f == b or o[f - 1] == ">")
        and (e == c or o[e - 2] == ">") and (f == d or o[f - 1] == "<")
    )
    return hom, hom - 1 + left + right


def ar_order(rs):
    """Total order with Hom(I_i, I_j) = 0 = Ext^1(I_j, I_i) for i < j.

    Hom(r, t) != 0 forces t before r and Ext^1(r, t) != 0 forces r before t;
    among the roots whose predecessors are all placed, the smallest goes
    next: Kahn's algorithm, with the ready roots kept sorted.  One Hom/Ext
    table serves the constraints and the validation."""
    roots = rs.roots
    table = {(r, t): hom_ext(rs, r, t) for r in roots for t in roots if r != t}
    after = {r: set() for r in roots}  # the roots that must follow r
    for (r, t), (hom, ext) in table.items():
        if hom:
            after[t].add(r)
        if ext:
            after[r].add(t)
    waiting = dict.fromkeys(roots, 0)  # predecessors not yet placed
    for succ in after.values():
        for t in succ:
            waiting[t] += 1
    ready = [r for r in roots if not waiting[r]]  # ascending, as roots are
    order = []
    while ready:
        pick = ready.pop(0)
        order.append(pick)
        for t in after[pick]:
            waiting[t] -= 1
            if not waiting[t]:
                insort(ready, t)
    if len(order) < len(roots):
        raise HallforgeError("cycle in AR constraints (bug for type A)")
    # validate both vanishing conditions
    for i, r in enumerate(order):
        for t in order[i + 1 :]:
            if table[(r, t)][0] or table[(t, r)][1]:
                raise HallforgeError("AR order violates the vanishing conditions")
    return order


# -- Thom polynomials ---------------------------------------------------------


def thom_polynomial(rs, mults):
    """Ordered fundamental-class product for a self-dual multiplicity vector.

    mults maps roots (a,b) -> nonnegative multiplicity; m_{S(u)} = m_u is
    required, sigma-fixed roots without self-dual structure need even
    multiplicity, and a multiplicity that is not an int raises GradingError.
    """
    if any(type(m) is not int for m in mults.values()):
        raise GradingError("multiplicities must be ints, not %r" % (mults,))
    mults = {tuple(r): m for r, m in mults.items() if m}
    for r, m in mults.items():
        if r not in rs.position:
            raise GradingError("%r is not a root of A_%d" % (r, rs.n))
        if m < 0:
            raise GradingError("negative multiplicity at %r" % (r,))
        if mults.get(rs.dual_root(r), 0) != m:
            raise GradingError("multiplicities are not sigma-symmetric at %r" % (r,))
        if rs.dual_root(r) == r and not rs.admits_selfdual(r) and m % 2:
            raise GradingError(
                "odd multiplicity %d at non-self-dual root %r" % (m, (r,))
            )
    e = [0] * rs.n
    for r in rs.delta_sigma:
        m = mults.get(r, 0)
        for i, x in enumerate(rs.dim_vector(r)):
            e[i] += m * x
    module = CohmElement.unit(rs.quiver, tuple(e))
    factors = [rs.unit(r, mults[r]) for r in rs.delta_minus if mults.get(r)]
    return act_many(factors, module)


# -- quantum dilogarithm identity ------------------------------------------------


def _subsets(items):
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def _module_cases(rs):
    """(name, outer roots in product order, sigma-fixed roots) of the simple
    and the indecomposable side of the module."""
    simple = [r for r in rs.order if r[0] == r[1]]
    return (
        ("simple", [r for r in simple if r in rs.delta_plus][::-1],
         [r for r in simple if r in rs.delta_sigma]),
        ("indecomposable", list(rs.delta_minus), list(rs.delta_sigma)),
    )


def _seeds(rs, sigma_roots):
    """(pi, class of pi) for every set pi of sigma-fixed roots that all carry
    a self-dual structure; the empty set always qualifies."""
    for pi in _subsets(sigma_roots):
        if all(rs.admits_selfdual(b) for b in pi):
            yield pi, tuple(sum(col) for col in zip([0] * rs.n, *map(rs.dim_vector, pi)))


def dilog_identity_check(rs, maxdim, window):
    """Simple-vs-indecomposable wall-crossing identity in the quantum module.

    Each side sums, over the seeds pi of `pbw_check_cohm`, the
    q^2-dilogarithms of the sigma-fixed roots acting on xi^pi, then acts on
    the sum by the dilogarithms of its outer roots in product order.  Every
    action is `PochhammerFactor.char_star`, which divides the acted-on rows
    by the factor's product formula instead of expanding the factor.
    """
    check_sizes(maxdim=maxdim, window=window)
    quiver = rs.quiver
    factors = {}

    def pochhammer(k0, root, base):
        """(q^(k0/2) t^root ; q^base)_inf, described once per check: every
        seed and side reuses it, and its char_star only reads it."""
        key = (k0, root, base)
        if key not in factors:
            factors[key] = PochhammerFactor(quiver, k0, rs.dim_vector(root), maxdim, window, base)
        return factors[key]

    sides = []
    for _, outer_roots, sigma_roots in _module_cases(rs):
        terms = []
        for pi, e in _seeds(rs, sigma_roots):
            term = QSeries.monomial(quiver, MODULE, maxdim, e, 0)
            for b in reversed(sigma_roots):
                # pi-roots carry the odd-indexed tower (q^(1/2)); the rest the
                # generator tower of the fixed-root type: even-indexed
                # (q^(-1/2)) when self-dual structures exist, odd-indexed
                # (q^(1/2)) in the hyperbolic case
                k0 = 1 if b in pi else 1 - 2 * rs.h
                # E_{q^2}(q^(k0/2) t^b) = (q^(k0/2 + 1) t^b ; q^2)_inf
                term = pochhammer(k0 + 2, b, 2).char_star(term)
            terms.append(term)
        total = sum(terms[1:], terms[0])
        for r in reversed(outer_roots):
            # E_q(t^r) = (q^(1/2) t^r ; q)_inf
            total = pochhammer(1, r, 1).char_star(total)
        sides.append(total)
    lhs, rhs = sides
    ok, report = lhs.agrees_with(rhs)
    report["property"] = "dilog-identity"
    report["pass"] = ok
    report["lhs"] = lhs
    report["rhs"] = rhs
    return report


# -- PBW checks --------------------------------------------------------------------


def _root_tuples(rs, roots, bound):
    """Multiplicity tuples over `roots` with the total dim <= bound per node;
    a tuple past the first MAX_PBW_WORDS raises before it is made."""
    out = []
    vecs = [rs.dim_vector(r) for r in roots]

    def rec(i, acc, current):
        if i == len(roots):
            _charge_words(rs, len(out) + 1)
            out.append(tuple(current))
            return
        vec = vecs[i]
        m = 0
        while all(a + m * v <= b for a, v, b in zip(acc, vec, bound)):
            current.append(m)
            rec(i + 1, [a + m * v for a, v in zip(acc, vec)], current)
            current.pop()
            m += 1

    rec(0, [0] * rs.n, [])
    return out


def _charge_words(rs, words):
    """Refuse more than MAX_PBW_WORDS words on one side of a PBW check."""
    if words > MAX_PBW_WORDS:
        raise HallforgeError("the PBW words of one side of A_%d exceed the work cap of %d" % (rs.n, MAX_PBW_WORDS))


def _bucket(buckets, zeros, d, k, row):
    """File a PBW product, a row in Schur coordinates of class d, under its
    slice (d, k); its word fixes k (see `_pbw_report`)."""
    if not row:
        zeros.append(d)
        return
    buckets.setdefault((d, k), []).append(row)


def _slice_report(cls, quiver, buckets, zeros, reached, window, dims):
    """{"pass", "slices"}: (rows, rank, dim) per in-window slice (d, k).

    The check passes when no ordered product vanished and every in-window
    slice has rows == rank == dim.  A nonempty in-window slice of a class in
    `reached` (the classes of the enumerated words, whether or not any of
    their products lands in the window) that no product hit is reported as
    (0, 0, dim) and fails the check.  dims holds one (weight form, slice
    dimensions up to degree window // 2) table per class, which both
    reports of one PBW check share.
    """

    def table(d):
        if d not in dims:
            dims[d] = cls.weight_form(quiver, d), weight_basis_size(cls.blocks(quiver, d), window // 2)
        return dims[d]

    ok = not zeros  # a vanishing ordered product already breaks injectivity
    slices = {}
    for (d, k), rows in sorted(buckets.items()):  # k - form is even and >= 0 (`_pbw_report`)
        form, counts = table(d)
        if k > form + window:
            continue
        rank, dim = rank_of_rows(rows), counts[(k - form) // 2]
        slices[(d, k)] = (len(rows), rank, dim)
        if not len(rows) == rank == dim:
            ok = False
    for d in sorted(reached):
        form, counts = table(d)
        for n, dim in enumerate(counts):  # the slices of odd offset are empty
            if dim and (d, form + 2 * n) not in slices:
                ok = False
                slices[(d, form + 2 * n)] = (0, 0, dim)
    return {"pass": ok, "slices": slices}


def _partitions_upto(budget, max_parts):
    out = []
    for sz in range(budget + 1):
        out.extend(_partitions(sz, max_parts, 1))
    return out


def _shifted_schur_partition(lam, c, odd_indexed):
    """Partition mu with s_mu = the product of c generators x~^{j} of fixed
    parity, j_t = 2(lam_t + c - t) + (1 if odd_indexed)."""
    lam = list(lam) + [0] * (c - len(lam))
    js = [2 * (lam[t] + c - 1 - t) + (1 if odd_indexed else 0) for t in range(c)]
    mu = [js[t] - (c - 1 - t) for t in range(c)]
    return tuple(x for x in mu if x)


def _letter_partitions(m, odd, left):
    """The partitions of size <= left that a letter slot (root, m, odd)
    takes: every partition with at most m parts for a root letter (odd is
    None); for a generator letter, the shifted Schur partitions mu of the
    lam that label the m-fold generator products, |mu| = 2|lam| + m(m-1)/2
    (+ m when odd indexed)."""
    if odd is None:
        return _partitions_upto(left, m)
    return [_shifted_schur_partition(lam, m, odd) for lam in _partitions_upto((left - _least_size(m, odd)) // 2, m)]


def _least_size(m, odd):
    """The smallest letter size of a slot (root, m, odd): 0 for a root
    letter, m(m-1)/2 (+ m when odd indexed) for a generator letter."""
    return 0 if odd is None else m * (m - 1) // 2 + (m if odd else 0)


def _coha_step(quiver, d, e):
    """(degree shift, class) of multiplying H_e by H_d on the left."""
    return -quiver.euler_form(d, e), tuple(a + b for a, b in zip(d, e))


def _cohm_step(quiver, d, e):
    """(degree shift, class) of acting on M_e by H_d."""
    return action_degree_shift(quiver, d, e), tuple(a + b for a, b in zip(quiver.hyperbolic(d), e))


def _pbw_report(rs, cls, act, step, words, bound, window, dims):
    """Slice report of the products of `words` that land in the window.

    A word is (seed, slots): letter slots (root, m, odd) that act right to
    left on the seed, a class whose unit the word starts from, or None for
    the unit of the algebra, which a word starts from its rightmost letter
    instead of multiplying.  A letter (root, lam, m) is the Schur image
    psi(s_lam) in m parts, and act(quiver, d, f, e, g) multiplies rows in
    Schur coordinates (schur_mul or schur_act).  The slots alone fix the
    classes of the word's suffixes and the shift chained by `step` over
    them, so each word within the bound gets the budget window // 2 - shift
    for its letter sizes, and each product lands in the slice k = 2 (sum of
    letter sizes + shift) + weight form of its class.

    Products are shared through a trie of letters per seed: a word walked
    right to left descends one child per letter, and a child's row (its
    letter acting on its parent's row) is computed once, when it is made.
    A letter may use only the budget its left slots do not need for their
    least sizes (`_least_size`), so no dead end computes a product.  Steps,
    letters, letter partitions and weight forms are memoized for the
    report, slice dimensions per class through dims (`_slice_report`).
    """
    quiver = rs.quiver
    buckets, zeros, reached, tries = {}, [], set(), {}
    steps, letters, forms, sized = {}, {}, {}, {}

    def rec(node, j, spare, k):
        """Descend from node, (row, children) of the last j letters acting
        on the seed, with spare the budget beyond the least sizes left."""
        if j == len(slots):
            _bucket(buckets, zeros, chain[-1], k, node[0])
            return
        root, m, odd = slots[-1 - j]
        key = (m, odd, spare)
        if key not in sized:
            least = _least_size(m, odd)
            sized[key] = [(lam, sum(lam), sum(lam) - least) for lam in _letter_partitions(m, odd, spare + least)]
        for lam, size, extra in sized[key]:
            letter = (root, lam, m)
            child = node[1].get(letter)
            if child is None:
                if letter not in letters:
                    letters[letter] = rs.psi(*letter)
                d, label = letters[letter]
                # the unit of the algebra times a letter is the letter
                row = {label: 1} if seed is None and not j else act(quiver, d, {label: 1}, chain[j], node[0])
                child = node[1][letter] = (row, {})
            rec(child, j + 1, spare - extra, k + 2 * size)

    zero = quiver.zero()
    for seed, slots in words:
        e0 = zero if seed is None else seed
        chain, shift, least = [e0], 0, 0  # chain[j]: the class of the last j letters
        for root, m, odd in reversed(slots):
            key = (root, m, chain[-1])
            if key not in steps:
                steps[key] = step(quiver, tuple(m * x for x in rs.dim_vector(root)), chain[-1])
            s, e = steps[key]
            chain.append(e)
            shift += s
            least += _least_size(m, odd)
        e = chain[-1]
        if all(x <= cap for x, cap in zip(e, bound)):
            reached.add(e)
            if window // 2 - shift >= least:
                if e not in forms:
                    forms[e] = cls.weight_form(quiver, e)
                if seed not in tries:
                    tries[seed] = ({tuple(() for _ in cls.blocks(quiver, e0)): 1}, {})
                rec(tries[seed], 0, window // 2 - shift - least, 2 * shift + forms[e])
    return _slice_report(cls, quiver, buckets, zeros, reached, window, dims)


def _pbw_bound(rs, bound, window):
    """The per-node dimension cap of a PBW check as a tuple, after checking
    the input: bound is an int or a tuple of one int per node, all >= 0,
    and window an int >= 0.  `_root_tuples` caps a root only on the nodes
    that the bound covers, so a short tuple would never stop it."""
    caps = (bound,) * rs.n if type(bound) is int else bound
    if type(caps) is not tuple or len(caps) != rs.n or any(type(x) is not int or x < 0 for x in caps):
        raise GradingError("bound must be an int >= 0 or a tuple of %d such ints, not %r" % (rs.n, bound))
    check_sizes(window=window)
    return caps


def _pbw_reports(rs, cls, act, step, sides, bound, window):
    """Each side's `_pbw_report`, sharing slice dimensions; "pass" if both pass."""
    reports, dims = {}, {}
    for name, words in sides.items():
        reports[name] = _pbw_report(rs, cls, act, step, words, bound, window, dims)
    reports["pass"] = reports["simple"]["pass"] and reports["indecomposable"]["pass"]
    return reports


def _slots(roots, tup):
    """Root letter slots of the nonzero multiplicities of tup."""
    return [(r, m, None) for r, m in zip(roots, tup) if m]


def pbw_check_coha(rs, bound, window):
    """Both ordered multiplication maps are graded isomorphisms up to bound.

    bound: per-node dimension cap, an int or a tuple of one int per node,
    all >= 0, and window an int >= 0; any other input raises GradingError
    before any work (`_pbw_bound`).  Checks, per (d, k) with k within the
    window, that the ordered products of root-subalgebra basis
    elements span H_(d,k) in the exact number dim H_(d,k).  The products
    are the words of Schur images over each root tuple, acting on the unit;
    s_lam1 * ... * s_lamr of classes d_1, ..., d_r has degree
    sum |lam_i| - sum_{i<j} chi(d_i, d_j).  Both sides' words are enumerated
    before any product, and a side of more than MAX_PBW_WORDS raises.
    """
    bound = _pbw_bound(rs, bound, window)
    sides = {
        name: [(None, _slots(roots, tup)) for tup in _root_tuples(rs, roots, bound)]
        for name, roots in (("simple", rs.simple_roots()[::-1]), ("indecomposable", list(rs.order)))
    }
    return _pbw_reports(rs, CohaElement, schur_mul, _coha_step, sides, bound, window)


def pbw_check_cohm(rs, bound, window):
    """Both ordered CoHA action maps are graded isomorphisms up to bound.

    For each admissible set pi of self-dual roots the words act on the seed
    1^sigma over pi: the Schur images of the outer roots, then the generator
    letters of the M^(pi) factor.  Per sigma-fixed root beta of multiplicity
    2c (+1 when beta is in pi) a generator letter is the psi-image s_mu of
    the c-fold product of odd-indexed (types B and C) or even-indexed (type
    D) generators.  The degree of a word is the sum of its letter sizes plus
    the chained `action_degree_shift`.  bound and window are checked as in
    `pbw_check_coha`, and so is the word cap, on the outer tuples times the
    multiplicity tuples of each seed.
    """
    bound = _pbw_bound(rs, bound, window)
    sides = {}
    for name, outer_roots, sigma_roots in _module_cases(rs):
        outer = [_slots(outer_roots, tup) for tup in _root_tuples(rs, outer_roots, bound)]
        words = sides[name] = []
        for pi, e in _seeds(rs, sigma_roots):
            inner = _root_tuples(rs, sigma_roots, [(cap - x) // 2 for cap, x in zip(bound, e)])
            _charge_words(rs, len(words) + len(outer) * len(inner))
            for mults in inner:
                gens = [(b, c, b in pi or rs.hyperbolic_case) for b, c in zip(sigma_roots, mults) if c]
                words += [(e, slots + gens) for slots in outer]
    return _pbw_reports(rs, CohmElement, schur_act, _cohm_step, sides, bound, window)
