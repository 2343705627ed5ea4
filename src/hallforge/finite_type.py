"""Type A root systems with duality and the finite-type CoHA/CoHM structure.

Roots of A_n are intervals [a,b]; the duality sends [a,b] to [n+1-b, n+1-a].
A total order compatible with the Auslander-Reiten quiver (Hom(I_i, I_j) =
0 = Ext^1(I_j, I_i) for i < j) is built by topological sort, with Hom and
Ext^1 between interval modules read off the intervals and the orientation.
The two inequivalent duality structures are tau = -1 with s = +1
(orthogonal) or s = -1 (symplectic); in type A_2n orthogonal and A_2n+1
symplectic every self-dual representation is hyperbolic (h = 0), otherwise
each sigma-fixed root carries a unique self-dual structure (h = 1).  The
PBW checks of the algebra and the module share one slice tally.  Both
compute exactly the ordered products that land in the weight window: a
product's degree is the sum of its factors' degrees plus a shift that
depends only on their classes (-chi(d', d'') for the product,
`action_degree_shift` for the action), so each tuple of classes gets its
own degree budget.
"""

from __future__ import annotations

from .coha import CohaElement, shuffle_mul
from .cohm import CohmElement, act_many, action_degree_shift, cohm_action
from .errors import GradingError, HallforgeError, QuiverSpecError
from .linalg import rank_of_rows
from .poly import key_degree
from .quiver import QuiverWithDuality
from .series import MODULE, QSeries, qpochhammer_inf
from .symfun import partitions, schur


def _node(i):
    return "%02d" % i


def build_typeA(n, orientation, duality_type):
    """Root system of A_n with the involution i -> n+1-i.

    orientation: string of length n-1 over {'>', '<'}; '>' is i -> i+1.
    duality_type: "orthogonal" (s=+1) or "symplectic" (s=-1); tau = -1.
    """
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
        a, b = root
        return tuple(1 if a <= i + 1 <= b else 0 for i in range(self.n))

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
        """psi(s_lam in `parts` variables) = s_lam(x_{i(beta),1..parts})."""
        d = tuple(parts * x for x in self.dim_vector(root))
        offsets, nvars = CohaElement.layout(self.quiver, d)
        node = self.support_node(root)
        p = schur(lam, parts, offsets[node], nvars)
        return CohaElement(self.quiver, d, p, check=False)


def hom_ext(rs, I, J):
    """(dim Hom, dim Ext^1) between the interval modules I = [a,b] and J = [c,d].

    Hom is one-dimensional when the overlap [e,f] is nonempty, a quotient of
    I (the arrows joining it to the rest of I point out of it) and a
    submodule of J (the arrows joining it to the rest of J point into it),
    and zero otherwise; Ext^1 = dim Hom - chi(dim I, dim J).
    """
    (a, b), (c, d) = I, J
    e, f = max(a, c), min(b, d)
    o = rs.orientation  # o[i - 1] is the arrow between nodes i and i + 1
    hom = int(
        e <= f
        and (e == a or o[e - 2] == "<") and (f == b or o[f - 1] == ">")
        and (e == c or o[e - 2] == ">") and (f == d or o[f - 1] == "<")
    )
    return hom, hom - rs.quiver.euler_form(rs.dim_vector(I), rs.dim_vector(J))


def ar_order(rs):
    """Total order with Hom(I_i, I_j) = 0 = Ext^1(I_j, I_i) for i < j."""
    roots = rs.roots
    after = {r: set() for r in roots}  # edges r -> s meaning r before s
    for r in roots:
        for t in roots:
            if r == t:
                continue
            hom, ext = hom_ext(rs, r, t)
            if hom:
                after[t].add(r)  # Hom(r,t) != 0 forces t < r
            if ext:
                after[r].add(t)  # Ext^1(r,t) != 0 forces r < t
    order = []
    placed = set()
    while len(order) < len(roots):
        ready = sorted(
            r for r in roots if r not in placed and all(p in placed for p in _preds(after, r))
        )
        if not ready:
            raise HallforgeError("cycle in AR constraints (bug for type A)")
        pick = ready[0]
        order.append(pick)
        placed.add(pick)
    # validate both vanishing conditions
    for i, r in enumerate(order):
        for t in order[i + 1 :]:
            hom, _ = hom_ext(rs, r, t)
            _, ext = hom_ext(rs, t, r)
            if hom or ext:
                raise HallforgeError("AR order violates the vanishing conditions")
    return order


def _preds(after, r):
    """Roots that must precede r."""
    return [p for p, succ in after.items() if r in succ]


# -- Thom polynomials ---------------------------------------------------------


def thom_polynomial(rs, mults):
    """Ordered fundamental-class product for a self-dual multiplicity vector.

    mults maps roots (a,b) -> nonnegative multiplicity; m_{S(u)} = m_u is
    required, and sigma-fixed roots without self-dual structure need even
    multiplicity.
    """
    mults = {tuple(r): int(m) for r, m in mults.items() if m}
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


def _eq(quiver, root_vec, maxdim, window):
    """E_q(t^alpha) = (q^(1/2) t^alpha ; q)_inf in the quantum torus."""
    return qpochhammer_inf(quiver, "torus", 1, root_vec, maxdim, window)


def _eq2(quiver, k0, root_vec, maxdim, window):
    """E_{q^2}(q^(k0/2) t^alpha) = (q^(k0/2 + 1) t^alpha ; q^2)_inf."""
    return qpochhammer_inf(quiver, "torus", k0 + 2, root_vec, maxdim, window, base=2)


def _subsets(items):
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def dilog_identity_check(rs, maxdim, window):
    """Simple-vs-indecomposable wall-crossing identity in the quantum module."""
    quiver = rs.quiver
    pi_plus = [r for r in rs.order if r[0] == r[1] and r in rs.delta_plus]
    pi_sigma = [r for r in rs.order if r[0] == r[1] and r in rs.delta_sigma]
    one_mod = QSeries.one(quiver, MODULE, maxdim)

    def gate(pi):
        return all(rs.admits_selfdual(b) for b in pi)

    def side(outer_roots, outer_reversed, sigma_roots):
        total = None
        for pi in _subsets(sigma_roots):
            if not gate(pi):
                continue
            evec = [0] * rs.n
            for b in pi:
                for i, x in enumerate(rs.dim_vector(b)):
                    evec[i] += x
            term = QSeries.monomial(quiver, MODULE, maxdim, tuple(evec), 0)
            factors = []
            for b in sigma_roots:
                # pi-roots carry the odd-indexed tower (q^(1/2)); the rest the
                # generator tower of the fixed-root type: even-indexed
                # (q^(-1/2)) when self-dual structures exist, odd-indexed
                # (q^(1/2)) in the hyperbolic case
                k0 = 1 if b in pi else 1 - 2 * rs.h
                factors.append(_eq2(quiver, k0, rs.dim_vector(b), maxdim, window))
            for f in reversed(factors):
                term = f.char_star(term)
            total = term if total is None else total + term
        if total is None:
            total = one_mod
        ordered = list(outer_roots)
        if outer_reversed:
            ordered = ordered[::-1]
        for r in reversed(ordered):
            total = _eq(quiver, rs.dim_vector(r), maxdim, window).char_star(total)
        return total

    # LHS: simple side, slopes decrease left to right (AR-largest first)
    lhs = side(pi_plus, True, pi_sigma)
    # RHS: indecomposable side, AR-increasing order
    rhs = side(rs.delta_minus, False, rs.delta_sigma)
    ok, report = lhs.agrees_with(rhs)
    report["property"] = "dilog-identity"
    report["pass"] = ok
    report["lhs"] = lhs
    report["rhs"] = rhs
    return report


# -- PBW checks --------------------------------------------------------------------


def _root_tuples(rs, roots, bound):
    """Multiplicity tuples over `roots` with the total dim <= bound per node."""
    out = []

    def rec(i, acc, current):
        if i == len(roots):
            out.append(tuple(current))
            return
        vec = rs.dim_vector(roots[i])
        m = 0
        while all(a + m * v <= b for a, v, b in zip(acc, vec, bound)):
            current.append(m)
            rec(i + 1, [a + m * v for a, v in zip(acc, vec)], current)
            current.pop()
            m += 1

    rec(0, [0] * rs.n, [])
    return out


def _bucket(buckets, zeros, elem):
    """File a PBW product under its slice (d, k).

    A PBW product is a product of homogeneous factors, so it is homogeneous
    and one term gives its degree.
    """
    if elem.is_zero():
        zeros.append(elem.degree)
        return
    deg = key_degree(next(iter(elem.poly.terms)))
    k = 2 * deg + elem.weight_form(elem.quiver, elem.degree)
    buckets.setdefault((elem.degree, k), []).append(elem.poly.terms)


def _slice_report(cls, quiver, buckets, zeros, reached, window):
    """{"pass", "slices"}: (rows, rank, dim) per in-window slice (d, k).

    The check passes when no ordered product vanished and every in-window
    slice has rows == rank == dim.  A nonempty in-window slice of a class in
    `reached` (the classes of the enumerated root tuples, whether or not any
    of their products lands in the window) that no product hit is reported
    as (0, 0, dim) and fails the check.
    """
    ok = not zeros  # a vanishing ordered product already breaks injectivity
    slices = {}
    for (d, k), rows in sorted(buckets.items()):
        if k > cls.weight_form(quiver, d) + window:
            continue
        rank, dim = rank_of_rows(rows), cls.slice_dim(quiver, d, k)
        slices[(d, k)] = (len(rows), rank, dim)
        if not len(rows) == rank == dim:
            ok = False
    for d in sorted(reached):
        lo = cls.weight_form(quiver, d)
        for k in range(lo, lo + window + 1):
            dim = cls.slice_dim(quiver, d, k)
            if dim and (d, k) not in slices:
                ok = False
                slices[(d, k)] = (0, 0, dim)
    return {"pass": ok, "slices": slices}


def _active(rs, roots, tup):
    """(root, multiplicity, dimension vector) of the nonzero entries of tup."""
    return [
        (roots[i], m, tuple(m * x for x in rs.dim_vector(roots[i])))
        for i, m in enumerate(tup)
        if m
    ]


def pbw_check_coha(rs, bound, window):
    """Both ordered multiplication maps are graded isomorphisms up to bound.

    bound: per-node dimension cap (int or tuple).  Checks, per (d, k) with k
    within the window, that the ordered products of root-subalgebra basis
    elements span H_(d,k) in the exact number dim H_(d,k).

    A product s_lam1 * ... * s_lamr of classes d_1, ..., d_r has degree
    sum |lam_i| - sum_{i<j} chi(d_i, d_j), so each root tuple enumerates
    exactly the partitions whose product lands in the window (degree at
    most window // 2).
    """
    if isinstance(bound, int):
        bound = (bound,) * rs.n
    quiver = rs.quiver
    reports = {}
    for name, roots in (
        ("simple", rs.simple_roots()[::-1]),
        ("indecomposable", list(rs.order)),
    ):
        buckets, zeros, reached = {}, [], set()
        memo = {}

        def prefix_product(key):
            """Cached left product over ((root, mult, lam), ...) data."""
            if key in memo:
                return memo[key]
            root, m, lam = key[-1]
            f = rs.psi(root, lam, m)
            out = f if len(key) == 1 else shuffle_mul(prefix_product(key[:-1]), f)
            memo[key] = out
            return out

        for tup in _root_tuples(rs, roots, bound):
            active = _active(rs, roots, tup)
            dims = [d for _, _, d in active]
            reached.add(tuple(sum(col) for col in zip(quiver.zero(), *dims)))
            budget = window // 2 + sum(
                quiver.euler_form(a, b) for i, a in enumerate(dims) for b in dims[i + 1 :]
            )

            def rec(j, key, budget):
                if j == len(active):
                    product = prefix_product(key) if key else CohaElement.unit(quiver)
                    _bucket(buckets, zeros, product)
                    return
                root, m, _ = active[j]
                for lam in _partitions_upto(budget, m):
                    rec(j + 1, key + ((root, m, lam),), budget - sum(lam))

            if budget >= 0:
                rec(0, (), budget)
        reports[name] = _slice_report(CohaElement, quiver, buckets, zeros, reached, window)
    reports["pass"] = reports["simple"]["pass"] and reports["indecomposable"]["pass"]
    return reports


def _partitions_upto(budget, max_parts):
    out = []
    for sz in range(budget + 1):
        out.extend(partitions(sz, max_parts))
    return out


def _module_generators(rs, sigma_roots, pi, mults, budget):
    """Basis data of the M^(pi) factor at generator multiplicities `mults`:
    pairs (CoHA factor list, sum of |mu|) with sum |mu| <= budget.

    Per sigma-fixed root beta: multiplicity 2c (+1 when beta is in pi); the
    CoHA part is the psi-image s_mu of the c-fold product of odd-indexed
    (types B and C) or even-indexed (type D) generators, acting on 1^sigma
    over the sum of the pi roots.  |mu| = 2|lam| + c(c-1)/2 (+ c when odd
    indexed) for the partition lam that labels the product.
    """
    combos = [([], 0)]
    for b, c in zip(sigma_roots, mults):
        if not c:
            continue
        odd_indexed = b in pi or rs.hyperbolic_case
        least = c * (c - 1) // 2 + (c if odd_indexed else 0)  # |mu| at lam = ()
        new = []
        for factors, used in combos:
            for lam in _partitions_upto((budget - used - least) // 2, c):
                mu = _shifted_schur_partition(lam, c, odd_indexed)
                new.append((factors + [rs.psi(b, mu, c)], used + sum(mu)))
        combos = new
    return combos


def _shifted_schur_partition(lam, c, odd_indexed):
    """Partition mu with s_mu = the product of c generators x~^{j} of fixed
    parity, j_t = 2(lam_t + c - t) + (1 if odd_indexed)."""
    lam = list(lam) + [0] * (c - len(lam))
    js = [2 * (lam[t] + c - 1 - t) + (1 if odd_indexed else 0) for t in range(c)]
    mu = [js[t] - (c - 1 - t) for t in range(c)]
    return tuple(x for x in mu if x)


def _chained_shift(quiver, active, e):
    """(degree shift, self-dual degree) of acting on M_e by the classes of
    active (from `_active`), right to left."""
    shift = 0
    for _, _, d in reversed(active):
        shift += action_degree_shift(quiver, d, e)
        e = tuple(a + b for a, b in zip(quiver.hyperbolic(d), e))
    return shift, e


def pbw_check_cohm(rs, bound, window):
    """Both ordered CoHA action maps are graded isomorphisms up to bound.

    For each set pi of self-dual roots and generator multiplicities c, the
    products of Schur images of the outer roots acting on the generator part
    base are enumerated exactly when they land in the window: the degree of
    f_1 * ... * f_r * base is sum |lam_i| + deg(base) plus the chained
    `action_degree_shift` S_outer, and deg(base) = sum |mu| + S_gen.  The
    generator budget for sum |mu| uses the smallest S_outer of the outer
    tuples that fit the bound (0 for the empty tuple).
    """
    if isinstance(bound, int):
        bound = (bound,) * rs.n
    quiver = rs.quiver
    top = window // 2
    reports = {}
    cases = (
        ("simple", [r for r in rs.order if r[0] == r[1] and r in rs.delta_plus][::-1],
         [r for r in rs.order if r[0] == r[1] and r in rs.delta_sigma]),
        ("indecomposable", list(rs.delta_minus), list(rs.delta_sigma)),
    )
    for name, outer_roots, sigma_roots in cases:
        buckets, zeros, reached = {}, [], set()

        def rec(active, j, suffix, left):
            """Act on suffix by Schur images of active[j], ..., active[0]
            with sum |lam| <= left, and file the products."""
            if j < 0:
                _bucket(buckets, zeros, suffix)
                return
            root, m, _ = active[j]
            for lam in _partitions_upto(left, m):
                rec(active, j - 1, cohm_action(rs.psi(root, lam, m), suffix), left - sum(lam))

        outer_tuples = [_active(rs, outer_roots, t) for t in _root_tuples(rs, outer_roots, bound)]
        for pi in _subsets(sigma_roots):
            if not all(rs.admits_selfdual(b) for b in pi):
                continue
            evec = [0] * rs.n
            for b in pi:
                for i, x in enumerate(rs.dim_vector(b)):
                    evec[i] += x
            seed = CohmElement.unit(quiver, tuple(evec))
            half_caps = [(cap - x) // 2 for cap, x in zip(bound, evec)]
            for mults in _root_tuples(rs, sigma_roots, half_caps):
                s_gen, e0 = _chained_shift(quiver, _active(rs, sigma_roots, mults), seed.e)
                outer = []
                for active in outer_tuples:
                    s_outer, e = _chained_shift(quiver, active, e0)
                    if all(x <= cap for x, cap in zip(e, bound)):
                        outer.append((active, s_outer))
                        reached.add(e)
                least_outer = min(s for _, s in outer)
                for mfactors, mu_size in _module_generators(
                    rs, sigma_roots, pi, mults, top - s_gen - least_outer
                ):
                    base = act_many(mfactors, seed)
                    for active, s_outer in outer:
                        budget = top - mu_size - s_gen - s_outer
                        if budget >= 0:
                            rec(active, len(active) - 1, base, budget)
        reports[name] = _slice_report(CohmElement, quiver, buckets, zeros, reached, window)
    reports["pass"] = reports["simple"]["pass"] and reports["indecomposable"]["pass"]
    return reports
