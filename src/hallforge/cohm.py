"""Cohomological Hall module engine.

Module elements of self-dual degree e are polynomials in z_{i,1..e_i} for
i in Q0^+ and z_{i,1..floor(e_i/2)} for i in Q0^sigma, invariant under the
product of symmetric groups on the GL blocks and of hyperoctahedral groups
(signed permutations) on the fixed-node blocks.  The CoHA action is the
sigma-shuffle sum with the localization kernel: denominators D_i from the
isotropic flag tangent spaces (with the type B/C/D factor g_i at fixed
nodes), numerators V_a per arrow of Q1^+ and Q1^sigma.  That sum is a
push-forward along an isotropic flag of one integrand: the numerators at
the identity sigma-shuffle times the scalar sign of the pushes, built once
per quiver and class pair by `_act_integrand` (no denominator is ever
formed).  A push is linear over
the polynomials invariant under its Weyl group (the projection formula), so
a fixed node's factors y^2 - z^2 against its own slots are returned apart,
as the deferred factors, and wait until its hyperoctahedral push is done.
At the identity shuffle x'_{i,j} -> z_{i,j}, z''_{i,j} -> z_{i,d_i+j} and
x'_{sigma(i),j} -> -z_{i,d_i+e_i+j} on the Q0^+ blocks.  `schur_act`
pushes it by straightening, shifted by lead monomials, into Schur
coordinates from rows of basis labels (`symfun._push`, as the CoHA
product); `cohm_action` is `graded.element_product`, the push of its
operands' rows, the row expanded.

Weight of a homogeneous element is 2*deg + E(e); for sigma-symmetric quivers
the action is weight additive.  CohmElement is the graded layer of `graded`
with GL blocks on Q0^+ and BCD blocks on Q0^sigma, the variable prefix z and
the weight form E(e).

The W^prim quotient reads only ranks, so its action image stays in Schur
coordinates (`schur_act`).  The image step reads only the span of H_+ . M,
so it leaves out the factors a with sigma(a) > a: by the module relation
S_H(f) g = +-f g they act with the image of their sigma partners
(`_cohm_plan`).
"""

from __future__ import annotations

from operator import add

from .coha import (
    CohaElement,
    dt_invariants,
    equivariant_dt,
    image_echelon,
    loop_equivariant_dt,
    s_involution,
    shuffle_mul,
)
from .errors import GradingError, NonIntegralError, SymmetryError
from .graded import GradedElement, PrimitiveTable, element_product
from .linalg import complement
from .poly import SHIFT, expand_factors
from .quiver import QuiverWithDuality, memoized
from .series import (
    InvariantTable,
    MODULE,
    QSeries,
    module_classes,
    ori_dt_series,
    pochhammer_q2_product,
    sign_pow,
)
from .symfun import Integrand, _push, block_cuts, weight_basis_size


class CohmElement(GradedElement):
    """Self-dual degree e plus a Weyl-invariant polynomial in z_{i,1..e_i}
    (i in Q0^+) and z_{i,1..floor(e_i/2)} (i in Q0^sigma)."""

    __slots__ = ()
    prefix = "z"
    e = GradedElement.degree  # the degree slot, under its CoHM name
    check_degree = staticmethod(QuiverWithDuality.check_selfdual_dim)
    weight_form = staticmethod(QuiverWithDuality.sd_euler_form)

    @staticmethod
    def blocks(quiver, e):
        minus = quiver.q0_minus  # a Q0^- node lives in its partner's block
        return [
            (n, "BCD", e[i] // 2) if quiver.sigma_nodes[n] == n else (n, "GL", e[i])
            for i, n in enumerate(quiver.nodes)
            if n not in minus
        ]

    # entries of this class, so that one side's JSON boundary can be wrapped
    # on its own (perfbench/tracer.py)
    to_json_dict = GradedElement.to_json_dict
    from_json_dict = GradedElement.__dict__["from_json_dict"]


# -- the sigma-shuffle action ------------------------------------------------------


def _fixed_node_type(quiver, node, component):
    """B/C/D per the duality sign and the parity of the target component."""
    if quiver.s[node] == -1:
        return "C"
    return "B" if component % 2 else "D"


@memoized("cohm_integrand")
def _act_integrand(quiver, d, e):
    """The `symfun.Integrand` of the action H_d x M_e -> M_(H(d)+e) at the
    identity sigma-shuffle, cached per quiver: the f side covers every
    node, the g side the blocks of M_e, and the push's length is d_i e_i +
    (d_i + e_i) d_sigma(i) per Q0^+ node and D(D + 1)/2 + D m per fixed
    node.

    A type D node's factor prod y_l is not in K: it is the shift of that
    node's f lead slots.  K holds the arrow numerators of Q1^+ and
    Q1^sigma.  The sign is that of the pushes: (-1)^(d_i e_i + d_i
    d_sigma(i) + e_i d_sigma(i)) per Q0^+ node, and per fixed node
    (-1)^(D(D+1)/2), times 2^D for types B and D and (-1)^D for type D
    (prod(-y_l) = (-1)^D prod y_l).  A fixed node's factors y^2 - z^2
    against its own slots are W(B_D) invariant, so they are left out of K
    and wait for the end of its B_D / S_D push: the deferred prod (u_y -
    v_z), u = y^2 and v = z^2 on the slots of y and z.  K and the deferred
    product are expanded together, by one `poly.expand_factors` pass over
    their factors in the order listed."""
    idx = quiver.node_index
    et = tuple(a + b for a, b in zip(quiver.hyperbolic(d), e))
    off, nvars = CohmElement.layout(quiver, et)
    fixed = set(quiver.q0_sigma)
    sign, length, fslots, gslots, masks, blocks = 1, 0, [], [], [], []
    # signed target slots of x'_{i,l} and z''_{i,k} at the identity shuffle
    xp, zs = {}, {}
    for n in quiver.nodes:
        sn, dn = quiver.sigma_nodes[n], d[idx[n]]
        if n not in off:  # x'_n -> -z at the tail of the Q0^+ partner's block
            fslots.append((off[sn] + d[idx[sn]] + e[idx[sn]], dn, 1, 0, -1))
            continue
        o, shift = off[n], 0
        if n in fixed:
            cnt, typ = e[idx[n]] // 2, _fixed_node_type(quiver, n, et[idx[n]])
            length += dn * (dn + 1) // 2 + dn * cnt
            sign *= sign_pow(dn * (dn + 1) // 2 + (typ == "D") * dn)
            if typ != "C":
                sign <<= dn
            if typ == "D":
                shift = 1
            masks.append((SHIFT * o, (1 << (SHIFT * (dn + cnt))) - 1, dn, cnt))
            gslots.append((o + dn, cnt, 2, 0, 1))
            blocks.append((o, dn + cnt))
        else:
            cnt, dsn = e[idx[n]], d[idx[sn]]
            flips = dn * cnt + (dn + cnt) * dsn
            length, sign = length + flips, sign * sign_pow(flips)
            gslots.append((o + dn, cnt, 1, 0, 1))
            blocks.append((o, dn + cnt + dsn))
            for m in range(dsn):
                xp[(sn, m)] = (-1, o + dn + cnt + m)
        fslots.append((o, dn, 1, shift, 1))
        for l in range(dn):
            xp[(n, l)] = (1, o + l)
        for k in range(cnt):
            zs[(n, k)] = (1, o + dn + k)
            zs[(sn, k)] = (1 if sn == n else -1, o + dn + k)

    def xs(n):
        return [xp[(n, l)] for l in range(d[idx[n]])]

    factors = []  # (0 for K or 1 for the deferred product, terms, step)

    def lin(u, v):
        """times u - v, for signed slots u = (sign, slot)"""
        factors.append((0, ((1 << SHIFT * u[1], u[0]), (1 << SHIFT * v[1], -v[0])), 1))

    def mono(c, u):
        """times c * u"""
        factors.append((0, ((1 << SHIFT * u[1], c * u[0]),), 1))

    def neg(u):
        return (-u[0], u[1])

    def v_tilde(i, points, gl):
        """times V~^(i) against the signed slots `points`; gl(x, z)
        multiplies in its factor when i is not fixed.  Against a fixed
        node's own slots the factors x^2 - z^2 are deferred."""
        cnt = e[idx[i]] // 2 if i in fixed else e[idx[i]]
        own = i in fixed and points == xs(i)
        for x in points:
            for k in range(cnt):
                z = zs[(i, k)]
                if own:
                    factors.append((1, ((1 << SHIFT * x[1], 1), (1 << SHIFT * z[1], -1)), 1))
                elif i in fixed:
                    factors.append((0, ((2 << SHIFT * x[1], 1), (2 << SHIFT * z[1], -1)), 2))
                else:
                    gl(x, z)
            if i in fixed and e[idx[i]] % 2:
                mono(-1, x)

    plus_arrows = set(quiver.arrow_partition[2])
    for aid, t, h in quiver.arrows:
        if quiver.sigma_arrows[aid] == aid:
            # fixed arrow sigma(h) -> h
            x = xs(t)
            v_tilde(h, x, lambda u, z: lin(z, u))
            strict = quiver.s[h] * quiver.tau[aid] == -1
            for j in range(len(x)):
                if not strict:
                    mono(-2, x[j])
                for k in range(j + 1, len(x)):
                    lin(neg(x[j]), x[k])
        elif aid in plus_arrows:
            # V~^(t) against x'_{sigma(h)}, V~^(h) against x'_t, then the
            # double product
            y = xs(quiver.sigma_nodes[h])
            v_tilde(t, y, lambda u, z: lin(neg(u), z))
            v_tilde(h, xs(t), lambda u, z: lin(z, u))
            for u in y:
                for x in xs(t):
                    lin(neg(u), x)

    total, deferred = expand_factors(nvars, (sign, 1), factors)
    fside, gside = (tuple(fslots), {}), (tuple(gslots), {})
    parity = None
    if masks:
        ymask, groups = sum(1 << (shift + SHIFT * j) for shift, _, dn, _ in masks for j in range(dn)), {}
        for k, c in total.terms.items():
            groups.setdefault(k & ymask, []).append((k, c))
        parity = ymask, groups
    return Integrand(total, deferred, fside, gside, masks, block_cuts(blocks), parity, length)


def cohm_action(f, g):
    """f * g, the sigma-shuffle action of H_d on M_e, the push of
    `schur_act` from their Schur coordinates (`graded.element_product`).
    This is the sigma-shuffle sum only for S_d invariant f and Weyl
    invariant g, which the element constructors (check=True) and
    from_json_dict enforce."""
    return element_product(CohmElement, f, g, tuple(map(add, f.quiver.hyperbolic(f.d), g.degree)), _act_integrand)


# -- the action in Schur coordinates -------------------------------------------------


def schur_act(quiver, d, f, e, g):
    """The action of f in H_d on g in M_e, in Schur coordinates ({label:
    coeff}: f over the nodes, g and the result over the blocks of
    CohmElement): the cached `_act_integrand`, pushed by `symfun._push`
    from the lead monomials of f and g."""
    return _push(_act_integrand(quiver, d, e), f, g)


def action_degree_shift(quiver, d, e):
    """deg(f * g) - deg f - deg g for nonzero homogeneous f in H_d, g in M_e.

    `cohm_action` multiplies in linear factors and then pushes along a
    flag, which lowers the degree by a fixed amount, so the shift depends
    on (d, e) alone and can have either sign.  In degrees, the twisted weight
    law w(f * g) = w(f) + w(g) - gamma(d, e) reads
    2 shift = chi(d, d) + E(e) - E(H(d) + e) - gamma(d, e).
    """
    target = tuple(a + b for a, b in zip(quiver.hyperbolic(d), e))
    twice = (
        quiver.euler_form(d, d)
        + quiver.sd_euler_form(e)
        - quiver.sd_euler_form(target)
        - quiver.star_twist(d, e)
    )
    return twice // 2


def act_many(factors, g):
    """(f_1 ... f_r) * g computed right to left."""
    out = g
    for f in reversed(list(factors)):
        out = cohm_action(f, out)
    return out


# -- orientifold invariants -------------------------------------------------------


@memoized("cohm_plan")
def _cohm_plan(quiver, e):
    """`coha._coha_plan` of the CoHM image steps of class e: H(a) <= e, so
    |a| <= |e| // 2, and the form of rest is E.

    The pairs with sigma(a) > a add nothing to the span, so they are left
    out; this needs a sigma-symmetric quiver.  There the module relation
    S_H(f) g = +-f g gives H_sigma(a) M_rest = H_a M_rest, and an induction
    on |a| covers the dropped generators: H_a = V_a + sum_c H_c H_(a-c),
    and H_c H_(a-c) M_rest lies in H_c M with |c| < |a|.

    Either half of each sigma pair spans the same image; this one is the
    cheaper, as its generator complements need fewer CoHA ideal slices
    (14 instead of 40 on (A1~ tau=+1, 12, 30)): `ori_dt_invariants` forms
    182 instead of 329 `schur_mul` there and 56 instead of 75 on (A1~, 7,
    16), with the same `schur_act` count, while (q3(1), 8, 16) forms 1278
    instead of 1256 `schur_act`."""
    if not quiver.is_sigma_symmetric():
        raise SymmetryError("the W^prim image steps need a sigma-symmetric quiver")
    pairs = quiver.decompositions(e, sum(e) // 2, quiver.hyperbolic)
    return [
        (a, rest, quiver.euler_form(a, a), quiver.sd_euler_form(rest))
        for a, rest in pairs
        if quiver.sigma_dim(a) <= a
    ]


@memoized("wprim_slice")
def _wprim_slice(quiver, e, k):
    """(rank of the action-image slice, complement labels) at (e, k)."""
    plan = _cohm_plan(quiver, e)
    labels = CohmElement.slice_labels(quiver, e, k)
    # image_echelon stops once the image spans the slice (rank == len(labels)),
    # and complement() then returns []
    ech = image_echelon(quiver, plan, CohmElement.slice_labels, schur_act, k, labels)
    return ech.rank, complement(ech, labels)


def _wprim_basis(quiver, e, k):
    return _wprim_slice(quiver, e, k)[1]


def ori_dt_invariants(quiver, maxdim, window):
    """W^prim dims per (e,k): slice dimension minus the CoHA-action image rank.
    The classes are the tasks of `PrimitiveTable.build` (a process pool when
    HALLFORGE_THREADS > 1)."""
    if not quiver.is_sigma_symmetric():
        raise SymmetryError("orientifold DT invariants need a sigma-symmetric quiver")
    classes = module_classes(quiver, maxdim)
    return PrimitiveTable.build(quiver, MODULE, CohmElement, _wprim_basis, classes, window, maxdim)


# -- identity checks ---------------------------------------------------------------


def check_module_relation(f, g):
    """S_H(f) * g = (-1)^(chi(e,d) + E(d)) f * g (sigma-symmetric quivers)."""
    quiver = f.quiver
    if not quiver.is_sigma_symmetric():
        raise SymmetryError("module relation needs a sigma-symmetric quiver")
    sign = sign_pow(quiver.euler_form(g.e, f.d) + quiver.sd_euler_form(f.d))
    lhs = cohm_action(s_involution(f), g)
    rhs = cohm_action(f, g).scale(sign)
    return {
        "pass": lhs == rhs,
        "sign": sign,
        "lhs": lhs,
        "rhs": rhs,
    }


def witt_decompose(quiver, elements):
    """Partition CohmElements by Witt class; verifies class admissibility."""
    out = {}
    for x in elements:
        w = quiver.witt_class(x.e)
        for n, wi in zip(quiver.q0_sigma, w):
            if wi == 1 and quiver.s[n] == -1:
                raise GradingError("odd class at symplectic node %r" % n)
        out.setdefault(w, []).append(x)
    return out


def _restrict_to_witt(series, wclass):
    witt = series.quiver.witt_class
    rows = {d: row for d, row in series.rows.items() if witt(d) == wclass}
    meta = {d: m for d, m in series.meta.items() if witt(d) == wclass}
    return QSeries(series.quiver, series.kind, series.maxdim, rows, meta)


def _table_from_series(series):
    """Read an invariant table off a rendered series (integer check)."""
    entries = {}
    for (d, k), c in series.sorted_entries():
        m = c * sign_pow(k)
        if m.denominator != 1:
            raise NonIntegralError("non-integer multiplicity %s at %r" % (c, (d, k)))
        entries[(d, k)] = int(m)
    validity = {d: hi for d, (lo, hi) in series.meta.items()}
    return InvariantTable(series.quiver, series.kind, entries, validity, series.maxdim)


def witt_representative(quiver, wclass):
    """Smallest admissible self-dual class with the given fixed-node parities."""
    e = [0] * len(quiver.nodes)
    for n, wi in zip(quiver.q0_sigma, wclass):
        e[quiver.node_index[n]] = wi
    return quiver.check_selfdual_dim(tuple(e))


def loop_factorization(quiver, maxdim, window, quotient_window=None):
    """Per Witt class: A^sigma|_w = A~_w * Omega^sigma|_w, solved for Omega.

    Returns {witt class: {"atilde", "omega", "table", "consistent"}}.  When
    quotient_window is given, `consistent` compares the division route
    against the W^prim quotient route on the quotient windows.
    """
    if len(quiver.nodes) != 1:
        raise GradingError("loop_factorization expects a loop quiver")
    asigma = ori_dt_series(quiver, maxdim, window)
    qtab = None
    if quotient_window is not None:
        qtab = ori_dt_invariants(quiver, maxdim, quotient_window).table()
    out = {}
    classes = [(0,)] if quiver.s[quiver.nodes[0]] == -1 else [(0,), (1,)]
    dt = dt_invariants(quiver, maxdim // 2, window)  # shared by the Witt classes
    for w in classes:
        sig = loop_equivariant_dt(quiver, witt_representative(quiver, w), maxdim, dt)
        atilde = pochhammer_q2_product(sig, maxdim, window)
        part = _restrict_to_witt(asigma, w)
        omega = part.cmul(atilde.inverse())
        table = _table_from_series(omega)
        consistent = None
        if qtab is not None:
            expected = {
                k: v for k, v in qtab.entries.items() if quiver.witt_class(k[0]) == w
            }
            got = {
                k: v
                for k, v in table.entries.items()
                if qtab.validity.get(k[0]) is not None and k[1] <= qtab.validity[k[0]]
            }
            consistent = got == expected
        out[w] = {
            "atilde": atilde,
            "omega": omega,
            "table": table,
            "consistent": consistent,
        }
    return out


def general_factorization_check(quiver, maxdim, window):
    """A^sigma_Q = sum_e A_Q(e) Omega^sigma_{Q,e} xi^e, coefficientwise, with
    one product per Witt class w, as A_Q(e) depends only on w."""
    if not quiver.is_sigma_symmetric():
        raise SymmetryError("factorization check needs a sigma-symmetric quiver")
    asigma = ori_dt_series(quiver, maxdim, window)
    wtab = ori_dt_invariants(quiver, maxdim, window)
    rhs = QSeries(quiver, MODULE, maxdim, {}, {})
    table = wtab.table()
    by_class = {}
    for (e, k), m in table.entries.items():
        by_class.setdefault(e, {})[k] = m
    groups = {}  # Witt class -> (rows, windows) of its Omega
    for e in module_classes(quiver, maxdim):
        lau = by_class.get(e)
        if lau:
            rows, meta = groups.setdefault(quiver.witt_class(e), ({}, {}))
            rows[e] = [(k, m * sign_pow(k)) for k, m in sorted(lau.items())]
            meta[e] = (min(lau), table.validity.get(e))
    for w, (rows, meta) in groups.items():
        sig = equivariant_dt(quiver, witt_representative(quiver, w), maxdim, window)
        rhs = rhs + pochhammer_q2_product(sig, maxdim, window).cmul(QSeries(quiver, MODULE, maxdim, rows, meta))
    ok, report = asigma.agrees_with(rhs)
    report["property"] = "factorization"
    report["pass"] = ok
    return report


def check_freeness(quiver, maxdim, window):
    """Numerical check of the freeness conjecture: the W^prim quotient data
    rebuilt through the equivariant Sym factors reproduces A^sigma, and every
    slice decomposes as image + complement."""
    if not quiver.supercommutativity_criterion():
        raise SymmetryError("freeness check requires the supercommutativity criterion")
    report = general_factorization_check(quiver, maxdim, window)
    slice_ok = True
    for e in module_classes(quiver, maxdim):
        ee = quiver.sd_euler_form(e)
        # one count table per class; the slices of odd offset are empty
        for n, dim in enumerate(weight_basis_size(CohmElement.blocks(quiver, e), window // 2)):
            if dim:
                rank, comp = _wprim_slice(quiver, e, ee + 2 * n)
                slice_ok &= rank + len(comp) == dim
    report["property"] = "freeness"
    report["slice_surjectivity"] = slice_ok
    report["pass"] = report["pass"] and slice_ok
    return report


# -- disjoint union -----------------------------------------------------------------


def embed_left(qsq, quiver, f):
    """H_Q -> H_{Q^sq} supported on the 1: side."""
    d = [0] * len(qsq.nodes)
    for n in quiver.nodes:
        d[qsq.node_index["1:%s" % n]] = f.d[quiver.node_index[n]]
    return f.relabel(CohaElement, qsq, tuple(d), lambda n: "1:" + n)


def embed_right_op(qsq, quiver, f):
    """H_Q^op -> H_{Q^sq} on the 2: side; the transpose twist is x -> -x."""
    d = [0] * len(qsq.nodes)
    for n in quiver.nodes:
        d[qsq.node_index["2:%s" % n]] = f.d[quiver.node_index[n]]
    return f.relabel(CohaElement, qsq, tuple(d), lambda n: "2:" + n, -1)


def module_of(qsq, quiver, f):
    """The vector space identification M_{Q^sq, H(d)} = H_{Q,d}."""
    e = [0] * len(qsq.nodes)
    for n in quiver.nodes:
        e[qsq.node_index["1:%s" % n]] = f.d[quiver.node_index[n]]
        e[qsq.node_index["2:%s" % n]] = f.d[quiver.node_index[n]]
    return f.relabel(CohmElement, qsq, tuple(e), lambda n: "1:" + n)


def check_disjoint_union(quiver, triples):
    """(f1 (x) f3) * f2 = f1 f2 f3 under M_{Q^sq} = H_Q, plus the E identity.

    triples: iterable of (f1, f2, f3) CohaElements of the base quiver.
    """
    from .quiver import disjoint_double

    qsq = disjoint_double(quiver)
    failures = []
    for f1, f2, f3 in triples:
        lhs = cohm_action(
            shuffle_mul(embed_left(qsq, quiver, f1), embed_right_op(qsq, quiver, f3)),
            module_of(qsq, quiver, f2),
        )
        rhs = module_of(qsq, quiver, shuffle_mul(shuffle_mul(f1, f2), f3))
        if lhs != rhs:
            failures.append((f1, f2, f3, lhs, rhs))
    return {"pass": not failures, "failures": failures, "quiver_sq": qsq}


def check_sd_euler_disjoint(quiver, pairs):
    """E_{Q^sq}(U1 + S(U2)) = chi_Q(U2, U1) on dimension vectors."""
    from .quiver import disjoint_double

    qsq = disjoint_double(quiver)
    bad = []
    for d1, d2 in pairs:
        vec = [0] * len(qsq.nodes)
        for n in quiver.nodes:
            vec[qsq.node_index["1:%s" % n]] = d1[quiver.node_index[n]]
            vec[qsq.node_index["2:%s" % n]] = d2[quiver.node_index[n]]
        if qsq.sd_euler_form(tuple(vec)) != quiver.euler_form(d2, d1):
            bad.append((d1, d2))
    return {"pass": not bad, "failures": bad}
