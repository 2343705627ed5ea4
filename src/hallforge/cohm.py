"""Cohomological Hall module engine.

Module elements of self-dual degree e are polynomials in z_{i,1..e_i} for
i in Q0^+ and z_{i,1..floor(e_i/2)} for i in Q0^sigma, invariant under the
product of symmetric groups on the GL blocks and of hyperoctahedral groups
(signed permutations) on the fixed-node blocks.  The CoHA action is the
sigma-shuffle sum with the localization kernel: denominators D_i from the
isotropic flag tangent spaces (with the type B/C/D factor g_i at fixed
nodes), numerators V_a per arrow of Q1^+ and Q1^sigma.  That sum is a
push-forward along an isotropic flag, so it is computed as the numerators at
the identity sigma-shuffle followed by type-A and hyperoctahedral
divided-difference operators per node; no denominator is ever formed.  At
the identity shuffle x'_{i,j} -> z_{i,j}, z''_{i,j} -> z_{i,d_i+j} and
x'_{sigma(i),j} -> -z_{i,d_i+e_i+j} on the Q0^+ blocks.

Weight of a homogeneous element is 2*deg + E(e); for sigma-symmetric quivers
the action is weight additive.  CohmElement is the graded layer of `graded`
with GL blocks on Q0^+ and BCD blocks on Q0^sigma, the variable prefix z and
the weight form E(e).
"""

from __future__ import annotations

from .coha import (
    CohaElement,
    equivariant_dt,
    image_echelon,
    s_involution,
    shuffle_mul,
)
from .errors import GradingError, HallforgeError, SymmetryError
from .graded import GradedElement, PrimitiveTable
from .linalg import complement
from .poly import Poly
from .quiver import QuiverWithDuality
from .series import (
    InvariantTable,
    MODULE,
    QSeries,
    module_classes,
    ori_dt_series,
    pochhammer_q2_product,
    sign_pow,
)


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


def cohm_slice_basis(quiver, e, k):
    return CohmElement.slice_basis(quiver, e, k)


# -- the sigma-shuffle action ------------------------------------------------------


def _fixed_node_type(quiver, node, component):
    """B/C/D per the duality sign and the parity of the target component."""
    if quiver.s[node] == -1:
        return "C"
    return "B" if component % 2 else "D"


def cohm_action(f, g):
    """f * g: the sigma-shuffle action of H_d on M_e, as divided differences.

    The sigma-shuffle sum is a push-forward along an isotropic flag.  The
    integrand F * G * K is built once at the identity sigma-shuffle: f on
    x'_{i,l} at slot l of node i's target block, x'_{sigma(i),m} -> -z at
    the tail of a Q0^+ block, g on the slots between, and K the arrow
    numerators of Q1^+ and Q1^sigma with the epsilon parities.  Then each
    node pushes its block forward:

    - i in Q0^+ with blocks (d_i, e_i, d_sigma(i)): `Poly.shuffle_push` for
      (d_i, e_i), then for (d_i + e_i, d_sigma(i)), and the sign
      (-1)^(d_i e_i + d_i d_sigma(i) + e_i d_sigma(i));
    - i in Q0^sigma with D = d_i slots y and m = e_i // 2 slots z: the
      B_D / S_D push (for k = 0..D-1, `Poly.flip` at the last y-slot, then
      divided differences at y-slots D-2 down to k), then `shuffle_push`
      for (D, m) in squared variables, and the scalar (-1)^(D(D+1)/2),
      times 2^D for types B and D.  Type D has no short roots in its Weyl
      denominator, so it first multiplies by prod(-y_l).

    No denominator is formed.  This equals the sigma-shuffle sum only when f
    is S_d invariant and g is Weyl invariant, which the element constructors
    (check=True) and from_json_dict enforce.
    """
    if f.quiver != g.quiver:
        raise HallforgeError("elements over different quivers")
    quiver = f.quiver
    idx = quiver.node_index
    d, e = f.d, g.e
    et = tuple(a + b for a, b in zip(quiver.hyperbolic(d), e))
    off, nvars = CohmElement.layout(quiver, et)
    if f.is_zero() or g.is_zero():
        return CohmElement(quiver, et, Poly.zero(nvars), check=False)
    fixed = set(quiver.q0_sigma)
    # signed target slots of x'_{i,l} and z''_{i,k} at the identity shuffle
    xp, zs, gmap = {}, {}, []
    for n in quiver.nodes:
        if n not in off:
            continue  # a Q0^- node lives at the tail of its partner's block
        sn, o, dn = quiver.sigma_nodes[n], off[n], d[idx[n]]
        cnt = e[idx[n]] // 2 if n in fixed else e[idx[n]]
        for l in range(dn):
            xp[(n, l)] = (1, o + l)
        for k in range(cnt):
            zs[(n, k)] = (1, o + dn + k)
            zs[(sn, k)] = (1 if sn == n else -1, o + dn + k)
            gmap.append((1, o + dn + k))
        if sn != n:
            for m in range(d[idx[sn]]):
                xp[(sn, m)] = (-1, o + dn + cnt + m)

    def xs(n):
        return [xp[(n, l)] for l in range(d[idx[n]])]

    fmap = [x for n in quiver.nodes for x in xs(n)]
    total = f.poly.map_variables(nvars, fmap) * g.poly.map_variables(nvars, gmap)

    def lin(u, v):
        """times u - v, for signed slots u = (sign, slot)"""
        nonlocal total
        total = total.mul_linear(u[0], u[1], -v[0], v[1])

    def square(u, v):
        """times u^2 - v^2"""
        nonlocal total
        total = total.mul_linear(1, u[1], -1, v[1]).mul_linear(1, u[1], 1, v[1])

    def mono(c, u):
        """times c * u"""
        nonlocal total
        total = total.mul_linear(c * u[0], u[1])

    def neg(u):
        return (-u[0], u[1])

    def v_tilde(i, points, gl):
        """times V~^(i) against the signed slots `points`; gl(x, z)
        multiplies in its factor when i is not fixed"""
        cnt = e[idx[i]] // 2 if i in fixed else e[idx[i]]
        for x in points:
            for k in range(cnt):
                (square if i in fixed else gl)(x, zs[(i, k)])
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

    sign = 1
    for n in quiver.q0_plus:
        o, dn, en = off[n], d[idx[n]], e[idx[n]]
        dsn = d[idx[quiver.sigma_nodes[n]]]
        total = total.shuffle_push(o, dn, en).shuffle_push(o, dn + en, dsn)
        if (dn * en + dn * dsn + en * dsn) % 2:
            sign = -sign
    for n in quiver.q0_sigma:
        o, D = off[n], d[idx[n]]
        typ = _fixed_node_type(quiver, n, et[idx[n]])
        if typ == "D":
            for l in range(D):
                total = total.mul_linear(-1, o + l)
        for k in range(D):
            total = total.flip(o + D - 1)
            for i in range(D - 2, k - 1, -1):
                total = total.divided_difference(o + i)
        total = total.shuffle_push(o, D, e[idx[n]] // 2, step=2)
        if D * (D + 1) // 2 % 2:
            sign = -sign
        if typ != "C":
            sign <<= D
    return CohmElement(quiver, et, total.scale(sign), check=False)


def action_degree_shift(quiver, d, e):
    """deg(f * g) - deg f - deg g for nonzero homogeneous f in H_d, g in M_e.

    `cohm_action` multiplies in linear factors and then applies operators
    that each lower the degree by a fixed amount, so the shift depends on
    (d, e) alone and can have either sign.  In degrees, the twisted weight
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


def _wprim_slice(quiver, e, k):
    """(rank of the action-image slice, complement basis) at (e, k)."""
    key = ("wprim_slice", e, k)
    cached = quiver._cache.get(key)
    if cached is not None:
        return cached
    # H(d) <= e gives |d| <= |e| // 2
    pairs = quiver.decompositions(e, sum(e) // 2, quiver.hyperbolic)
    ech = image_echelon(quiver, pairs, cohm_slice_basis, CohmElement.weight_form, cohm_action, k)
    rank = ech.rank  # before complement() extends ech
    cached = (rank, complement(ech, cohm_slice_basis(quiver, e, k)))
    quiver._cache[key] = cached
    return cached


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
    terms = {
        (d, k): c for (d, k), c in series.terms.items()
        if series.quiver.witt_class(d) == wclass
    }
    meta = {d: m for d, m in series.meta.items() if series.quiver.witt_class(d) == wclass}
    return QSeries(series.quiver, series.kind, series.maxdim, terms, meta)


def _table_from_series(series):
    """Read an invariant table off a rendered series (integer check)."""
    from .errors import NonIntegralError

    entries = {}
    for (d, k), c in series.terms.items():
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
    for w in classes:
        erep = witt_representative(quiver, w)
        sig = equivariant_dt(quiver, erep, maxdim, window)
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
    """A^sigma_Q = sum_e A_Q(e) Omega^sigma_{Q,e} xi^e, coefficientwise."""
    if not quiver.is_sigma_symmetric():
        raise SymmetryError("factorization check needs a sigma-symmetric quiver")
    asigma = ori_dt_series(quiver, maxdim, window)
    wtab = ori_dt_invariants(quiver, maxdim, window)
    rhs = QSeries(quiver, MODULE, maxdim, {}, {})
    acache = {}
    table = wtab.table()
    by_class = {}
    for (e, k), m in table.entries.items():
        by_class.setdefault(e, {})[k] = m
    for e in module_classes(quiver, maxdim):
        lau = by_class.get(e)
        if not lau:
            continue
        par = tuple(x % 2 for x in e)
        if par not in acache:
            acache[par] = pochhammer_q2_product(
                equivariant_dt(quiver, witt_representative(quiver, quiver.witt_class(e)), maxdim, window),
                maxdim,
                window,
            )
        factor = QSeries(
            quiver, MODULE, maxdim,
            {(e, k): m * sign_pow(k) for k, m in lau.items()},
            {e: (min(lau), table.validity.get(e))},
        )
        rhs = rhs + acache[par].cmul(factor)
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
        for k in range(ee, ee + window + 1):
            dim = CohmElement.slice_dim(quiver, e, k)
            if dim == 0:
                continue
            rank, comp = _wprim_slice(quiver, e, k)
            if rank + len(comp) != dim:
                slice_ok = False
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
