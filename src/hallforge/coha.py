"""Cohomological Hall algebra engine.

Elements of degree d are Weyl-invariant polynomials in the variables
x_{i,1..d_i}; the product is the Kontsevich-Soibelman shuffle sum with kernel
prod_{a: i->j} prod (x''_{j,b} - x'_{i,a}) / prod_i prod (x''_{i,b} - x'_{i,a}),
the push-forward of one integrand: the arrow numerators on one slot layout
times the sign (-1)^(sum d1 d2), built once per quiver and class pair by
`_mul_integrand` (no denominator is ever formed).  `schur_mul` pushes it
by straightening (`symfun._push`), shifted by lead monomials, into Schur
coordinates ({label: coeff}, one partition per node) from rows of basis
labels; `shuffle_mul` is `graded.element_product`, the push of its
operands' rows, the row expanded.
Cohomological weight of a homogeneous element is 2*deg + chi(d, d).
CohaElement is the graded layer of `graded` with a GL block on every node,
the variable prefix x and the weight form chi(d, d).

The primitive quotients only need ranks, so they stay in Schur
coordinates: `schur_mul` multiplies basis elements, sigma_d s_lam is a
Pieri step and S_H moves each partition to its sigma image with the sign
(-1)^|lam|.  The stored complement bases of V^prim are label lists too.

The quotients read only the span of their image products (the ideal
echelon's rows may change, its span and so its pivot positions may not),
so the image steps skip the products that three facts make redundant:
the CoHA of a symmetric quiver is supercommutative up to a sign of the
classes (`_coha_plan` keeps the pairs with 2|a| < |d|, or 2|a| = |d| and
a <= d - a), S_H is an anti-involution (`_ideal_echelon` moves the ideal
of sigma(d) onto that of d for sigma(d) < d), and the module relation
S_H(f) g = +-f g (`cohm._cohm_plan` keeps the pairs with sigma(a) <= a).
"""

from __future__ import annotations

from operator import add

from .errors import HallforgeError, SymmetryError
from .graded import GradedElement, PrimitiveTable, check_quotient_slices, element_product
from .linalg import Echelon, complement
from .poly import SHIFT, expand_factors
from .quiver import QuiverWithDuality, memoized
from .series import (
    SignedInvariantTable,
    check_sizes,
    dt_series,
    invert_pochhammer_factorization,
    sign_pow,
)
from .symfun import Integrand, _push, add_box, block_cuts


class CohaElement(GradedElement):
    """Dimension vector d plus an S_d-invariant polynomial in x_{i,1..d_i}."""

    __slots__ = ()
    prefix = "x"
    d = GradedElement.degree  # the degree slot, under its CoHA name
    check_degree = staticmethod(QuiverWithDuality.check_dim)

    @staticmethod
    def blocks(quiver, d):
        return [(n, "GL", d[i]) for i, n in enumerate(quiver.nodes)]

    @staticmethod
    def weight_form(quiver, d):
        return quiver.euler_form(d, d)

    # entries of this class, so that one side's JSON boundary can be wrapped
    # on its own (perfbench/tracer.py)
    to_json_dict = GradedElement.to_json_dict
    from_json_dict = GradedElement.__dict__["from_json_dict"]


# -- the shuffle product ------------------------------------------------------


@memoized("coha_integrand")
def _mul_integrand(quiver, d1, d2):
    """The `symfun.Integrand` of the product H_d1 x H_d2 -> H_(d1+d2),
    cached per quiver, with no fixed node.  x'_{n,a} sits at slot
    offsets[n] + a and x''_{n,b} after the d1_n slots of x'; K = prod_{a:
    t->h} prod (x''_{h,b} - x'_{t,a'}) the arrow numerators, expanded by
    `poly.expand_factors`, and sign = (-1)^length, the push's length
    sum_n d1_n d2_n."""
    idx = quiver.node_index
    d = tuple(a + b for a, b in zip(d1, d2))
    offsets, nvars = CohaElement.layout(quiver, d)
    mid = {n: offsets[n] + d1[idx[n]] for n in quiver.nodes}
    factors = [
        (0, ((1 << SHIFT * (mid[h] + b), 1), (1 << SHIFT * (offsets[t] + a), -1)), 1)
        for _, t, h in quiver.arrows
        for b in range(d2[idx[h]])
        for a in range(d1[idx[t]])
    ]
    length = sum(a * b for a, b in zip(d1, d2))
    (total,) = expand_factors(nvars, (sign_pow(length),), factors)
    fside = tuple((offsets[n], d1[idx[n]], 1, 0, 1) for n in quiver.nodes), {}
    gside = tuple((mid[n], d2[idx[n]], 1, 0, 1) for n in quiver.nodes), {}
    return Integrand(total, None, fside, gside, (), block_cuts([(offsets[n], d[idx[n]]) for n in quiver.nodes]), None, length)


def shuffle_mul(f, g):
    """Kontsevich-Soibelman shuffle product of CoHA elements, the push of
    `schur_mul` from their Schur coordinates (`graded.element_product`).
    This is the shuffle sum only for Weyl invariant f and g, which
    CohaElement(check=True) and from_json_dict enforce."""
    return element_product(CohaElement, f, g, tuple(map(add, f.d, g.degree)), _mul_integrand)


# -- the product in Schur coordinates -------------------------------------------


def schur_mul(quiver, d1, f, d2, g):
    """The shuffle product of f in H_d1 and g in H_d2, in Schur coordinates
    ({label: coeff}, a label one partition per node).

    Each node's push is partial_w0 of its block after the lead monomials:
    for S_d1 x S_d2 invariant P, the push along the Grassmannian is
    partial_w0(x'^delta x''^delta P), and x'^delta s_lam(x') can be traded
    for x'^(lam + delta) because partial_w0 factors through the Levi's.  So
    the product is one pass from labels to labels, with no polynomial
    built: the cached integrand's terms times x'^(lam + delta) x''^(mu +
    delta), straightened block by block (`symfun._push`)."""
    return _push(_mul_integrand(quiver, d1, d2), f, g)


def s_label(quiver, label):
    """S_H of a Schur basis element: (sign, label), the partition of node n
    moved to sigma(n) and sign (-1)^(total size)."""
    out = [None] * len(label)
    for n, lam in zip(quiver.nodes, label):
        out[quiver.node_index[quiver.sigma_nodes[n]]] = lam
    return sign_pow(sum(map(sum, label))), tuple(out)


def s_involution(f):
    """S_H(f): degree sigma(d), substitution x_{i,j} -> -x_{sigma(i),j}."""
    quiver = f.quiver
    return f.relabel(CohaElement, quiver, quiver.sigma_dim(f.d), quiver.sigma_nodes.get, -1)


# -- DT invariants and primitive parts ------------------------------------------


def dt_invariants(quiver, maxdim, window):
    """Pochhammer-factorization exponents of A_Q (symmetric quivers)."""
    check_sizes(maxdim=maxdim, window=window)
    if not quiver.is_symmetric():
        raise SymmetryError("DT invariants need a symmetric quiver")
    return invert_pochhammer_factorization(dt_series(quiver, maxdim, window))


def image_echelon(quiver, plan, slice_labels, act, k, labels):
    """Echelon of the weight-k span of act(quiver, a, {c: 1}, rest, {b: 1})
    with c in generator_complement(quiver, a, k1) and b in
    slice_labels(quiver, rest, k - k1), over (a, rest, chi_a, form_rest) in
    the class's plan and chi_a <= k1 <= k - form_rest, k1 - chi_a even
    (an odd offset is an empty slice of H_a): the CoHA ideal
    H_+ . H_+ (schur_mul, chi, `_coha_plan`) and the CoHM image H_+ . M
    (cohm.schur_act, E, `cohm._cohm_plan`).  Rows are in Schur coordinates,
    filed on the positions of the target slice's labels.

    The complement V_a costs the products of the CoHA ideal of its slice,
    which pay only while the target slice does not fill, so it is computed
    lazily.  A step (a, k1) whose complement is in the memo, or with |a| <=
    1 (V_a = H_a), acts with it.  Any other step acts with the whole slice
    H_(a,k1) and counts the actions that add no rank; once a label b brings
    that count to len(H_(a,k1)), the step asks for V_a, unless the target
    slice is spanned, and acts with it on the remaining b.  The span of the
    whole plan is the same either way: H_a = V_a + I_a with I_a the ideal
    slice, and I_a . M_rest lies in the products H_c M with |c| < |a|,
    which the plan's span holds (the inductions of `_coha_plan` and
    `cohm._cohm_plan`).

    Every product lies in the target slice, so rank <= len(labels); once
    the echelon spans the slice, every later product would reduce to zero,
    and neither a later product nor a complement is computed.  A slice the
    products do not fill gets the whole span; the pivots depend on the span
    alone (`linalg`), so ranks and complements are those of acting with
    every V_a."""
    ech = Echelon(labels)
    dim = len(labels)
    for a, rest, chi_a, form_rest in plan:
        known = generator_complement if sum(a) <= 1 else _known_complement
        for k1 in range(chi_a, k - form_rest + 1, 2):
            if ech.rank == dim:
                return ech
            gens = known(quiver, a, k1)
            idle = None  # while acting with the whole slice: its actions that added no rank
            if gens is None:
                gens, idle = CohaElement.slice_labels(quiver, a, k1), 0
            if not gens:
                continue
            for b in slice_labels(quiver, rest, k - k1):
                for c in gens:
                    if ech.rank == dim:
                        return ech
                    if not ech.add(act(quiver, a, {c: 1}, rest, {b: 1})) and idle is not None:
                        idle += 1
                if idle is not None and idle >= len(gens):
                    if ech.rank == dim:
                        return ech
                    gens, idle = generator_complement(quiver, a, k1), None
                    if not gens:
                        break
    return ech


@memoized("coha_plan")
def _coha_plan(quiver, d):
    """The pairs of the CoHA image steps of class d: (a, rest, chi(a, a),
    chi(rest, rest)) for the (a, rest) of quiver.decompositions(d, |d| // 2),
    in its order.  None of it depends on the weight k.

    The pairs with 2|a| > |d|, and those with 2|a| = |d| and a > d - a,
    add nothing to the span.  The CoHA of a symmetric quiver is
    supercommutative up to a sign that depends only on the classes
    (Kontsevich-Soibelman 2011, 2.6; Efimov 2012), so V_a H_b, b = d - a,
    lies in H_b H_a, and H_b = V_b + sum_c H_c H_(b-c) puts that in
    V_b H_a + sum_c V_c H_(d-c) over nonzero c with |c| < |b| (induction
    on |c|).  For 2|a| > |d| all of these pairs have |b|, |c| < |d| / 2;
    for 2|a| = |d| and a > b, (b, a) is a middle pair with b < a, kept,
    and every |c| < |d| / 2.  The echelon files other rows than the full
    plan would, but they span the same space."""
    pairs = [(a, rest) for a, rest in quiver.decompositions(d, sum(d) // 2) if 2 * sum(a) < sum(d) or a <= rest]
    return [(a, rest, quiver.euler_form(a, a), quiver.euler_form(rest, rest)) for a, rest in pairs]


@memoized("coha_ideal")
def _ideal_echelon(quiver, d, k):
    """Echelon of the slice of sum_{a+b=d} H_a H_b inside H_(d,k).

    For sigma(d) < d no product is formed: S_H is an anti-involution of the
    CoHA, so it maps the ideal of sigma(d) onto that of d, and chi(sigma d,
    sigma d) = chi(d, d) keeps the weight.  The pivot rows of the partner's
    slice, moved through `s_label`, span this one."""
    if not quiver.is_symmetric():
        raise SymmetryError("primitive parts are computed for symmetric quivers")
    labels = CohaElement.slice_labels(quiver, d, k)
    sd = quiver.sigma_dim(d)
    if sd >= d:
        return image_echelon(quiver, _coha_plan(quiver, d), CohaElement.slice_labels, schur_mul, k, labels)
    partner = _ideal_echelon(quiver, sd, k)
    moved = [s_label(quiver, lab) for lab in partner.labels]
    ech = Echelon(labels)
    for row in partner.pivots.values():
        ech.add({moved[i][1]: moved[i][0] * v for i, v in row.items()})
    return ech


@memoized("coha_complement")
def generator_complement(quiver, d, k):
    """Deterministic basis of a complement of the product-ideal slice in
    H_(d,k), as slice labels; its span maps isomorphically onto
    V_(d,k) = H/(H_+ . H_+)."""
    labels = CohaElement.slice_labels(quiver, d, k)
    if CohaElement.slice_degree(quiver, d, k) is None or sum(d) <= 1:
        return labels
    return complement(_ideal_echelon(quiver, d, k), labels)


# the memo reader, bound here so that a wrapper over the public name (a
# counting test, perfbench/tracer.py) leaves image_echelon's lookups alone
_known_complement = generator_complement.cached


def _times_power_sum(quiver, d, label):
    """sigma_d s_label, sigma_d the sum of all variables: by Pieri, the
    labels with one box added at one node."""
    row = {}
    for i, lam in enumerate(label):
        for mu in add_box(lam, d[i]):
            row[label[:i] + (mu,) + label[i + 1 :]] = 1
    return row


def primitive_basis(quiver, d, k):
    """Basis of a complement of (product ideal + sigma_d * V_(d,k-2)) inside
    H_(d,k), as slice labels; its span maps isomorphically onto
    V^prim_(d,k); not memoized, as `primitive_dims` asks for each once."""
    deg = CohaElement.slice_degree(quiver, d, k)
    if deg is None:
        return []
    labels = CohaElement.slice_labels(quiver, d, k)
    probe = _ideal_echelon(quiver, d, k).copy() if sum(d) > 1 else Echelon(labels)
    if deg > 0:
        for c in generator_complement(quiver, d, k - 2):
            if probe.rank == len(labels):  # the span is the whole slice
                break
            probe.add(_times_power_sum(quiver, d, c))
    return complement(probe, labels)


def primitive_dims(quiver, maxdim, window):
    """dim V^prim_(d,k): slice dimension minus the rank of the product ideal
    plus the power-sum tower (V = V^prim (x) Q[sigma_d]).  The classes are
    the tasks of `PrimitiveTable.build` (a process pool when HALLFORGE_THREADS > 1)."""
    check_sizes(maxdim=maxdim, window=window)
    if not quiver.is_symmetric():
        raise SymmetryError("primitive dims need a symmetric quiver")
    if not quiver.supercommutativity_criterion():
        raise SymmetryError("supercommutativity criterion fails; twist not implemented")
    classes = [d for d in quiver.dimension_vectors(maxdim) if any(d)]
    return PrimitiveTable.build(quiver, "torus", CohaElement, primitive_basis, classes, window, maxdim)


def _plus_dim(quiver, d, k):
    """dim of the +1 eigenspace of S_H on V_(d,k) = H_(d,k)/ideal, for
    sigma(d) = d.  S_H is an anti-automorphism, so it preserves the ideal; it
    is an involution, so that eigenspace is the image of 1 + S_H, spanned
    modulo the ideal by c + S_H(c) over the complement basis."""
    gens = generator_complement(quiver, d, k)
    if not gens:
        return 0
    ech = _ideal_echelon(quiver, d, k).copy() if sum(d) > 1 else Echelon(CohaElement.slice_labels(quiver, d, k))
    rank = 0
    for c in gens:
        sign, image = s_label(quiver, c)
        row = {c: 1}
        row[image] = row.get(image, 0) + sign
        rank += ech.add({lab: v for lab, v in row.items() if v})
    return rank


def equivariant_dt(quiver, e_target, maxdim, window):
    """Z2-equivariant DT invariants Omega~^(+-) for the twist class e_target.

    Loop quivers use the parity dichotomy applied to dt_invariants; otherwise
    the twisted involution (-1)^(chi(e,d)+E(d)) S_H acts on the primitive
    quotient and the +-/- eigenspace dimensions are reported per H(d)-class.
    A pair d != sigma(d) contributes dim V^prim_(d,k) to both signs.  For
    sigma(d) = d only ranks are computed: the +1 eigenspace of S_H on
    V_(d,k) is the image of 1 + S_H (`_plus_dim`), and V = V^prim (x)
    Q[sigma_d] with S_H(sigma_d) = -sigma_d gives the primitive split.
    """
    check_sizes(maxdim=maxdim, window=window)
    if not quiver.is_sigma_symmetric():
        raise SymmetryError("equivariant DT invariants need a sigma-symmetric quiver")
    e_target = quiver.check_selfdual_dim(e_target)
    if len(quiver.nodes) == 1:
        return loop_equivariant_dt(quiver, e_target, maxdim, dt_invariants(quiver, maxdim // 2, window))

    entries = {}
    seen = set()
    validity = {}
    # |H(d)| = 2|d|, so |H(d)| <= maxdim is |d| <= maxdim // 2
    classes = [d for d in quiver.dimension_vectors(maxdim // 2) if any(d)]
    check_quotient_slices(len(classes), window)
    for d in classes:
        h = quiver.hyperbolic(d)
        sd = quiver.sigma_dim(d)
        if (sd, d) in seen:
            continue
        seen.add((d, sd))
        chi = quiver.euler_form(d, d)
        top = chi + window
        if h in validity:
            validity[h] = min(validity[h], top)
        else:
            validity[h] = top
        eps = sign_pow(quiver.euler_form(e_target, d) + quiver.sd_euler_form(d))
        for k in range(chi, chi + window + 1, 2):  # odd offsets are empty
            r_k = len(generator_complement(quiver, d, k))
            r_k2 = len(generator_complement(quiver, d, k - 2))
            p_k = r_k - r_k2
            if p_k < 0:
                raise HallforgeError("power-sum tower is not free at %r" % (d,))
            if not p_k:
                continue
            if sd == d:
                # V_(d,k) = V^prim_(d,k) + sigma_d V_(d,k-2) with S_H(sigma_d) =
                # -sigma_d, so the +1 eigenspace of the tower part is the -1
                # eigenspace of V_(d,k-2), of dimension r_{k-2} - plus_{k-2}
                nplus = _plus_dim(quiver, d, k) + _plus_dim(quiver, d, k - 2) - r_k2
                if not 0 <= nplus <= p_k:
                    raise HallforgeError(
                        "eigenspace dimension %d outside [0, %d] at %r" % (nplus, p_k, (d, k))
                    )
                nminus = p_k - nplus
                if eps < 0:
                    nplus, nminus = nminus, nplus
            else:
                nplus = nminus = p_k
            plus, minus = entries.get((h, k), (0, 0))
            entries[(h, k)] = (plus + nplus, minus + nminus)
    return SignedInvariantTable(quiver, entries, maxdim, validity)


def loop_equivariant_dt(quiver, e_target, maxdim, table):
    """`equivariant_dt` of a loop quiver read off its DT invariants, `table`
    = dt_invariants(quiver, maxdim // 2, window), by the parity dichotomy;
    e_target is a checked self-dual dimension vector.  Callers with several
    targets (`loop_factorization`) share one table."""
    entries, validity = {}, {}
    for d, hi in table.validity.items():
        h = quiver.hyperbolic(d)
        if any(d) and sum(h) <= maxdim:
            validity[h] = hi
    for (d, k), m in table.entries.items():
        h = quiver.hyperbolic(d)
        if sum(h) > maxdim:
            continue
        chi_ed = quiver.euler_form(e_target, d)
        par = (chi_ed + quiver.sd_euler_form(d) + (k - quiver.euler_form(d, d)) // 2) % 2
        plus, minus = entries.get((h, k), (0, 0))
        if par == 0:
            plus += m
        else:
            minus += m
        entries[(h, k)] = (plus, minus)
    return SignedInvariantTable(quiver, entries, maxdim, validity)
