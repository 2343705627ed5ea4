"""Cohomological Hall algebra engine.

Elements of degree d are Weyl-invariant polynomials in the variables
x_{i,1..d_i}; the product is the Kontsevich-Soibelman shuffle sum with kernel
prod_{a: i->j} prod (x''_{j,b} - x'_{i,a}) / prod_i prod (x''_{i,b} - x'_{i,a}),
computed as the arrow numerator followed by one divided-difference operator
per node (no denominator is ever formed).
Cohomological weight of a homogeneous element is 2*deg + chi(d, d).
CohaElement is the graded layer of `graded` with a GL block on every node,
the variable prefix x and the weight form chi(d, d).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GradingError, HallforgeError, SymmetryError
from .graded import GradedElement, PrimitiveTable
from .linalg import Echelon, complement
from .poly import Poly
from .quiver import QuiverWithDuality
from .series import (
    SignedInvariantTable,
    dt_series,
    invert_pochhammer_factorization,
    sign_pow,
)


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


# -- shuffle product ----------------------------------------------------------


def shuffle_mul(f, g):
    """Kontsevich-Soibelman shuffle product of CoHA elements.

    The shuffle sum at a node is a push-forward along a partial flag, hence
    one divided-difference operator.  With f on the first d1 slots of each
    node block, g on the last d2 and the arrow kernel
    K = prod_{a: t->h} prod (x''_{h,b} - x'_{t,a'}), each node applies
    `Poly.shuffle_push` to its block (the divided differences at block slots
    j, j+1, ..., j+d2-1 for j = d1-1 down to 0) and a sign (-1)^(d1*d2).
    This equals the shuffle sum only when f and g are Weyl invariant, which
    CohaElement(check=True) and from_json_dict enforce.
    """
    if f.quiver != g.quiver:
        raise HallforgeError("elements over different quivers")
    quiver = f.quiver
    idx = quiver.node_index
    d = tuple(a + b for a, b in zip(f.d, g.d))
    offsets, nvars = CohaElement.layout(quiver, d)
    if f.is_zero() or g.is_zero():
        return CohaElement(quiver, d, Poly.zero(nvars), check=False)
    # x'_{n,a} sits at slot offsets[n] + a and x''_{n,b} at mid[n] + b
    mid = {n: offsets[n] + f.d[idx[n]] for n in quiver.nodes}
    fmap = [(1, offsets[n] + a) for n in quiver.nodes for a in range(f.d[idx[n]])]
    gmap = [(1, mid[n] + b) for n in quiver.nodes for b in range(g.d[idx[n]])]
    total = f.poly.map_variables(nvars, fmap) * g.poly.map_variables(nvars, gmap)
    for _, t, h in quiver.arrows:
        for b in range(g.d[idx[h]]):
            for a in range(f.d[idx[t]]):
                total = total.mul_linear(1, mid[h] + b, -1, offsets[t] + a)
    sign = 1
    for n in quiver.nodes:
        d1, d2 = f.d[idx[n]], g.d[idx[n]]
        total = total.shuffle_push(offsets[n], d1, d2)
        if d1 * d2 % 2:
            sign = -sign
    return CohaElement(quiver, d, total.scale(sign), check=False)


def s_involution(f):
    """S_H(f): degree sigma(d), substitution x_{i,j} -> -x_{sigma(i),j}."""
    quiver = f.quiver
    return f.relabel(CohaElement, quiver, quiver.sigma_dim(f.d), quiver.sigma_nodes.get, -1)


# -- graded slices --------------------------------------------------------------


def coha_slice_basis(quiver, d, k):
    return CohaElement.slice_basis(quiver, d, k)


def dt_invariants(quiver, maxdim, window):
    """Pochhammer-factorization exponents of A_Q (symmetric quivers)."""
    if not quiver.is_symmetric():
        raise SymmetryError("DT invariants need a symmetric quiver")
    return invert_pochhammer_factorization(dt_series(quiver, maxdim, window))


# -- primitive parts -------------------------------------------------------------


def image_echelon(quiver, pairs, slice_basis, form, act, k):
    """Echelon of the weight-k span of act(c, b) with c in generator_complement
    (quiver, a, k1) and b in slice_basis(quiver, rest, k - k1), over (a, rest)
    in pairs and chi(a, a) <= k1 <= k - form(quiver, rest): the CoHA ideal
    H_+ . H_+ (shuffle_mul, chi) and the CoHM image H_+ . M (cohm_action, E)."""
    ech = Echelon()
    for a, rest in pairs:
        for k1 in range(quiver.euler_form(a, a), k - form(quiver, rest) + 1):
            gens = generator_complement(quiver, a, k1)
            if not gens:
                continue
            for b in slice_basis(quiver, rest, k - k1):
                for c in gens:
                    ech.add(act(c, b).poly.terms)
    return ech


def _ideal_echelon(quiver, d, k):
    """Echelon of the slice of sum_{a+b=d} H_a H_b inside H_(d,k) (cached)."""
    key = ("coha_ideal", d, k)
    cached = quiver._cache.get(key)
    if cached is not None:
        return cached
    if not quiver.is_symmetric():
        raise SymmetryError("primitive parts are computed for symmetric quivers")
    pairs = quiver.decompositions(d, sum(d) - 1)
    ech = image_echelon(quiver, pairs, coha_slice_basis, CohaElement.weight_form, shuffle_mul, k)
    quiver._cache[key] = ech
    return ech


def generator_complement(quiver, d, k):
    """Deterministic basis of a complement of the product-ideal slice in
    H_(d,k); its span maps isomorphically onto V_(d,k) = H/(H_+ . H_+)."""
    key = ("coha_complement", d, k)
    cached = quiver._cache.get(key)
    if cached is not None:
        return cached
    if CohaElement.slice_degree(quiver, d, k) is None:
        out = []
    elif sum(d) <= 1:
        out = coha_slice_basis(quiver, d, k)
    else:
        out = complement(_ideal_echelon(quiver, d, k).copy(), coha_slice_basis(quiver, d, k))
    quiver._cache[key] = out
    return out


def _power_sum_element(quiver, d):
    """sigma_d = sum of all variables, as a degree-(d, chi+2) element."""
    n = sum(d)
    p = Poly.zero(n)
    for i in range(n):
        p = p + Poly.variable(n, i)
    return CohaElement(quiver, d, p, check=False)


def primitive_basis(quiver, d, k):
    """Basis of a complement of (product ideal + sigma_d * V_(d,k-2)) inside
    H_(d,k); its span maps isomorphically onto V^prim_(d,k)."""
    key = ("coha_primitive", d, k)
    cached = quiver._cache.get(key)
    if cached is not None:
        return cached
    deg = CohaElement.slice_degree(quiver, d, k)
    if deg is None:
        out = []
    else:
        probe = _ideal_echelon(quiver, d, k).copy() if sum(d) > 1 else Echelon()
        if deg > 0:
            sigma = _power_sum_element(quiver, d)
            for c in generator_complement(quiver, d, k - 2):
                probe.add((sigma.poly * c.poly).terms)
        out = complement(probe, coha_slice_basis(quiver, d, k))
    quiver._cache[key] = out
    return out


def primitive_dims(quiver, maxdim, window):
    """dim V^prim_(d,k): slice dimension minus the rank of the product ideal
    plus the power-sum tower (V = V^prim (x) Q[sigma_d]).  The classes are
    the tasks of `PrimitiveTable.build` (a process pool when HALLFORGE_THREADS > 1)."""
    if not quiver.is_symmetric():
        raise SymmetryError("primitive dims need a symmetric quiver")
    if not quiver.supercommutativity_criterion():
        raise SymmetryError("supercommutativity criterion fails; twist not implemented")
    classes = [d for d in quiver.dimension_vectors(maxdim) if any(d)]
    return PrimitiveTable.build(quiver, "torus", CohaElement, primitive_basis, classes, window, maxdim)


def quotient_involution_matrix(quiver, d, k):
    """Matrix of S_H on V_(d,k) = H_(d,k)/ideal in the stored complement
    basis (sigma(d) must equal d)."""
    if quiver.sigma_dim(d) != d:
        raise GradingError("S_H acts on the (d,k) slice only when sigma(d) = d")
    gens = generator_complement(quiver, d, k)
    if not gens:
        return []
    solver = Echelon(augmented=True)
    ech = _ideal_echelon(quiver, d, k)
    for i, (piv, row) in enumerate(sorted(ech.pivots.items())):
        solver.add(dict(row), tag=("ideal", i))
    for j, c in enumerate(gens):
        solver.add(dict(c.poly.terms), tag=("gen", j))
    mat = []
    for c in gens:
        y = s_involution(c)
        res, coords = solver.reduce(dict(y.poly.terms))
        if res:
            raise HallforgeError("S_H does not preserve ideal + complement span")
        # res = y + sum coords_j * row_j, hence y = -sum coords_j * row_j
        row = [Fraction(0)] * len(gens)
        for tag, v in coords.items():
            if tag[0] == "gen":
                row[tag[1]] = -v
        mat.append(row)
    return mat


def equivariant_dt(quiver, e_target, maxdim, window):
    """Z2-equivariant DT invariants Omega~^(+-) for the twist class e_target.

    Loop quivers use the parity dichotomy applied to dt_invariants; otherwise
    the twisted involution (-1)^(chi(e,d)+E(d)) S_H acts on the primitive
    quotient and the +-/- eigenspace dimensions are reported per H(d)-class.
    """
    if not quiver.is_sigma_symmetric():
        raise SymmetryError("equivariant DT invariants need a sigma-symmetric quiver")
    e_target = quiver.check_selfdual_dim(e_target)
    entries = {}
    if len(quiver.nodes) == 1:
        table = dt_invariants(quiver, maxdim // 2, window)
        validity = {}
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

    seen = set()
    validity = {}
    # |H(d)| = 2|d|, so |H(d)| <= maxdim is |d| <= maxdim // 2
    for d in quiver.dimension_vectors(maxdim // 2):
        if not any(d):
            continue
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
        # V_(d,.) = V^prim (x) Q[sigma_d] with S_H(sigma_d) = -sigma_d, so the
        # primitive trace is tp_k = t_k + t_{k-2} and dim p_k = r_k - r_{k-2}.
        for k in range(chi, chi + window + 1):
            if sd == d:
                r_k = len(generator_complement(quiver, d, k))
                r_k2 = len(generator_complement(quiver, d, k - 2))
                p_k = r_k - r_k2
                if p_k < 0:
                    raise HallforgeError("power-sum tower is not free at %r" % (d,))
                if p_k == 0:
                    continue
                t_k = _quotient_trace(quiver, d, k)
                t_k2 = _quotient_trace(quiver, d, k - 2)
                tp = t_k + t_k2
                if (p_k + tp) % 2:
                    raise HallforgeError("non-integral eigenspace dimensions")
                nplus = (p_k + int(tp)) // 2
                nminus = p_k - nplus
                if eps < 0:
                    nplus, nminus = nminus, nplus
            else:
                p_k = len(generator_complement(quiver, d, k)) - len(
                    generator_complement(quiver, d, k - 2)
                )
                if not p_k:
                    continue
                nplus = nminus = p_k
            plus, minus = entries.get((h, k), (0, 0))
            entries[(h, k)] = (plus + nplus, minus + nminus)
    return SignedInvariantTable(quiver, entries, maxdim, validity)


def _quotient_trace(quiver, d, k):
    mat = quotient_involution_matrix(quiver, d, k)
    return sum(mat[i][i] for i in range(len(mat)))
