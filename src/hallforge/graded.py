"""The graded layer shared by the CoHA H and the CoHM M.

An element is a degree (a dimension vector for H, a self-dual one for M) and
a Weyl-invariant polynomial in one block of variables per node.  Each side
supplies only its degree check, its blocks ("GL" on every node for H; "GL"
on Q0^+ and "BCD" on Q0^sigma for M), its weight form (chi(d, d) or E(e))
and its variable prefix ("x" or "z"); the layout, the variable names, the
invariance test, the weight 2*deg + form, the arithmetic, the JSON boundary
and the graded slices (s_lam on GL blocks, s_lam(z^2) on BCD blocks) are
written once here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GradingError
from .parallel import pmap
from .poly import Poly
from .series import InvariantTable
from .symfun import weight_basis, weight_basis_size


class GradedElement:
    """A degree plus a polynomial invariant under the Weyl group of the blocks.

    Subclasses define `prefix` and the static methods `check_degree(quiver,
    d)`, `blocks(quiver, d)` (the (node, "GL" | "BCD", number of variables)
    of every node that owns variables, in node order) and `weight_form(quiver,
    d)`.
    """

    __slots__ = ("quiver", "degree", "poly")

    def __init__(self, quiver, degree, poly, check=True):
        self.quiver = quiver
        self.degree = self.check_degree(quiver, degree)
        _, nvars = self.layout(quiver, self.degree)
        if poly.n != nvars:
            raise GradingError("polynomial ring has %d vars, need %d" % (poly.n, nvars))
        self.poly = poly
        if check and not self.is_invariant():
            raise GradingError("polynomial is not Weyl invariant")

    @classmethod
    def unit(cls, quiver, d=None):
        d = quiver.zero() if d is None else d
        return cls(quiver, d, Poly.const(cls.layout(quiver, d)[1], 1), check=False)

    # -- layout ----------------------------------------------------------------

    @classmethod
    def layout(cls, quiver, d):
        """(offset of the first variable of each node's block, number of variables)."""
        offsets, pos = {}, 0
        for node, _, size in cls.blocks(quiver, d):
            offsets[node] = pos
            pos += size
        return offsets, pos

    @classmethod
    def var_names(cls, quiver, d):
        return [
            "%s:%s:%d" % (cls.prefix, node, j + 1)
            for node, _, size in cls.blocks(quiver, d)
            for j in range(size)
        ]

    # -- graded slices -----------------------------------------------------------

    @classmethod
    def slice_degree(cls, quiver, d, k):
        """Polynomial degree of the (d, k) slice, or None when the slice is empty."""
        form = cls.weight_form(quiver, d)
        if (k - form) % 2 or k < form:
            return None
        return (k - form) // 2

    @classmethod
    def slice_basis(cls, quiver, d, k):
        deg = cls.slice_degree(quiver, d, k)
        if deg is None:
            return []
        basis, _ = weight_basis([b for b in cls.blocks(quiver, d) if b[2]], deg)
        return [cls(quiver, d, p, check=False) for p in basis]

    @classmethod
    def slice_dim(cls, quiver, d, k):
        deg = cls.slice_degree(quiver, d, k)
        if deg is None:
            return 0
        return weight_basis_size([b for b in cls.blocks(quiver, d) if b[2]], deg)

    # -- predicates and grading ------------------------------------------------

    def is_invariant(self):
        """Symmetric in each block, and even in every variable of a BCD block."""
        p, base = self.poly, 0
        for _, kind, size in self.blocks(self.quiver, self.degree):
            if kind == "BCD":
                for j in range(base, base + size):
                    if not p.even_in(j):
                        return False
            for j in range(base, base + size - 1):
                if p.swap_variables(j, j + 1) != p:
                    return False
            base += size
        return True

    def is_zero(self):
        return self.poly.is_zero()

    def weight(self):
        if not self.poly.is_homogeneous():
            raise GradingError("weight of an inhomogeneous element")
        return 2 * max(self.poly.degree(), 0) + self.weight_form(self.quiver, self.degree)

    def relabel(self, cls, quiver, degree, node_of, sign=1):
        """This polynomial as a `cls` element of degree `degree` over
        `quiver`: variable j of node n's block becomes sign times variable j
        of node_of(n)'s block."""
        offsets, nvars = cls.layout(quiver, degree)
        mapping = [
            (sign, offsets[node_of(n)] + j)
            for n, _, size in self.blocks(self.quiver, self.degree)
            for j in range(size)
        ]
        return cls(quiver, degree, self.poly.map_variables(nvars, mapping), check=False)

    # -- arithmetic --------------------------------------------------------------

    def scale(self, c):
        return type(self)(self.quiver, self.degree, self.poly.scale(c), check=False)

    def __add__(self, other):
        if self.degree != other.degree:
            raise GradingError("cannot add elements of different degree")
        return type(self)(self.quiver, self.degree, self.poly + other.poly, check=False)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.quiver == other.quiver
            and self.degree == other.degree
            and self.poly == other.poly
        )

    def __repr__(self):
        return "%s(%r, %r)" % (type(self).__name__, self.degree, self.poly)

    # -- JSON ----------------------------------------------------------------------

    def to_json_dict(self):
        names = self.var_names(self.quiver, self.degree)
        return {
            "d": list(self.degree),
            "poly": [
                {"exp": {names[i]: e for i, e in enumerate(k) if e}, "c": str(c)}
                for k, c in self.poly.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, quiver, doc):
        """Inverse of to_json_dict; a malformed document raises GradingError."""
        if not (isinstance(doc, dict) and isinstance(doc.get("d"), list) and isinstance(doc.get("poly"), list)):
            raise GradingError('an element document is an object {"d": [...], "poly": [...]}')
        # exact input only: integers, and strings for coefficients; a float
        # or a bool (an int subclass) is refused, not rounded
        if any(type(x) is not int for x in doc["d"]):
            raise GradingError("degree %r is not a list of integers" % (doc["d"],))
        d = cls.check_degree(quiver, tuple(doc["d"]))
        names = {nm: i for i, nm in enumerate(cls.var_names(quiver, d))}
        terms = {}
        for t in doc["poly"]:
            if not (isinstance(t, dict) and isinstance(t.get("exp"), dict) and "c" in t):
                raise GradingError('poly term %r is not an object {"exp": {...}, "c": ...}' % (t,))
            key = [0] * len(names)
            c = t["c"]
            try:
                for nm, e in t["exp"].items():
                    if type(e) is not int:
                        raise TypeError
                    key[names[nm]] = e
                if type(c) is not int and type(c) is not str:
                    raise TypeError
                terms[tuple(key)] = Fraction(c)
            except KeyError as exc:
                raise GradingError("unknown variable %s in degree %r" % (exc, d)) from None
            except (TypeError, ValueError):
                raise GradingError("poly term %r needs integer exponents and a rational coefficient" % (t,)) from None
        return cls(quiver, d, Poly.from_exponents(len(names), terms))


class PrimitiveTable:
    """dim V^prim per (d,k) (kind "torus") or dim W^prim per (e,k) (kind
    "module"), with the stored (non-canonical) complement basis."""

    def __init__(self, quiver, kind, dims, bases, validity, maxdim):
        self.quiver = quiver
        self.kind = kind
        self.dims = dims
        self.bases = bases
        self.validity = validity
        self.maxdim = maxdim

    @classmethod
    def build(cls, quiver, kind, elem_cls, basis, classes, window, maxdim):
        """The table of basis(quiver, d, k) over the classes d and the nonempty
        slices form <= k <= form + window (the validity of d), where form is
        elem_cls.weight_form(quiver, d).  The classes are tasks of `pmap`:
        sequentially they share quiver._cache; in a process pool each task
        gets a copy of the quiver without its cache.  The polynomials come
        back as elements over the caller's quiver either way."""
        dims, bases, validity = {}, {}, {}
        tasks = [(quiver, elem_cls, basis, d, window) for d in classes]
        for d, slices in zip(classes, pmap(_class_slices, tasks)):
            validity[d] = elem_cls.weight_form(quiver, d) + window
            for k, polys in slices:
                dims[(d, k)] = len(polys)
                bases[(d, k)] = [elem_cls(quiver, d, p, check=False) for p in polys]
        return cls(quiver, kind, dims, bases, validity, maxdim)

    def table(self):
        return InvariantTable(self.quiver, self.kind, self.dims, self.validity, self.maxdim)


def _class_slices(task):
    """(k, basis polynomials) of every nonempty slice of one class."""
    quiver, elem_cls, basis, d, window = task
    form = elem_cls.weight_form(quiver, d)
    out = []
    for k in range(form, form + window + 1):
        if elem_cls.slice_degree(quiver, d, k) is None:
            continue
        polys = [c.poly for c in basis(quiver, d, k)]
        if polys:
            out.append((k, polys))
    return out
