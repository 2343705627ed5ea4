"""The graded layer shared by the CoHA H and the CoHM M.

An element is a degree (a dimension vector for H, a self-dual one for M) and
a Weyl-invariant polynomial in one block of variables per node.  Each side
supplies only its degree check, its blocks ("GL" on every node for H; "GL"
on Q0^+ and "BCD" on Q0^sigma for M), its weight form (chi(d, d) or E(e))
and its variable prefix ("x" or "z"); the layout, the variable names, the
invariance test, the weight 2*deg + form, the arithmetic, the JSON boundary
and the graded slices (s_lam on GL blocks, s_lam(z^2) on BCD blocks) are
written once here.

A basis element is stored as its Schur label, one partition per block
(`slice_labels`): the rank pipelines (the primitive quotients and the PBW
checks) work on dicts {label: coeff}, where a slice basis is the unit rows
of its labels, and `PrimitiveTable` keeps its complement bases as label
lists.  Polynomials exist only for element products and JSON; `from_label`
expands one label on demand.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GradingError, HallforgeError
from .parallel import pmap
from .poly import Poly
from .quiver import MAX_QUOTIENT_SLICES
from .series import InvariantTable
from .symfun import schur_product, weight_basis_size, weight_labels


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
    def slice_labels(cls, quiver, d, k):
        """The labels of the (d, k) slice basis, one partition per block of
        cls.blocks(quiver, d); kept in quiver._cache under ("slice_labels",
        class, d, k), as the CoHA and CoHM slices of one degree tuple differ
        on a loop quiver, an empty slice too.  The list is shared, so callers
        must not mutate it."""
        key = ("slice_labels", cls, d, k)
        out = quiver._cache.get(key)
        if out is None:
            deg = cls.slice_degree(quiver, d, k)
            out = quiver._cache[key] = [] if deg is None else weight_labels(cls.blocks(quiver, d), deg)
        return out

    @classmethod
    def from_label(cls, quiver, d, label):
        """The slice basis element of a label, expanded into its polynomial."""
        return cls(quiver, d, schur_product(cls.blocks(quiver, d), label), check=False)

    @classmethod
    def slice_dim(cls, quiver, d, k):
        deg = cls.slice_degree(quiver, d, k)
        if deg is None:
            return 0
        return weight_basis_size(cls.blocks(quiver, d), deg)

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
        """Inverse of to_json_dict; a malformed document raises GradingError.
        Each monomial appears in one term: a repeated one (also {"x:1:1": 0}
        after {}) is refused, not summed or overwritten."""
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
                key = tuple(key)
                if key in terms:
                    raise GradingError("poly term %r repeats the monomial of an earlier term" % (t,))
                terms[key] = Fraction(c)
            except KeyError as exc:
                raise GradingError("unknown variable %s in degree %r" % (exc, d)) from None
            except (TypeError, ValueError, ZeroDivisionError):
                raise GradingError("poly term %r needs integer exponents and a rational coefficient" % (t,)) from None
        return cls(quiver, d, Poly.from_exponents(len(names), terms))


class PrimitiveTable:
    """dim V^prim per (d,k) (kind "torus") or dim W^prim per (e,k) (kind
    "module"), with the stored (non-canonical) complement basis as a list
    of slice labels per (d, k); `from_label` expands one."""

    def __init__(self, quiver, kind, dims, bases, validity, maxdim):
        self.quiver = quiver
        self.kind = kind
        self.dims = dims
        self.bases = bases
        self.validity = validity
        self.maxdim = maxdim

    @classmethod
    def build(cls, quiver, kind, elem_cls, basis, classes, window, maxdim):
        """The table of basis(quiver, d, k), a list of slice labels, over the
        classes d and the nonempty slices form <= k <= form + window (the
        validity of d), where form is elem_cls.weight_form(quiver, d).  The
        classes are tasks of `pmap`: sequentially they share quiver._cache;
        in a process pool each task gets a copy of the quiver without its
        cache.  The labels come back as they are (sequentially, the lists of
        quiver._cache, so callers must not mutate them).  A request beyond
        MAX_QUOTIENT_SLICES raises before any task runs."""
        check_quotient_slices(len(classes), window)
        dims, bases, validity = {}, {}, {}
        tasks = [(quiver, elem_cls, basis, d, window) for d in classes]
        for d, slices in zip(classes, pmap(_class_slices, tasks)):
            validity[d] = elem_cls.weight_form(quiver, d) + window
            for k, labels in slices:
                dims[(d, k)] = len(labels)
                bases[(d, k)] = labels
        return cls(quiver, kind, dims, bases, validity, maxdim)

    def table(self):
        return InvariantTable(self.quiver, self.kind, self.dims, self.validity, self.maxdim)


def check_quotient_slices(classes, window):
    """Refuse a primitive quotient over `classes` classes whose slices,
    classes x (window // 2 + 1), exceed MAX_QUOTIENT_SLICES: a
    HallforgeError before any slice is computed."""
    if classes * (window // 2 + 1) > MAX_QUOTIENT_SLICES:
        raise HallforgeError(
            "%d classes over a window of %d exceed the work cap of %d quotient slices" % (classes, window, MAX_QUOTIENT_SLICES)
        )


def _class_slices(task):
    """(k, basis labels) of every nonempty slice of one class."""
    quiver, elem_cls, basis, d, window = task
    form = elem_cls.weight_form(quiver, d)  # slices with k - form odd are empty
    slices = ((k, basis(quiver, d, k)) for k in range(form, form + window + 1, 2))
    return [(k, labels) for k, labels in slices if labels]
