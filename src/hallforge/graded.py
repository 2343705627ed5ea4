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
lists.  Polynomials exist only for element products and JSON;
`to_labels` and `from_labels` convert rows of labels on demand, and
`element_product` is the product and the action of elements.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExponentOverflowError, GradingError, HallforgeError
from .parallel import pmap
from .poly import MASK, MAXDEG, SHIFT, Poly, check_push_work, mul_bound
from .quiver import MAX_QUOTIENT_SLICES, memoized
from .series import InvariantTable
from .symfun import _push, block_cuts, expand_labels, straighten_blocks, weight_labels


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
        cls.blocks(quiver, d) (`_slice_labels`).  The list is shared, so
        callers must not mutate it."""
        return _slice_labels(quiver, cls, d, k)

    @classmethod
    def from_labels(cls, quiver, d, row):
        """The element of degree d whose Schur coordinates are the row
        {label: coeff}, expanded into its polynomial (`expand_labels`)."""
        terms, bound = expand_labels(cls.blocks(quiver, d), row)
        return cls(quiver, d, Poly(cls.layout(quiver, d)[1], terms, bound), check=False)

    def to_labels(self):
        """The Schur coordinates {label: coeff} of this element, the inverse
        of `from_labels`: partial_w0(x^delta f) = f for f symmetric in a
        block, so x^delta times the terms, straightened block by block, is
        the row.  A BCD block's exponents are even, so they are halved first
        (v = z^2): the block shifts right by one bit, no field borrowing."""
        blocks, halve, delta, pos = [], [], 0, 0
        for _, kind, size in self.blocks(self.quiver, self.degree):
            blocks.append((pos, size))
            if kind == "BCD":
                halve.append((SHIFT * pos, (1 << (SHIFT * size)) - 1))
            delta += sum((size - 1 - j) << (SHIFT * (pos + j)) for j in range(size - 1))
            pos += size
        terms = self.poly.terms
        if halve:
            terms = {k - sum(((k >> s) & m) >> 1 << s for s, m in halve): c for k, c in terms.items()}
        mul_bound(pos, {delta: 1}, pos, terms, self.poly.bound)
        return straighten_blocks({delta: 1}, terms, block_cuts(blocks))

    # -- predicates and grading ------------------------------------------------

    def is_invariant(self):
        """Symmetric in each block, and even in every variable of a BCD
        block, tested on the term dict (`_is_invariant`)."""
        return _is_invariant(self.poly.terms, self.blocks(self.quiver, self.degree))

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
        """{"d": degree, "poly": terms}, the terms in graded-lex order of
        their exponent tuples, each {"exp": {variable: exponent}, "c":
        str(coeff)} with its zero exponents left out.  Each packed key is
        unpacked once, into its exp dict, its degree and its sort key (the
        degree above the exponents packed in reverse variable order)."""
        names = self.var_names(self.quiver, self.degree)
        top = SHIFT * len(names)
        rows = []
        for k, c in self.poly.terms.items():
            exp, deg, rev, sh, i = {}, 0, 0, top, 0
            while k:
                sh -= SHIFT
                e = k & MASK
                if e:
                    exp[names[i]] = e
                    deg += e
                    rev |= e << sh
                k >>= SHIFT
                i += 1
            rows.append(((deg << top) | rev, exp, str(c)))
        rows.sort()  # the sort keys are distinct, so no exp dicts are compared
        return {"d": list(self.degree), "poly": [{"exp": exp, "c": c} for _, exp, c in rows]}

    @classmethod
    def from_json_dict(cls, quiver, doc):
        """Inverse of to_json_dict; a malformed document raises GradingError.
        Each term's exponents go straight into its packed key, so every
        exponent is an int in 0..MAXDEG, also in a term whose coefficient is
        zero: a negative one raises GradingError, one over MAXDEG
        ExponentOverflowError.  Each monomial appears in one term: a
        repeated one (also {"x:1:1": 0} after {}) is refused, not summed or
        overwritten.  Terms with a zero coefficient are dropped, and the
        polynomial must be Weyl invariant (`is_invariant`)."""
        if not (isinstance(doc, dict) and isinstance(doc.get("d"), list) and isinstance(doc.get("poly"), list)):
            raise GradingError('an element document is an object {"d": [...], "poly": [...]}')
        # exact input only: integers, and strings for coefficients; a float
        # or a bool (an int subclass) is refused, not rounded
        if any(type(x) is not int for x in doc["d"]):
            raise GradingError("degree %r is not a list of integers" % (doc["d"],))
        d = cls.check_degree(quiver, tuple(doc["d"]))
        blocks = cls.blocks(quiver, d)
        shifts, pos = {}, 0  # variable name -> its shift in a packed key
        for node, _, size in blocks:
            for j in range(1, size + 1):
                shifts["%s:%s:%d" % (cls.prefix, node, j)] = pos
                pos += SHIFT
        terms, bound, zeros = {}, 0, False
        for t in doc["poly"]:
            if not (isinstance(t, dict) and isinstance(t.get("exp"), dict) and "c" in t):
                raise GradingError('poly term %r is not an object {"exp": {...}, "c": ...}' % (t,))
            key = most = 0
            c = t["c"]
            try:
                for nm, e in t["exp"].items():
                    if type(e) is not int:
                        raise TypeError
                    sh = shifts[nm]
                    if e > most:
                        if e > MAXDEG:
                            raise ExponentOverflowError("exponent %d out of packed range" % e)
                        most = e
                    elif e < 0:
                        raise GradingError("poly term %r has the negative exponent %d" % (t, e))
                    key |= e << sh
                if type(c) is not int and type(c) is not str:
                    raise TypeError
                if key in terms:
                    raise GradingError("poly term %r repeats the monomial of an earlier term" % (t,))
                if type(c) is str:
                    # a decimal integer needs no Fraction; int() and Fraction()
                    # agree on ASCII digits after an optional minus sign
                    if c.isascii() and (c.isdigit() or c[:1] == "-" and c[1:].isdigit()):
                        c = int(c)
                    else:
                        c = Fraction(c)
                        if c.denominator == 1:
                            c = c.numerator
            except KeyError as exc:
                raise GradingError("unknown variable %s in degree %r" % (exc, d)) from None
            except (TypeError, ValueError, ZeroDivisionError):
                raise GradingError("poly term %r needs integer exponents and a rational coefficient" % (t,)) from None
            terms[key] = c
            if not c:
                zeros = True
            elif most > bound:
                bound = most
        if zeros:
            terms = {k: c for k, c in terms.items() if c}
        if not _is_invariant(terms, blocks):
            raise GradingError("polynomial is not Weyl invariant")
        # the degree and the ring size are checked above: no second pass
        # through __init__
        elem = cls.__new__(cls)
        elem.quiver, elem.degree, elem.poly = quiver, d, Poly(pos // SHIFT, terms, bound)
        return elem


def element_product(cls, f, g, degree, integrand):
    """f * g in cls at `degree` (`coha.shuffle_mul`, `cohm.cohm_action`):
    the push (`symfun._push`) of integrand(quiver, f.degree, g.degree) from
    the rows `to_labels`, expanded by `from_labels`.  The label pairs times
    the integrand's terms times its length are charged against
    MAX_PUSH_WORK first; a zero operand gives zero and builds nothing."""
    if f.quiver != g.quiver:
        raise HallforgeError("elements over different quivers")
    quiver = f.quiver
    if f.is_zero() or g.is_zero():
        return cls(quiver, degree, Poly.zero(cls.layout(quiver, degree)[1]), check=False)
    a, b = f.to_labels(), g.to_labels()
    it = integrand(quiver, f.degree, g.degree)
    check_push_work(len(a) * len(b) * len(it.kernel.terms), it.length)
    return cls.from_labels(quiver, degree, _push(it, a, b))


@memoized("slice_labels")
def _slice_labels(quiver, cls, d, k):
    """The key holds the class, as the CoHA and CoHM slices of one degree
    tuple differ on a loop quiver, an empty slice too."""
    deg = cls.slice_degree(quiver, d, k)
    return [] if deg is None else weight_labels(cls.blocks(quiver, d), deg)


def _is_invariant(terms, blocks):
    """Whether a packed term dict in the variables of `blocks` is symmetric
    in each block and even in every variable of a BCD block: the partner of
    each term under every adjacent swap within a block carries the same
    coefficient, and one bit mask over the BCD variables finds an odd
    exponent."""
    odd, pairs, sh = 0, [], 0
    for _, kind, size in blocks:
        if kind == "BCD":
            for j in range(size):
                odd |= 1 << (sh + SHIFT * j)
        pairs.extend(range(sh, sh + SHIFT * (size - 1), SHIFT))
        sh += SHIFT * size
    if odd and any(k & odd for k in terms):
        return False
    for k, c in terms.items():
        for s in pairs:
            a = (k >> s) & MASK
            b = (k >> (s + SHIFT)) & MASK
            if a != b and terms.get(k + ((b - a) << s) + ((a - b) << (s + SHIFT))) != c:
                return False
    return True


class PrimitiveTable:
    """dim V^prim per (d,k) (kind "torus") or dim W^prim per (e,k) (kind
    "module"), with the stored (non-canonical) complement basis as a list
    of slice labels per (d, k); `from_labels` expands them."""

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
        classes are tasks of `pmap`: sequentially they share the quiver's
        memo (`memoized`); in a process pool each task gets a copy of the
        quiver without it.  The labels come back as they are (sequentially,
        the memo's lists, so callers must not mutate them).  A request beyond
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
