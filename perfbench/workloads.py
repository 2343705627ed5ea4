"""Workloads of the hallforge benchmark.

A workload is a list of jobs.  One pass runs every job once, and every job
builds its own quivers, so each pass starts with cold per-quiver caches, as a
fresh process or a CLI invocation does.  Jobs return the library's result
objects; `encode` turns them into canonical JSON after timing, and
`Checker` compares that JSON with the reference data in reference.json.

Why each workload exists (the layer it loads, and the one it bypasses):

- algebra: CoHA side.  PBW checks multiply Schur-basis inputs with warm
  shuffle kernels (coha, poly divisions), and the L0/L1 closed forms build
  Jacobi-Trudi slice bases for generator complements (symfun).  The series
  layer is nearly idle.
- module: CoHM side.  The sigma-shuffle action (cohm) dominates: L2 and
  A1-tilde W^prim quotients, PBW for the action on A2.  Nearly no CoHA
  products of basis elements outside the complements.
- numeric: the series route (truncated q-series products, log, inverse,
  Pochhammer products) with no polynomial arithmetic at all; the bypass
  workload for every change to poly, symfun, coha or cohm.
- cli-ops: single mul/act operations as the CLI runs them: a fresh quiver
  from its JSON spec for every operation (cold kernels), operands parsed
  from element JSON, the result emitted as canonical JSON.
"""

from __future__ import annotations

import hashlib
import json

import hallforge as hf
from hallforge.proputils import Lcg, random_coha_element, random_cohm_element

# -- canonical output ----------------------------------------------------------


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def output_digest(job, result):
    return hashlib.sha256(canonical(job.encode(result)).encode()).hexdigest()[:16]


def _table(t):
    return t.to_json_dict()


def _ori(result):
    return result.table().to_json_dict()


def _pbw(rep):
    return {
        name: [[list(d), k, list(v)] for (d, k), v in sorted(rep[name]["slices"].items())]
        for name in ("simple", "indecomposable")
    } | {"pass": rep["pass"]}


def _loopfac(result):
    return {
        ",".join(map(str, w)): {"table": part["table"].to_json_dict(), "consistent": part["consistent"]}
        for w, part in sorted(result.items())
    }


def _dilog(rep):
    return {"pass": rep["pass"], "lhs": rep["lhs"].to_json_dict(), "rhs": rep["rhs"].to_json_dict()}


def _many(encoders):
    def encode(results):
        return [enc(r) for enc, r in zip(encoders, results)]

    return encode


# -- fixed-instance jobs ------------------------------------------------------------


class Job:
    """One library call: `run()` computes, `encode(result)` gives canonical JSON.

    `check` names a closed form in reference.json that the result must match on
    the classes it shares with that form.  `verify(result)`, when given, is a
    costlier independent check (another route, or invariance of a cli-ops
    result) that returns None or the reason for a failure; it runs on the
    first pass only.
    """

    __slots__ = ("name", "run", "encode", "check", "verify")

    def __init__(self, name, run, encode, check=None, verify=None):
        self.name, self.run, self.encode, self.check, self.verify = name, run, encode, check, verify


def _ori_job(name, make_quiver, maxdim, window, check=None, cross_division=False):
    verify = (lambda result: division_route(result, window)) if cross_division else None
    return Job(name, lambda: hf.ori_dt_invariants(make_quiver(), maxdim, window), _ori, check, verify)


def algebra_jobs():
    lq = hf.loop_quiver
    jobs = [
        Job("pbw_coha.A2>orth.b3w8", lambda: hf.pbw_check_coha(hf.build_typeA(2, ">", "orthogonal"), 3, 8), _pbw, "pbw_pass"),
        Job("pbw_coha.A3>>orth.b2w8", lambda: hf.pbw_check_coha(hf.build_typeA(3, ">>", "orthogonal"), 2, 8), _pbw, "pbw_pass"),
        Job("pbw_coha.A3>>orth.b3w0", lambda: hf.pbw_check_coha(hf.build_typeA(3, ">>", "orthogonal"), 3, 0), _pbw, "pbw_pass"),
        _ori_job("ori.L0s+.m7w16", lambda: lq(0), 7, 16, "ori_L0s+"),
        _ori_job("ori.L0s-.m6w16", lambda: lq(0, s=-1), 6, 16, "ori_trivial"),
    ]
    for s in (1, -1):
        for tau in (1, -1):
            name = "ori.L1s%st%s.m7w16" % ("+" if s > 0 else "-", "+" if tau > 0 else "-")
            check = {(1, 1): "ori_L1s+t+", (1, -1): "ori_L1s+t-"}.get((s, tau), "ori_trivial")
            jobs.append(_ori_job(name, lambda s=s, tau=tau: lq(1, s=s, tau=[tau]), 7, 16, check))
    return jobs


def module_jobs():
    lq = hf.loop_quiver
    return [
        _ori_job("ori.L2s+.m8w22", lambda: lq(2), 8, 22, "omega_b_l2", cross_division=True),
        _ori_job("ori.L2s-.m9w26", lambda: lq(2, s=-1), 9, 26, cross_division=True),
        _ori_job("ori.A1t+.m7w16", lambda: hf.a1_tilde(tau=1), 7, 16, "ori_A1t+"),
        _ori_job("ori.A1t-.m7w16", lambda: hf.a1_tilde(tau=-1), 7, 16, "ori_A1t-"),
        Job("pbw_cohm.A2>orth.b4w12", lambda: hf.pbw_check_cohm(hf.build_typeA(2, ">", "orthogonal"), 4, 12), _pbw, "pbw_pass"),
        Job("pbw_cohm.A2>symp.b2w12", lambda: hf.pbw_check_cohm(hf.build_typeA(2, ">", "symplectic"), 2, 12), _pbw, "pbw_pass"),
    ]


def _loop_m(m):
    """Criterion-05 calls for L_m: Omega to t^2, Omega^D to xi^4, Omega^C to xi^2."""

    def run():
        lm = hf.loop_quiver(m, s=1, tau=[-1] * m)
        lc = hf.loop_quiver(m, s=-1, tau=[-1] * m)
        return (
            hf.dt_invariants(lm, 2, 8 * m),
            hf.loop_factorization(lm, 4, 10 * m),
            hf.loop_factorization(lc, 2, 10 * m),
        )

    return Job("loops.L%d" % m, run, _many([_table, _loopfac, _loopfac]), "loops_m%d" % m)


def numeric_jobs():
    lq = hf.loop_quiver

    def l3():
        return lq(3, s=1, tau=[1, 1, 1])

    jobs = [
        Job("lf.L3.m8w72", lambda: hf.loop_factorization(l3(), 8, 72), _loopfac, "omega_d_l3"),
        Job("lf.L4.m8w60", lambda: hf.loop_factorization(lq(4, s=1, tau=[1] * 4), 8, 60), _loopfac),
        Job("lf.L2.m12w40", lambda: hf.loop_factorization(lq(2), 12, 40), _loopfac, "omega_b_l2_division"),
        Job("dt.L3.m8w80", lambda: hf.dt_invariants(l3(), 8, 80), _table, "omega_l3"),
        Job("dt.L2.m4w40", lambda: hf.dt_invariants(lq(2), 4, 40), _table, "omega_l2"),
        Job("eqdt.L2.m8w40", lambda: hf.equivariant_dt(lq(2), (1,), 8, 40), _table, "equivariant_l2"),
    ]
    jobs += [_loop_m(m) for m in range(2, 7)]
    for n, orient in ((1, ""), (2, ">"), (3, ">>"), (3, "<<"), (4, ">>>"), (5, ">>>>")):
        for dual in ("orthogonal", "symplectic"):
            jobs.append(
                Job(
                    "dilog.A%d%s.%s.m8w32" % (n, orient, dual[:4]),
                    lambda n=n, orient=orient, dual=dual: hf.dilog_identity_check(hf.build_typeA(n, orient, dual), 8, 32),
                    _dilog,
                    "dilog_pass",
                )
            )
    return jobs


# -- cli-ops: single operations over the JSON boundary ------------------------------


def cli_quivers():
    """(name, spec text) of the quivers the operation stream uses."""
    return [
        ("L2", canonical(hf.loop_quiver(2).to_dict())),
        ("A2", canonical(hf.a2_quiver().to_dict())),
        ("A1t", canonical(hf.a1_tilde(tau=1).to_dict())),
        ("A3", canonical(hf.build_typeA(3, ">>", "orthogonal").quiver.to_dict())),
    ]


# Operand shapes per quiver: (kind, total dim of the CoHA operands, maximal
# polynomial degree).  mul draws two CoHA operands whose total dims sum to the
# budget; act draws one CoHA operand of that total dim and one CoHM operand of
# total dim <= 1.  Within a shape, the split of the budget (mul) or the CoHM
# degree (act) cycles through all its values, so that every batch has the
# same mix of costs for every seed and only the operands differ.  L2 act of
# total dim 3 is the heavy tail (50-90 ms an operation on a 2-core Xeon); L2
# at total dim 4 reaches seconds per action and is left out.
CLI_SHAPES = {
    "L2": [("mul", 4, 2), ("act", 2, 2), ("act", 3, 2)],
    "A2": [("mul", 5, 3), ("act", 4, 3)],
    "A1t": [("mul", 5, 3), ("act", 4, 2)],
    "A3": [("mul", 5, 3), ("act", 4, 3)],
}
# A multiple of every cycle length above: 3 or 4 splits, 2, 4 or 6 degrees.
CLI_OPS_PER_SHAPE = 12


class CliOp:
    __slots__ = ("name", "spec", "kind", "lhs", "rhs")

    def __init__(self, name, spec, kind, lhs, rhs):
        self.name, self.spec, self.kind, self.lhs, self.rhs = name, spec, kind, lhs, rhs


def _draw(draw, accept=lambda elem: True):
    """The first nonzero draw that `accept` takes."""
    while True:
        elem = draw()
        if not elem.is_zero() and accept(elem):
            return elem


def _shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def cohm_degrees(quiver):
    """The degrees random_cohm_element(rng, quiver, 1, ...) draws from:
    H(d) for total dim d <= 1, plus 0 or one step at each fixed node."""
    n = len(quiver.nodes)
    out = set()
    for d in [quiver.zero()] + [tuple(int(i == j) for j in range(n)) for i in range(n)]:
        bases = [quiver.hyperbolic(d)]
        for node in quiver.q0_sigma:
            i, step = quiver.node_index[node], 2 if quiver.s[node] == -1 else 1
            bases += [e[:i] + (e[i] + step,) + e[i + 1:] for e in bases]
        out.update(bases)
    return sorted(out)


class CliStream:
    """The seeded operation stream, drawn one batch (one pass) at a time with
    the library's documented LCG; operands are nonzero and homogeneous."""

    def __init__(self, seed):
        self.rng = Lcg(seed)
        self.quivers = [(name, spec, hf.parse_quiver(spec)) for name, spec in cli_quivers()]
        self.batches = 0

    def next_ops(self):
        rng, ops = self.rng, []
        for qname, spec, quiver in self.quivers:
            degrees = cohm_degrees(quiver)
            for kind, budget, maxdeg in CLI_SHAPES[qname]:
                for i in range(CLI_OPS_PER_SHAPE):
                    if kind == "mul":
                        t1 = 1 + i % (budget - 1)
                        f = _draw(lambda: random_coha_element(rng, quiver, t1, maxdeg, exact=True))
                        g = _draw(lambda: random_coha_element(rng, quiver, budget - t1, maxdeg, exact=True))
                    else:
                        e = degrees[i % len(degrees)]
                        f = _draw(lambda: random_coha_element(rng, quiver, budget, maxdeg, exact=True))
                        g = _draw(lambda: random_cohm_element(rng, quiver, 1, maxdeg), lambda g: g.e == e)
                    name = "%d.%s.%s%d.%d" % (self.batches, qname, kind, budget, i)
                    ops.append(CliOp(name, spec, kind, canonical(f.to_json_dict()), canonical(g.to_json_dict())))
        self.batches += 1
        return _shuffle(rng, ops)

    def next_jobs(self):
        return [cli_job(op) for op in self.next_ops()]


def cli_parse(op):
    """What `hallforge mul|act` does before computing: quiver and operands from JSON."""
    quiver = hf.parse_quiver(op.spec)
    lhs = hf.CohaElement.from_json_dict(quiver, json.loads(op.lhs))
    rhs_cls = hf.CohaElement if op.kind == "mul" else hf.CohmElement
    return lhs, rhs_cls.from_json_dict(quiver, json.loads(op.rhs))


def cli_emit(elem):
    """What `hallforge mul|act` prints: the result as canonical JSON."""
    return canonical(elem.to_json_dict())


def cli_job(op):
    def run():
        lhs, rhs = cli_parse(op)
        product = hf.shuffle_mul if op.kind == "mul" else hf.cohm_action
        return cli_emit(product(lhs, rhs))

    return Job(op.name, run, json.loads, verify=lambda text: check_cli_result(op, text))


# -- workload table ------------------------------------------------------------------


def jobs_for(workload, seed):
    """A function giving the jobs of the next pass.  Fixed-instance workloads
    repeat one job list, in an order drawn from the seed; cli-ops draws a new
    batch of operations from its seeded stream for every pass."""
    if workload == "cli-ops":
        return CliStream(seed).next_jobs
    jobs = {"algebra": algebra_jobs, "module": module_jobs, "numeric": numeric_jobs}[workload]()
    _shuffle(Lcg(seed), jobs)
    return lambda: jobs


def setup_calls(workload):
    """The quivers and root systems a workload builds, as (hallforge function,
    args) pairs; setup time is a fresh interpreter importing hallforge and
    making these calls."""
    a3, lp = ["build_typeA", 3, ">>", "orthogonal"], "loop_quiver"
    if workload == "algebra":
        return [["build_typeA", 2, ">", "orthogonal"], a3, [lp, 0, 1], [lp, 0, -1]] + [
            [lp, 1, s, [t]] for s in (1, -1) for t in (1, -1)
        ]
    if workload == "module":
        return [
            [lp, 2], [lp, 2, -1], ["a1_tilde", 1], ["a1_tilde", -1],
            ["build_typeA", 2, ">", "orthogonal"], ["build_typeA", 2, ">", "symplectic"],
        ]
    if workload == "numeric":
        calls = [[lp, 3, 1, [1, 1, 1]], [lp, 4, 1, [1] * 4], [lp, 2]]
        calls += [[lp, m, s, [-1] * m] for m in range(2, 7) for s in (1, -1)]
        for n, orient in ((1, ""), (2, ">"), (3, ">>"), (3, "<<"), (4, ">>>"), (5, ">>>>")):
            calls += [["build_typeA", n, orient, dual] for dual in ("orthogonal", "symplectic")]
        return calls
    return [["parse_quiver", spec] for _, spec in cli_quivers()]


# -- verification ---------------------------------------------------------------------


def _laurent(table, e):
    """{k: v} of a class, as strings keyed like reference.json."""
    return {str(k): int(v) for k, v in table.rendered(e).items()}


def _matches_form(table, form, maxdim):
    """The table agrees with a closed form on every class the form lists up to
    maxdim, below the table's validity window of that class."""
    for key, expected in form.items():
        e = tuple(int(x) for x in key.split(","))
        if sum(e) > maxdim:
            continue
        hi = table.validity.get(e)
        got = {k: v for k, v in _laurent(table, e).items() if hi is None or int(k) <= hi}
        want = {k: v for k, v in expected.items() if hi is None or int(k) <= hi}
        if got != want:
            return False
    return True


def _entries(table):
    return sorted([list(d), k, m] for (d, k), m in table.entries.items())


class Checker:
    """Verifies job outputs against reference.json (digests and closed forms)."""

    def __init__(self, reference, workload, seed):
        self.workload = workload
        self.digests = reference["digests"].get(workload, {})
        if workload == "cli-ops":
            self.digests = self.digests.get(str(seed), {})
        self.forms = reference["closed_forms"]
        self.seen = {}

    def check(self, job, result):
        """Returns None when the output is right, otherwise the reason."""
        reason = self.closed_form(job, result)
        if reason is not None:
            return reason
        dig = output_digest(job, result)
        first = self.seen.setdefault(job.name, dig)
        if first != dig:
            return "output differs between passes"
        want = self.digests.get(job.name)
        if want is not None and want != dig:
            return "digest %s != reference %s" % (dig, want)
        if want is None and self.workload != "cli-ops":
            return "no reference digest"
        return None

    def closed_form(self, job, result):
        """None when the result agrees with its closed form (if it has one)."""
        if job.check is None or self._agrees(job.check, result):
            return None
        return "closed form %s violated" % job.check

    def _agrees(self, name, result):
        forms = self.forms
        if name == "pbw_pass" or name == "dilog_pass":
            return result["pass"] is True
        if name.startswith("ori_"):
            table = result.table()
            return _entries(table) == sorted(x for x in forms[name] if sum(x[0]) <= table.maxdim)
        if name == "omega_b_l2":
            table = result.table()
            return _matches_form(table, forms[name], table.maxdim)
        if name == "omega_b_l2_division":
            table = result[(1,)]["table"]
            return _matches_form(table, forms["omega_b_l2"], 12)
        if name == "omega_d_l3":
            return _matches_form(result[(0,)]["table"], forms[name], 8)
        if name in ("omega_l2", "omega_l3"):
            return _matches_form(result, forms[name], 4)
        if name == "equivariant_l2":
            got = sorted([list(d), k, list(v)] for (d, k), v in result.entries.items() if 2 <= sum(d) <= 8)
            return got == forms[name]
        if name.startswith("loops_m"):
            form = forms[name]
            dt, lf_d, lf_c = result
            return (
                _matches_form(dt, form["omega"], 2)
                and _matches_form(lf_d[(0,)]["table"], form["omega_d"], 4)
                and _matches_form(lf_c[(0,)]["table"], form["omega_c"], 2)
            )
        raise KeyError(name)


def division_route(result, window):
    """Recomputes a loop quiver's W^prim table by the series division route
    and compares it on the quotient's validity windows; None when they agree."""
    table = result.table()
    quiver = table.quiver
    for w, part in hf.loop_factorization(quiver, table.maxdim, window).items():
        expected = {k: v for k, v in table.entries.items() if quiver.witt_class(k[0]) == w}
        got = {
            k: v
            for k, v in part["table"].entries.items()
            if table.validity.get(k[0]) is not None and k[1] <= table.validity[k[0]]
        }
        if got != expected:
            return "division route disagrees on Witt class %r" % (w,)
    return None


def check_cli_result(op, text):
    """The emitted result parsed back over the op's quiver is Weyl invariant,
    homogeneous and of the right degree; None when it is."""
    quiver = hf.parse_quiver(op.spec)
    lhs = json.loads(op.lhs)["d"]
    rhs = json.loads(op.rhs)["d"]
    doc = json.loads(text)
    if op.kind == "mul":
        cls, degree = hf.CohaElement, [a + b for a, b in zip(lhs, rhs)]
    else:
        cls, degree = hf.CohmElement, [a + b for a, b in zip(quiver.hyperbolic(lhs), rhs)]
    if doc["d"] != degree:
        return "degree %r, expected %r" % (doc["d"], degree)
    try:
        elem = cls.from_json_dict(quiver, doc)
    except hf.HallforgeError as exc:
        return "not a valid element: %s" % exc
    if not elem.is_invariant():
        return "not Weyl invariant"
    if not elem.poly.is_homogeneous():
        return "not homogeneous"
    return None
