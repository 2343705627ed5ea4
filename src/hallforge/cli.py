"""Batch driver: load quiver specs, dispatch computations, emit reports.

Exit status: 0 on success/pass, 1 on a property failure (counterexample in
the report), 2 on input errors.  Identical inputs produce byte-identical
JSON; table output orders terms by (total dimension, lex vector, weight).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .coha import CohaElement, dt_invariants, equivariant_dt, shuffle_mul
from .cohm import CohmElement, cohm_action, ori_dt_invariants
from .errors import HallforgeError
from .finite_type import (
    build_typeA,
    dilog_identity_check,
    pbw_check_coha,
    pbw_check_cohm,
    thom_polynomial,
)
from .quiver import parse_quiver
from .series import dt_series, ori_dt_series, sign_pow

DEFAULT_SEED = 20140917


def _emit_json(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _coeff_str(k, c):
    """Render c * q^(k/2) with c the (-q^(1/2))^k-convention coefficient."""
    c = Fraction(c)
    if c.denominator == 1:
        c = c.numerator
    if k == 0:
        return str(c)
    if c == 1:
        head = ""
    elif c == -1:
        head = "-"
    else:
        head = "%s*" % c
    if k % 2 == 0:
        return "%sq^%d" % (head, k // 2)
    return "%sq^{%d/2}" % (head, k)


def _series_table(series, symbol):
    lines = []
    for (d, k), c in series.sorted_entries():
        lines.append("%s^%s : %s" % (symbol, ",".join(map(str, d)), _coeff_str(k, c)))
    return "\n".join(lines) + ("\n" if lines else "1\n")


def _table_of_invariants(table, symbol):
    lines = []
    for (d, k), m in table.sorted_entries():
        c = m * sign_pow(k)
        lines.append("%s^%s : %s" % (symbol, ",".join(map(str, d)), _coeff_str(k, c)))
    return "\n".join(lines) + ("\n" if lines else "1\n")


def emit_report(result, fmt, symbol="t", window=None):
    from .series import InvariantTable, QSeries, SignedInvariantTable

    if isinstance(result, QSeries):
        if fmt == "json":
            _emit_json(result.to_json_dict(window))
        else:
            sys.stdout.write(_series_table(result, symbol))
    elif isinstance(result, InvariantTable):
        if fmt == "json":
            doc = result.to_json_dict()
            doc["trunc"] = {"maxdim": result.maxdim, "window": window}
            _emit_json(doc)
        else:
            sys.stdout.write(_table_of_invariants(result, symbol))
    elif isinstance(result, SignedInvariantTable):
        if fmt == "json":
            doc = result.to_json_dict()
            doc["trunc"] = {"maxdim": result.maxdim, "window": window}
            _emit_json(doc)
        else:
            for (d, k), (p, m) in result.sorted_entries():
                sys.stdout.write(
                    "xi^%s : k=%d plus=%d minus=%d\n" % (",".join(map(str, d)), k, p, m)
                )
    else:
        _emit_json(result)


def _load_quiver(args):
    if not args.quiver:
        raise HallforgeError("--quiver is required for this subcommand")
    return parse_quiver(args.quiver)


def _build_rs(args):
    if not args.type or not args.type.upper().startswith("A"):
        raise HallforgeError("--type A<n> is required")
    n = int(args.type[1:])
    orient = args.orient if args.orient is not None else ">" * max(n - 1, 0)
    duality = {"orth": "orthogonal", "symp": "symplectic"}.get(args.duality, args.duality)
    return build_typeA(n, orient, duality)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="hallforge")
    ap.add_argument("command", choices=[
        "dt-series", "dt-invariants", "equivariant-dt", "ori-series",
        "ori-invariants", "mul", "act", "check", "dilog-check", "thom",
        "pbw-check",
    ])
    ap.add_argument("word", nargs="?")  # coha or cohm, read by pbw-check only
    ap.add_argument("--quiver")
    ap.add_argument("--max-dim", type=int, default=6)
    ap.add_argument("--window", type=int, default=16)
    ap.add_argument("--format", choices=["table", "json"], default="table")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--target")
    ap.add_argument("--lhs")
    ap.add_argument("--rhs")
    ap.add_argument("--coha")
    ap.add_argument("--cohm")
    ap.add_argument("--property")
    ap.add_argument("--type")
    ap.add_argument("--orient")
    ap.add_argument("--duality", default="orth")
    ap.add_argument("--mults")
    ap.add_argument("--bound", type=int, default=2)
    args = ap.parse_args(argv)

    try:
        return _dispatch(args)
    except HallforgeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def _parse_target(quiver, text):
    return quiver.check_selfdual_dim(tuple(int(x) for x in text.split(",")))


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# the file flags each subcommand reads
REQUIRED_FILES = {"mul": ("lhs", "rhs"), "act": ("coha", "cohm"), "thom": ("mults",)}


def _dispatch(args):
    for flag in ("max_dim", "window", "bound"):
        if getattr(args, flag) < 0:
            raise HallforgeError("--%s must be non-negative" % flag.replace("_", "-"))
    cmd = args.command
    if args.word is not None and cmd != "pbw-check":
        raise HallforgeError("%s takes no positional word, not %r" % (cmd, args.word))
    for flag in REQUIRED_FILES.get(cmd, ()):
        if getattr(args, flag) is None:
            raise HallforgeError("--%s is required for %s" % (flag, cmd))
    fmt = args.format
    if cmd == "dt-series":
        q = _load_quiver(args)
        emit_report(dt_series(q, args.max_dim, args.window), fmt, "t", args.window)
        return 0
    if cmd == "dt-invariants":
        q = _load_quiver(args)
        emit_report(dt_invariants(q, args.max_dim, args.window), fmt, "t", args.window)
        return 0
    if cmd == "equivariant-dt":
        q = _load_quiver(args)
        target = _parse_target(q, args.target) if args.target else q.zero()
        emit_report(equivariant_dt(q, target, args.max_dim, args.window), fmt, "xi", args.window)
        return 0
    if cmd == "ori-series":
        q = _load_quiver(args)
        emit_report(ori_dt_series(q, args.max_dim, args.window), fmt, "xi", args.window)
        return 0
    if cmd == "ori-invariants":
        q = _load_quiver(args)
        emit_report(ori_dt_invariants(q, args.max_dim, args.window).table(), fmt, "xi", args.window)
        return 0
    if cmd == "mul":
        q = _load_quiver(args)
        f = CohaElement.from_json_dict(q, _load_json(args.lhs))
        g = CohaElement.from_json_dict(q, _load_json(args.rhs))
        _emit_json(shuffle_mul(f, g).to_json_dict())
        return 0
    if cmd == "act":
        q = _load_quiver(args)
        f = CohaElement.from_json_dict(q, _load_json(args.coha))
        g = CohmElement.from_json_dict(q, _load_json(args.cohm))
        _emit_json(cohm_action(f, g).to_json_dict())
        return 0
    if cmd == "check":
        from .proputils import run_property

        q = _load_quiver(args)
        rep = run_property(q, args.property, args.seed, args.max_dim, args.window)
        out = {
            "property": rep.get("property", args.property),
            "pass": bool(rep["pass"]),
            "counterexample": rep.get("counterexample"),
        }
        _emit_json(out)
        return 0 if rep["pass"] else 1
    if cmd == "dilog-check":
        rs = _build_rs(args)
        rep = dilog_identity_check(rs, args.max_dim, args.window)
        _emit_json({
            "property": "dilog-identity",
            "pass": bool(rep["pass"]),
            "counterexample": rep["mismatches"][0] if rep["mismatches"] else None,
        })
        return 0 if rep["pass"] else 1
    if cmd == "thom":
        rs = _build_rs(args)
        doc = _load_json(args.mults)
        if not isinstance(doc, dict) or not all(isinstance(v, int) for v in doc.values()):
            raise HallforgeError('--mults must hold an object {"a,b": multiplicity} of integers')
        mults = {tuple(int(x) for x in k.split(",")): v for k, v in doc.items()}
        _emit_json(thom_polynomial(rs, mults).to_json_dict())
        return 0
    if cmd == "pbw-check":
        which = "coha" if args.word is None else args.word
        if which not in ("coha", "cohm"):
            raise HallforgeError("pbw-check takes coha or cohm, not %r" % which)
        rs = _build_rs(args)
        if which == "coha":
            rep = pbw_check_coha(rs, args.bound, args.window)
        else:
            rep = pbw_check_cohm(rs, args.bound, args.window)
        bad = {
            name: [
                {"slice": [list(k[0]), k[1]], "rows": v[0], "rank": v[1], "dim": v[2]}
                for k, v in rep[name]["slices"].items()
                if not (v[0] == v[1] == v[2])
            ]
            for name in ("simple", "indecomposable")
        }
        _emit_json({
            "property": "pbw-%s" % which,
            "pass": bool(rep["pass"]),
            "counterexample": (bad["simple"] + bad["indecomposable"] or [None])[0],
        })
        return 0 if rep["pass"] else 1
    raise HallforgeError("unknown subcommand %r" % cmd)


if __name__ == "__main__":
    sys.exit(main())
