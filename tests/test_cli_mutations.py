"""Seeded mutations of valid command lines, run through `cli.main` in this
process: exit 2 must mean bad input.  Every case exits 0, 1 or 2, an exit 2
writes `error:` to stderr, and no exception escapes, so an engine fault is
never read as bad input and bad input never surfaces as a traceback."""

import contextlib
import io
import json

from hallforge import cli
from hallforge.proputils import Lcg

L2 = {
    "nodes": ["1"],
    "arrows": [{"id": "l1", "tail": "1", "head": "1"}, {"id": "l2", "tail": "1", "head": "1"}],
    "sigma_nodes": {"1": "1"},
    "sigma_arrows": {"l1": "l1", "l2": "l2"},
    "s": {"1": 1},
    "tau": {"l1": -1, "l2": -1},
}
A1T = {
    "nodes": ["1", "2"],
    "arrows": [{"id": "a", "tail": "1", "head": "2"}, {"id": "b", "tail": "2", "head": "1"}],
    "sigma_nodes": {"1": "2", "2": "1"},
    "sigma_arrows": {"a": "a", "b": "b"},
    "s": {"1": 1, "2": 1},
    "tau": {"a": 1, "b": 1},
}
COHA = {"d": [1], "poly": [{"exp": {"x:1:1": 2}, "c": "3"}]}
COHM = {"d": [2], "poly": [{"exp": {"z:1:1": 2}, "c": "-1/2"}]}
MULTS = {"1,1": 1, "2,2": 1, "1,2": 0}

# values a mutation puts in place of a JSON value, a flag or a size
JUNK = [None, True, 0, 1, -1, 2, 1023, 5000, 1.5, "", "1", "x", "1,2", [], [1], {}, {"1": 1}]
FLAG_JUNK = ["", "1", "-1", "0,0", "1,2", "a", "1,,2", "2,x", "A", "A0", "A2", "A3", "A25", "B2", "Ax", ">", "<>", "><", "x"]
SIZES = ["0", "1", "2", "3", "-1", "x"]


def _mutate_doc(rng, doc):
    """doc with one value, key or list entry replaced, deleted or added, at
    a random depth."""
    if isinstance(doc, dict) and doc and rng.randint(0, 2):
        key = rng.choice(sorted(doc))
        out = dict(doc)
        action = rng.randint(0, 3)
        if action == 0:
            del out[key]
        elif action == 1:
            out[key] = rng.choice(JUNK)
        elif action == 2:
            out[key] = _mutate_doc(rng, doc[key])
        else:
            out[rng.choice(["x:1:2", "z:1:2", "extra", "1", "2,1"])] = rng.choice(JUNK)
        return out
    if isinstance(doc, list) and doc and rng.randint(0, 2):
        i = rng.randint(0, len(doc) - 1)
        out = list(doc)
        if rng.randint(0, 1):
            out[i] = _mutate_doc(rng, doc[i])
        else:
            out.append(rng.choice(JUNK))
        return out
    return rng.choice(JUNK)


def _text(rng, doc):
    """The JSON text of doc, mutated, or (one time in six) the text cut short."""
    text = json.dumps(_mutate_doc(rng, doc) if rng.randint(0, 3) else doc)
    if rng.randint(0, 5) == 0:
        text = text[: rng.randint(0, len(text))]
    return text


def _file(rng, tmp_path, name, doc):
    """The path of a file holding a mutated doc, raw bytes that are not
    UTF-8, or nothing."""
    path = tmp_path / name
    kind = rng.randint(0, 9)
    if kind == 0:
        return str(tmp_path / "missing.json")
    if kind == 1:
        path.write_bytes(b'{"d": [1], "poly": [\xff\xfe]}')
    else:
        path.write_text(_text(rng, doc))
    return str(path)


def _quiver(rng, tmp_path):
    doc = rng.choice([L2, A1T])
    if rng.randint(0, 1):
        return _text(rng, doc) if rng.randint(0, 2) else json.dumps(doc)
    return _file(rng, tmp_path, "quiver.json", doc)


def _argv(rng, tmp_path):
    command = rng.choice(
        ["dt-series", "dt-invariants", "equivariant-dt", "ori-series", "ori-invariants", "mul", "act", "check",
         "dilog-check", "thom", "pbw-check"]
    )
    argv = [command]
    if command == "pbw-check" and rng.randint(0, 3):
        argv.append(rng.choice(["coha", "cohm", "foo"]))
    if command in ("dilog-check", "thom", "pbw-check"):
        argv += ["--type", rng.choice(["A1", "A2", "A3"]) if rng.randint(0, 2) else rng.choice(FLAG_JUNK)]
        if rng.randint(0, 1):
            argv += ["--orient", rng.choice(FLAG_JUNK)]
        if rng.randint(0, 1):
            argv += ["--duality", rng.choice(["orth", "symp", "orthogonal", "symplectic", "foo", ""])]
    else:
        argv += ["--quiver", _quiver(rng, tmp_path)]
    if command == "mul":
        argv += ["--lhs", _file(rng, tmp_path, "lhs.json", COHA), "--rhs", _file(rng, tmp_path, "rhs.json", COHA)]
    if command == "act":
        argv += ["--coha", _file(rng, tmp_path, "coha.json", COHA), "--cohm", _file(rng, tmp_path, "cohm.json", COHM)]
    if command == "thom":
        argv += ["--mults", _file(rng, tmp_path, "mults.json", MULTS)]
    if command == "equivariant-dt" and rng.randint(0, 2):
        argv += ["--target", rng.choice(["0", "1", "0,0", "1,1", "2"] + FLAG_JUNK)]
    if command == "check":
        argv += ["--property", rng.choice(["module-relation", "parity", "witt", "disjoint", "factorization",
                                           "freeness", "nonsense", ""])]
    argv += ["--max-dim", rng.choice(SIZES), "--window", rng.choice(SIZES + ["6"])]
    if command == "pbw-check":
        argv += ["--bound", rng.choice(SIZES[:4])]
    if rng.randint(0, 3) == 0:
        argv += ["--format", rng.choice(["json", "table", "xml"])]
    if rng.randint(0, 4) == 0:
        argv.append(rng.choice(["--bogus", "extra"]))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code or 0, err.getvalue()


def test_mutated_command_lines_exit_0_1_or_2(tmp_path):
    rng = Lcg(20261019)
    codes = {}
    for case in range(400):
        argv = _argv(rng, tmp_path)
        code, err = _run(argv)  # an escaping exception fails the test here
        assert code in (0, 1, 2), (case, argv, code)
        if code == 2:
            assert "error:" in err, (case, argv, err)
        codes[code] = codes.get(code, 0) + 1
    # the mutations reach both the engine and the input checks
    assert codes.get(0, 0) > 20 and codes.get(2, 0) > 100, codes
