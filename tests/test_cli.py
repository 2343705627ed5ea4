import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hallforge import cli

L2_DOC = {
    "nodes": ["1"],
    "arrows": [
        {"id": "l1", "tail": "1", "head": "1"},
        {"id": "l2", "tail": "1", "head": "1"},
    ],
    "sigma_nodes": {"1": "1"},
    "sigma_arrows": {"l1": "l1", "l2": "l2"},
    "s": {"1": 1},
    "tau": {"l1": -1, "l2": -1},
}


def run_entry(args, timeout=None):
    """(exit code, stdout, stderr) of `python -m hallforge.cli args`: for the
    entry point itself and for the checks that bad input prints no
    traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "hallforge.cli"] + args,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args):
    """What run_entry returns, from cli.main(args) in this process: the
    streams are captured, and argparse's SystemExit gives the exit code, as
    `sys.exit(main())` does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return code or 0, out.getvalue(), err.getvalue()


@pytest.fixture()
def l2_path(tmp_path):
    p = tmp_path / "L2.json"
    p.write_text(json.dumps(L2_DOC))
    return str(p)


def test_dt_invariants_table(l2_path):
    code, out, _ = run_entry(["dt-invariants", "--quiver", l2_path, "--max-dim", "2", "--window", "12"])
    assert code == 0
    assert out.splitlines() == ["t^1 : -q^{-1/2}", "t^2 : q^-2"]


def test_byte_determinism(l2_path):
    args = ["ori-invariants", "--quiver", l2_path, "--max-dim", "5", "--window", "14", "--format", "json"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2 and out1


def test_series_json_roundtrip(l2_path):
    code, out, _ = run_cli(["dt-series", "--quiver", l2_path, "--max-dim", "3", "--window", "10", "--format", "json"])
    assert code == 0
    from hallforge.quiver import parse_quiver
    from hallforge.series import QSeries, dt_series

    q = parse_quiver(L2_DOC)
    back = QSeries.from_json_dict(q, json.loads(out))
    ok, _ = back.agrees_with(dt_series(q, 3, 10))
    assert ok


def test_missing_file_exit2():
    code, _, err = run_cli(["dt-series", "--quiver", "/nonexistent/q.json"])
    assert code == 2 and "error" in err


def test_malformed_doc_exit2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"nodes": ["1"]}')
    code, _, err = run_cli(["dt-series", "--quiver", str(p)])
    assert code == 2


@pytest.mark.parametrize("field, value, message", [
    # signs are exact ints: a bool, a float or a string equal to +-1 is refused
    ("s", {"1": True}, "must be +1 or -1"),
    ("tau", {"l1": 1.0, "l2": -1}, "must be +1 or -1"),
    ("tau", {"l1": "-1", "l2": -1}, "must be +1 or -1"),
    ("s", [1], "malformed quiver spec"),
    ("sigma_nodes", ["1"], "malformed quiver spec"),
])
def test_malformed_quiver_spec_exit2(tmp_path, field, value, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(L2_DOC, **{field: value})))
    code, out, err = run_entry(["dt-series", "--quiver", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_check_property_pass(l2_path):
    code, out, _ = run_cli(["check", "--property", "module-relation", "--quiver", l2_path, "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["property"] == "module-relation"


def test_check_factorization(l2_path):
    code, out, _ = run_cli([
        "check", "--property", "factorization", "--quiver", l2_path,
        "--max-dim", "5", "--window", "10",
    ])
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("prop, name", [("factorization", "general_factorization_check"), ("freeness", "check_freeness")])
def test_check_sizes_reach_the_property(monkeypatch, l2_path, prop, name):
    """`check` hands --max-dim and --window to the property as given, 0
    included; the fallback (6, 12) is only for sizes not given at all."""
    from hallforge import proputils
    from hallforge.quiver import loop_quiver

    seen = []
    real = getattr(proputils, name)

    def recorded(quiver, maxdim, window):
        seen.append((maxdim, window))
        return real(quiver, maxdim, window)

    monkeypatch.setattr(proputils, name, recorded)
    for maxdim, window in (("0", "0"), ("0", "3"), ("2", "0")):
        code, out, _ = run_cli(["check", "--property", prop, "--quiver", l2_path, "--max-dim", maxdim, "--window", window])
        assert code == 0 and json.loads(out)["pass"] is True
    assert seen == [(0, 0), (0, 3), (2, 0)]
    assert proputils.run_property(loop_quiver(2), prop, 1)["pass"] is True
    assert seen[-1] == (6, 12)


def test_mul_act_files(tmp_path, l2_path):
    from hallforge.coha import CohaElement
    from hallforge.cohm import CohmElement
    from hallforge.poly import Poly
    from hallforge.quiver import parse_quiver

    q = parse_quiver(L2_DOC)
    f = CohaElement(q, (1,), Poly.variable(1, 0))
    g = CohmElement.unit(q, (1,))
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(f.to_json_dict()))
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps(f.to_json_dict()))
    code, out, _ = run_cli(["mul", "--quiver", l2_path, "--lhs", str(fp), "--rhs", str(gp)])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == [2]
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(g.to_json_dict()))
    code, out, _ = run_cli(["act", "--quiver", l2_path, "--coha", str(fp), "--cohm", str(mp)])
    assert code == 0
    assert json.loads(out)["d"] == [3]


def test_dilog_check_cli():
    code, out, _ = run_cli(["dilog-check", "--type", "A2", "--orient", ">", "--duality", "orth", "--max-dim", "4", "--window", "12"])
    assert code == 0 and json.loads(out)["pass"] is True


def test_thom_cli(tmp_path):
    mp = tmp_path / "mults.json"
    mp.write_text(json.dumps({"1,1": 1, "2,2": 1, "1,2": 0}))
    code, out, _ = run_cli(["thom", "--type", "A2", "--orient", ">", "--duality", "symp", "--mults", str(mp)])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == [1, 1]
    assert doc["poly"] == [{"exp": {"z:01:1": 1}, "c": "-2"}]


def test_pbw_check_cli():
    code, out, _ = run_cli(["pbw-check", "coha", "--type", "A2", "--orient", ">", "--duality", "orth", "--bound", "2", "--window", "6"])
    assert code == 0 and json.loads(out)["pass"] is True


def test_pbw_check_cohm_a3_cli():
    # exited 1 while the check gave every product the flat budget window // 2
    code, out, _ = run_cli(["pbw-check", "cohm", "--type", "A3", "--orient", ">>", "--duality", "orth", "--bound", "3", "--window", "8"])
    assert code == 0
    assert json.loads(out) == {"property": "pbw-cohm", "pass": True, "counterexample": None}


def test_pbw_check_unknown_word_exit2(l2_path):
    code, out, err = run_entry(["pbw-check", "foo", "--type", "A2", "--bound", "1", "--window", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'foo'" in err and "Traceback" not in err
    # a word after any other command, or a second word, is refused as well
    code, out, err = run_entry(["dt-invariants", "foo", "--quiver", l2_path, "--max-dim", "1", "--window", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'foo'" in err and "Traceback" not in err
    for argv in (
        ["dt-invariants", "foo", "bar", "--quiver", l2_path, "--max-dim", "1", "--window", "2"],
        ["pbw-check", "coha", "extra", "words", "--type", "A2", "--bound", "1", "--window", "2"],
    ):
        code, out, err = run_entry(argv)
        assert code == 2 and out == "" and "Traceback" not in err, argv


@pytest.mark.parametrize("rank", ["A", "Ax", "A3.5", "A 3", "B3"])
def test_malformed_type_exit2(rank):
    """A --type that is not A followed by digits names the flag, where it
    used to surface int()'s "invalid literal" message."""
    code, out, err = run_cli(["pbw-check", "coha", "--type", rank, "--bound", "1", "--window", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: --type must be A<n>") and repr(rank) in err
    assert "invalid literal" not in err


def test_unknown_property(l2_path):
    code, _, err = run_cli(["check", "--property", "nonsense", "--quiver", l2_path])
    assert code == 2


def test_table_renders_minimal_l0(tmp_path):
    p = tmp_path / "L0.json"
    p.write_text(json.dumps({
        "nodes": ["1"], "arrows": [], "sigma_nodes": {"1": "1"},
        "sigma_arrows": {}, "s": {"1": 1}, "tau": {},
    }))
    code, out, _ = run_cli(["dt-invariants", "--quiver", str(p), "--max-dim", "3", "--window", "8"])
    assert code == 0 and out == "t^1 : -q^{1/2}\n"


def test_property_failure_exit1(tmp_path):
    p = tmp_path / "A2.json"
    p.write_text(json.dumps({
        "nodes": ["1", "2"],
        "arrows": [{"id": "a", "tail": "1", "head": "2"}],
        "sigma_nodes": {"1": "2", "2": "1"},
        "sigma_arrows": {"a": "a"},
        "s": {"1": 1, "2": 1},
        "tau": {"a": -1},
    }))
    # weight-parity additivity is a sigma-symmetric statement; on a
    # non-sigma-symmetric quiver the suite must report a counterexample
    code, out, _ = run_cli(["check", "--property", "parity", "--quiver", str(p), "--seed", "3"])
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["counterexample"] is not None


def test_thread_pool_byte_identical(l2_path):
    import os

    args = ["ori-invariants", "--quiver", l2_path, "--max-dim", "5", "--window", "12", "--format", "json"]
    env = dict(os.environ)
    env["HALLFORGE_THREADS"] = "0"
    seq = subprocess.run(
        [sys.executable, "-m", "hallforge.cli"] + args, capture_output=True, text=True, env=env
    )
    env["HALLFORGE_THREADS"] = "3"
    par = subprocess.run(
        [sys.executable, "-m", "hallforge.cli"] + args, capture_output=True, text=True, env=env
    )
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout


def test_exponent_overflow_exit2(tmp_path):
    q = tmp_path / "L1.json"
    q.write_text(json.dumps({
        "nodes": ["1"], "arrows": [{"id": "l", "tail": "1", "head": "1"}],
        "sigma_nodes": {"1": "1"}, "sigma_arrows": {"l": "l"}, "s": {"1": 1}, "tau": {"l": 1},
    }))
    f = tmp_path / "f.json"
    # the loop factor x'' - x' lifts the packed maximum 1023 to 1024
    f.write_text(json.dumps({"d": [1], "poly": [{"exp": {"x:1:1": 1023}, "c": "1"}]}))
    code, out, err = run_entry(["mul", "--quiver", str(q), "--lhs", str(f), "--rhs", str(f)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["dt-invariants", "--window", "-7"],
    ["ori-invariants", "--max-dim", "-1"],
    ["dt-invariants", "--max-dim", "-3"],
    ["pbw-check", "coha", "--type", "A2", "--bound", "-1"],
    # an empty root system is refused, not checked vacuously
    ["pbw-check", "coha", "--type", "A0", "--bound", "1", "--window", "2"],
    ["pbw-check", "cohm", "--type", "A-1", "--bound", "1", "--window", "2"],
])
def test_negative_size_exit2(l2_path, args):
    code, out, err = run_entry(args + ["--quiver", l2_path])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


# stdout of the series commands on L2 (max-dim 5, window 14), recorded before
# the series coefficients became plain ints
GOLDEN_L2 = Path(__file__).parent / "data" / "cli_golden_l2.json"


@pytest.mark.parametrize("command", ["dt-series", "dt-invariants", "ori-series", "equivariant-dt"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_series_output_golden(l2_path, command, fmt):
    golden = json.loads(GOLDEN_L2.read_text())
    code, out, err = run_cli([command, "--quiver", l2_path, "--max-dim", "5", "--window", "14", "--format", fmt])
    assert code == 0 and err == ""
    assert out == golden["%s --format %s" % (command, fmt)]


def test_enumeration_work_cap_exit2(tmp_path):
    p = tmp_path / "three.json"
    p.write_text(json.dumps({
        "nodes": ["1", "2", "3"], "arrows": [],
        "sigma_nodes": {"1": "1", "2": "2", "3": "3"}, "sigma_arrows": {},
        "s": {"1": 1, "2": 1, "3": 1}, "tau": {},
    }))
    # C(2003, 3), about 1.3e9 classes: refused before any is enumerated
    code, out, err = run_entry(["dt-series", "--quiver", str(p), "--max-dim", "2000"], timeout=60)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "work cap" in err and "Traceback" not in err


@pytest.mark.parametrize("command, window", [("dt-series", "1000000000"), ("ori-series", "300000000")])
def test_series_cell_cap_exit2(monkeypatch, l2_path, command, window):
    from hallforge import series

    def unreachable(*args):
        raise AssertionError("a dense window was allocated")

    monkeypatch.setattr(series, "_add_class", unreachable)
    code, out, err = run_cli([command, "--quiver", l2_path, "--window", window])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "work cap" in err


@pytest.mark.parametrize(
    "args",
    [["dilog-check", "--type", "A200"], ["pbw-check", "--type", "A2000", "--bound", "0", "--window", "0"]],
)
def test_root_pair_cap_exit2(monkeypatch, args):
    """A type A rank whose root pairs exceed MAX_ROOT_PAIRS exits 2 before
    the Auslander-Reiten order is built."""
    from hallforge import finite_type

    def unreachable(rs):
        raise AssertionError("ar_order reached")

    monkeypatch.setattr(finite_type, "ar_order", unreachable)
    code, out, err = run_cli(args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "work cap" in err


def test_product_cap_exit2():
    """A dilogarithm check whose series products outgrow MAX_PRODUCT_PAIRS
    exits 2 at the first such product, before it multiplies a term pair."""
    code, out, err = run_cli(["dilog-check", "--type", "A3", "--orient", ">>", "--max-dim", "300", "--window", "400"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "series product" in err and "work cap" in err


@pytest.mark.parametrize("command", ["ori-invariants", "equivariant-dt"])
def test_quotient_slice_cap_exit2(monkeypatch, tmp_path, command):
    """A1~ is not a loop quiver, so equivariant-dt takes the quotient route."""
    from hallforge import coha, graded
    from hallforge.quiver import a1_tilde

    def unreachable(*args):
        raise AssertionError("a slice was computed")

    monkeypatch.setattr(graded, "_class_slices", unreachable)
    monkeypatch.setattr(coha, "generator_complement", unreachable)
    path = tmp_path / "A1t.json"
    path.write_text(json.dumps(a1_tilde().to_dict()))
    code, out, err = run_cli([command, "--quiver", str(path), "--max-dim", "2", "--window", "300000000"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "work cap" in err and "Traceback" not in err


# stdout of the element-layer commands (mul, act, ori-invariants, thom,
# pbw-check) on fixed operands, recorded before the CoHA and CoHM element
# code was merged into one graded layer (the two "ori-invariants ... table"
# cases were recorded before the CLI's table renderers were merged); "@name"
# arguments are written from the "quivers", "operands" and "mults" documents
# of the same file
GOLDEN_ELEMENTS = json.loads((Path(__file__).parent / "data" / "cli_golden_elements.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN_ELEMENTS["cases"]))
def test_element_output_golden(tmp_path, case):
    def resolve(arg):
        if not arg.startswith("@"):
            return arg
        name = arg[1:]
        if name == "mults":
            doc = GOLDEN_ELEMENTS["mults"]
        elif ":" in name:
            quiver, operand = name.split(":")
            doc = GOLDEN_ELEMENTS["operands"][quiver][operand]
        else:
            doc = GOLDEN_ELEMENTS["quivers"][name]
        path = tmp_path / (name.replace(":", "-") + ".json")
        path.write_text(json.dumps(doc))
        return str(path)

    golden = GOLDEN_ELEMENTS["cases"][case]
    code, out, err = run_cli([resolve(a) for a in golden["args"]])
    assert code == 0 and err == ""
    assert out == golden["stdout"]


ONE_VAR = {"d": [1], "poly": [{"exp": {"x:1:1": 1}, "c": "1"}]}


@pytest.mark.parametrize("command, files, message", [
    ("mul", {"lhs": [], "rhs": ONE_VAR}, "element document"),
    ("mul", {"lhs": {"d": [1], "poly": "oops"}, "rhs": ONE_VAR}, "element document"),
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:9:9": 1}, "c": "1"}]}, "rhs": ONE_VAR}, "unknown variable 'x:9:9'"),
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": 1}, "c": "one"}]}, "rhs": ONE_VAR}, "rational coefficient"),
    ("mul", {"lhs": ONE_VAR}, "--rhs is required"),
    ("mul", {"rhs": ONE_VAR}, "--lhs is required"),
    ("act", {"coha": ONE_VAR}, "--cohm is required"),
    ("act", {"cohm": {"d": [1], "poly": []}}, "--coha is required"),
    ("thom", {"mults": [1]}, "--mults must hold an object"),
    ("thom", {}, "--mults is required"),
    ("thom", {"mults": {"1,1": True, "2,2": True}}, "--mults must hold an object"),
    # floats and bools are refused, not rounded
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": 1}, "c": 0.1}]}, "rhs": ONE_VAR}, "rational coefficient"),
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": 1}, "c": True}]}, "rhs": ONE_VAR}, "rational coefficient"),
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": 1.0}, "c": "1"}]}, "rhs": ONE_VAR}, "integer exponents"),
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": True}, "c": "1"}]}, "rhs": ONE_VAR}, "integer exponents"),
    ("mul", {"lhs": {"d": [1.7], "poly": []}, "rhs": ONE_VAR}, "list of integers"),
    ("act", {"coha": ONE_VAR, "cohm": {"d": [False], "poly": []}}, "list of integers"),
    # a zero denominator is malformed input, not a ZeroDivisionError
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": 1}, "c": "1/0"}]}, "rhs": ONE_VAR}, "rational coefficient"),
    ("act", {"coha": {"d": [1], "poly": [{"exp": {"x:1:1": 1}, "c": "1/0"}]}, "cohm": {"d": [1], "poly": []}},
     "rational coefficient"),
    # a repeated monomial is refused, not overwritten by the last term
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": 1}, "c": "1"}, {"exp": {"x:1:1": 1}, "c": "2"}]},
             "rhs": ONE_VAR}, "repeats the monomial"),
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {}, "c": "1"}, {"exp": {"x:1:1": 0}, "c": "1"}]},
             "rhs": ONE_VAR}, "repeats the monomial"),
    # every exponent is an int in 0..MAXDEG, also in a zero term
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": -1}, "c": 0}]}, "rhs": ONE_VAR}, "negative exponent"),
    ("mul", {"lhs": {"d": [1], "poly": [{"exp": {"x:1:1": 5000}, "c": "0"}]}, "rhs": ONE_VAR}, "out of packed range"),
    ("mul", {"lhs": ONE_VAR, "rhs": {"d": [1], "poly": [{"exp": {"x:1:1": -1}, "c": "1"}]}}, "negative exponent"),
    ("act", {"coha": {"d": [1], "poly": [{"exp": {"x:1:1": 1024}, "c": "1"}]}, "cohm": {"d": [1], "poly": []}},
     "out of packed range"),
    ("act", {"coha": ONE_VAR, "cohm": {"d": [2], "poly": [{"exp": {"z:1:1": -2}, "c": "1"}]}}, "negative exponent"),
    # an element product past MAX_POLY_PAIRS exits 2 at the first arrow
    # numerator over the cap, in seconds; uncapped it ran for minutes
    ("mul", {"lhs": {"d": [16], "poly": [{"exp": {}, "c": "1"}]}, "rhs": {"d": [1], "poly": [{"exp": {}, "c": "1"}]}},
     "polynomial product of 2239488 term pairs exceeds the work cap"),
])
def test_malformed_element_input_exit2(tmp_path, l2_path, command, files, message):
    args = [command, "--quiver", l2_path] if command != "thom" else [command, "--type", "A2"]
    for flag, doc in files.items():
        path = tmp_path / ("%s.json" % flag)
        path.write_text(json.dumps(doc))
        args += ["--" + flag, str(path)]
    code, out, err = run_entry(args, timeout=20)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_non_integer_thread_count_exit2(l2_path):
    import os

    env = dict(os.environ, HALLFORGE_THREADS="two")
    proc = subprocess.run(
        [sys.executable, "-m", "hallforge.cli", "ori-invariants", "--quiver", l2_path, "--max-dim", "2", "--window", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "HALLFORGE_THREADS='two'" in proc.stderr and "Traceback" not in proc.stderr


def test_engine_value_error_propagates(monkeypatch, tmp_path, l2_path):
    """Only a HallforgeError exits 2: a ValueError raised inside the engine
    is a fault, not bad input, and reaches the caller."""

    def broken(f, g):
        raise ValueError("an engine fault")

    monkeypatch.setattr(cli, "shuffle_mul", broken)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_VAR))
    with pytest.raises(ValueError, match="an engine fault"):
        cli.main(["mul", "--quiver", l2_path, "--lhs", str(path), "--rhs", str(path)])


@pytest.mark.parametrize("args, message", [
    (["equivariant-dt", "--target", "1,x"], "--target '1,x' is not a comma-separated list of integers"),
    (["dt-series", "--quiver", "{not json"], "cannot read a quiver spec"),
    (["check", "--property", "nonsense"], "unknown property 'nonsense'"),
])
def test_input_errors_are_converted_where_they_are_read(l2_path, args, message):
    if "--quiver" not in args:
        args = args + ["--quiver", l2_path]
    code, out, err = run_cli(args)
    assert code == 2 and out == "" and err.startswith("error:") and message in err, err


def test_unreadable_element_file_exit2(tmp_path, l2_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"d": [1], "poly": [\xff]}')
    for path in (str(bad), str(tmp_path / "missing.json")):
        code, out, err = run_cli(["mul", "--quiver", l2_path, "--lhs", path, "--rhs", path])
        assert code == 2 and out == "" and err.startswith("error: cannot read JSON from"), err


def test_malformed_mults_key_exit2(tmp_path):
    path = tmp_path / "mults.json"
    path.write_text(json.dumps({"1,x": 1}))
    code, out, err = run_cli(["thom", "--type", "A2", "--mults", str(path)])
    assert code == 2 and out == "" and err.startswith("error: --mults key '1,x' is not"), err
