"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one pass, untraced and traced, and checks that the
outputs are correct, that the printed metric names are the ones
BENCHMARK.json declares, that traced and untraced outputs agree, and that an
altered reference value is reported as a failure.  Exits 1 on the first
failed check.  Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 5


def expect(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        raise SystemExit(1)


def declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def test_every_workload():
    names, end_to_end, per_layer = declared()
    expect(tuple(names) == run.WORKLOADS, "BENCHMARK.json lists the workloads run.py accepts")
    for workload in run.WORKLOADS:
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            _, result = run.run(workload, SEED, 1, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            mode = "traced" if trace else "untraced"
            expect(result["correct"] and result["failed"] == 0, "%s %s run is correct" % (workload, mode))
            expect(got == wanted, "%s %s metrics and units match BENCHMARK.json" % (workload, mode))
            if trace:
                unattributed = result["metrics"]["trace.unattributed_pct"]["value"]
                expect(abs(unattributed) < 5, "%s layer self times cover the traced wall time" % workload)
            else:
                expect(all(m["value"] > 0 for m in result["metrics"].values()), "%s end-to-end metrics are nonzero" % workload)


def test_altered_reference_fails():
    reference = json.loads((HERE / "reference.json").read_text())
    bad_form = copy.deepcopy(reference)
    bad_form["closed_forms"]["omega_l2"]["1"] = {"-1": 1}
    _, result = run.run("numeric", SEED, 1, False, reference=bad_form)
    expect(not result["correct"] and result["failed"] == 1, "an altered closed form fails exactly its job")
    bad_digest = copy.deepcopy(reference)
    name = sorted(bad_digest["digests"]["module"])[0]
    bad_digest["digests"]["module"][name] = "0" * 16
    _, result = run.run("module", SEED, 1, False, reference=bad_digest)
    expect(not result["correct"] and result["failed"] == 1, "an altered digest fails exactly its job")


def test_traced_outputs_equal_untraced():
    jobs = [w for workload in ("algebra", "module", "numeric") for w in workloads.jobs_for(workload, SEED)()[:2]]
    jobs += workloads.jobs_for("cli-ops", SEED)()[:20]
    plain = [workloads.output_digest(job, job.run()) for job in jobs]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced = [workloads.output_digest(job, job.run()) for job in jobs]
        tracer.active = False
    finally:
        tracer.uninstall()
    expect(traced == plain, "traced and untraced output digests agree")
    expect(tracer.count.get("trace.spans", 0) > 0, "the tracer recorded spans")
    import hallforge.cohm as cohm
    import hallforge.finite_type as finite_type

    expect(
        not hasattr(cohm.shuffle_mul, "__wrapped__") and not hasattr(finite_type.schur, "__wrapped__"),
        "uninstall restores every rebound alias",
    )


def test_missing_sources_refused():
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bench = Path(tmp) / "perfbench"
        bench.mkdir()
        for path in HERE.glob("*.py"):
            (bench / path.name).write_bytes(path.read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "numeric", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "a checkout without sources exits nonzero and prints no result")


def main():
    test_missing_sources_refused()
    test_traced_outputs_equal_untraced()
    test_altered_reference_fails()
    test_every_workload()
    print("all self-tests passed")


if __name__ == "__main__":
    main()
