"""Records the output digests in reference.json from the current sources.

    python3 perfbench/record_reference.py

Run it only when a workload's jobs change, never to make a changed output
pass: the digests pin the outputs the benchmark accepts.  Every job must
first agree with its closed form and independent checks.  cli-ops digests
are recorded for the first batch of the seeds in CLI_SEEDS.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

CLI_SEEDS = range(16)


def checked_digest(checker, job):
    result = job.run()
    reason = checker.closed_form(job, result)
    if reason is None and job.verify is not None:
        reason = job.verify(result)
    if reason is not None:
        raise SystemExit("%s: %s" % (job.name, reason))
    return workloads.output_digest(job, result)


def main():
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    digests = {}
    for workload in ("algebra", "module", "numeric"):
        checker = workloads.Checker(reference, workload, 0)
        jobs = workloads.jobs_for(workload, 0)()
        digests[workload] = {job.name: checked_digest(checker, job) for job in jobs}
    checker = workloads.Checker(reference, "cli-ops", 0)
    digests["cli-ops"] = {
        str(seed): {job.name: checked_digest(checker, job) for job in workloads.jobs_for("cli-ops", seed)()}
        for seed in CLI_SEEDS
    }
    reference["digests"] = digests
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
