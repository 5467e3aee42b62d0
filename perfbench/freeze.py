"""Freeze the golden outputs of every job the workloads can draw.

    python3 perfbench/freeze.py            # fills in perfbench/golden.json

Run this only on the commit whose outputs are the reference (the commit
that introduced the benchmark); later commits are checked against it.
Jobs already in golden.json are kept, so after a pool grows only the new
jobs run (the 902 analyze-scan jobs take about 3 minutes on one core).
Their keys do not name ``workloads.SCAN_CAP``: after changing it, delete
the ``analyze|`` entries and freeze again.  A job that fails here is
stored as null and is checked by invariants only, so a later fix is not
penalised.  Known-failure register jobs are not frozen.
"""

from __future__ import annotations

import json
import signal
import sys

import run
import workloads as w
from checks import GOLDEN_PATH, canonical, check_cli, digest, job_key


def all_jobs() -> list[tuple]:
    jobs = []
    for label in w.corpus_labels():
        known = w.KNOWN_ISOGENY_FAILURES.get(label)
        for p in w.SCAN_PRIMES:
            if known and w.legendre(known[0], p) == -1:
                continue
            jobs += [("analyze", label, p, fm) for fm in (False, True)
                     if p > 17 or not fm]
    jobs += [("analyze", ai, p, fm) for ai, p in w.scan_random_pool()
             for fm in (False, True) if p > 17 or not fm]
    pool = w.search_pool()
    for stratum, _ in w.SEARCH_BLOCK:
        jobs += pool[stratum]
    for entries in w.bad_pool().values():
        jobs += entries
    return jobs


def load(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def freeze(jobs) -> dict:
    signal.signal(signal.SIGALRM, run._on_alarm)
    run.setup("local-bad")
    golden = {}
    for job in jobs:
        dt, out, err = run.timed(job)
        if err is not None:
            golden[job_key(job)] = None
            print(f"{job_key(job)}: {err} after {dt:.1f} s", file=sys.stderr, flush=True)
            continue
        if job[0] == "cli":
            problems, canon = check_cli(*out)
        else:
            canon = canonical(out)
            problems = run.check(job, out, {job_key(job): None})
        if problems:
            print(f"{job_key(job)}: {problems}", file=sys.stderr, flush=True)
        golden[job_key(job)] = digest(canon)
    return golden


def main() -> int:
    golden = load(GOLDEN_PATH)
    jobs = all_jobs()
    golden.update(freeze([j for j in jobs if job_key(j) not in golden]))
    GOLDEN_PATH.write_text(
        json.dumps({job_key(j): golden[job_key(j)] for j in jobs}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
