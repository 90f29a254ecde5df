#!/usr/bin/env python3
"""Regenerate the numerator digests in perfbench/reference.json.

    python3 perfbench/make_reference.py [workload ...]

Answers the first queries of every workload's catalogue (or of the named
ones) in catalogue order, checks each answer with everything but the
digests, and stores one digest per query; a run checks every query it
answers, on any seed, against the digest at the query's catalogue index.
Run it only when the catalogues in workloads.py change on purpose; a digest
that changes for any other reason is a wrong result.  The flagship
pin in the same file is written by hand and left as it is.
"""

from __future__ import annotations

import itertools
import json
import sys

import run

# More queries than one run answers, so every query of a run is checked
# against a digest.
COUNTS = {"fresh_ladders": 800, "minor_sweep": 400, "crosscheck": 1500}


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text())
    lib = run.import_library()
    run.check_flagship(lib, reference)
    for workload in sys.argv[1:] or COUNTS:
        count = COUNTS[workload]
        stream = itertools.chain.from_iterable(run.WORKLOADS[workload]())
        ladder = None
        digests = []
        for i in range(count):
            q = next(stream)
            if workload == "minor_sweep" and ladder is None:
                ladder = lib.validate_ladder(q.a, q.b, q.values)
            ans = run.answer(lib, q, ladder)
            problems = run.check(lib, q, ans, None)
            if problems:
                print(f"{workload} query {i}: {problems}", file=sys.stderr)
                return 1
            digests.append(run.digest(ans.series))
        reference["digests"][workload] = digests
        print(f"{workload}: {count} digests")
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
