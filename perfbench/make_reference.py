#!/usr/bin/env python3
"""Store the reference outputs of the table_based workload.

    python3 perfbench/make_reference.py

Runs every table_based invocation at each of the SIZE_SLOTS sizes the seeds
select and writes perfbench/reference.json: a digest for the scan CSV,
which must stay byte-identical, and the full text of the JSON/CSV outputs
whose floats the gate compares within a tolerance.  Regenerate only at a
commit whose outputs are trusted, and say why when a change alters them.
"""

import hashlib
import json
import sys

import workloads
from run import HERE, cli_cmd, run_child


def main() -> int:
    refs = {}
    for slot in range(workloads.SIZE_SLOTS):
        for argv in sorted(workloads.make("table_based", slot).argvs):
            c = run_child(cli_cmd(argv), 600)
            if c.code != 0:
                print(f"`{' '.join(argv)}` failed: {c.err}", file=sys.stderr)
                return 1
            if argv[0] == "scan":
                refs[" ".join(argv)] = {"sha256": hashlib.sha256(c.out.encode()).hexdigest(),
                                        "bytes": len(c.out.encode())}
            else:
                refs[" ".join(argv)] = {"floats": c.out}
            print(f"{c.wall:7.2f} s  {' '.join(argv)}", flush=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
