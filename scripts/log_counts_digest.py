#!/usr/bin/env python3
"""Digest of one cold `multgroup.subgroup_count_arrays(table)` call with
`exact_logs` of both arrays: the sha256 of the two float64 arrays (log G and
log I over 0 <= n <= N, as raw bytes), the CPU seconds of the calls
(`time.process_time`, the table build excluded) and this process's peak RSS
(`ru_maxrss`, the table included).  Two checkouts compute the same arrays when
their digests agree.

    PYTHONPATH=src python scripts/log_counts_digest.py 1e7
"""

import argparse
import hashlib
import resource
import time

from multsub import cli, multgroup, sieve


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("N", type=lambda s: int(float(s)))
    N = parser.parse_args().N
    print(f"N {N}")
    table = sieve.build(N)
    start = time.process_time()
    log_g, log_i = map(multgroup.exact_logs, multgroup.subgroup_count_arrays(table))
    cpu = time.process_time() - start
    print(f"logG_sha256 {hashlib.sha256(log_g.tobytes()).hexdigest()}")
    print(f"logI_sha256 {hashlib.sha256(log_i.tobytes()).hexdigest()}")
    print(f"cpu_s {cpu:.3f}")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")


if __name__ == "__main__":
    cli.run_script("log_counts_digest", main)
