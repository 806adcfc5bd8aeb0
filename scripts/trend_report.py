#!/usr/bin/env python3
"""Sweep the desk-scale trend quantities: covariance ratios against their
leading-order predictions, normalized surrogate moments, and KS distances of
the normalized log G / log I samples.  Useful for seeing how slowly the
loglog-scale asymptotics take hold.

    PYTHONPATH=src python scripts/trend_report.py [--xs 1e5,1e6,1e7]
"""

import argparse
import math
import sys

sys.path.insert(0, "src")

from multsub import cli, constants, ekstats, multgroup, sieve  # noqa: E402
from multsub.ekstats import OMEGA0  # noqa: E402


def covariance_ratios(table, z):
    ll = math.log(math.log(z))
    rows = []
    qs = (2, 3, 4, 5)
    for i, q1 in enumerate(qs):
        for q2 in qs[i:]:
            cov = ekstats.covariance(q1, q2, z, table)
            rows.append((f"cov(w{q1},w{q2}) * phi(lcm)/loglog z",
                         cov * multgroup.euler_phi(math.lcm(q1, q2)) / ll))
    for q in qs:
        cov = ekstats.covariance(q, OMEGA0, z, table)
        rows.append((f"cov(w{q},w0) * 2 phi(q)/(loglog z)^2",
                     cov * 2 * multgroup.euler_phi(q) / ll**2))
    cov = ekstats.covariance(OMEGA0, OMEGA0, z, table)
    rows.append(("cov(w0,w0) * 3/(loglog z)^3", cov * 3 / ll**3))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--xs", default="1e5,1e6,1e7")
    parser.add_argument("--distribution-x", type=int, default=10**5)
    args = parser.parse_args()
    xs = [int(float(s)) for s in args.xs.split(",")]

    c = constants.NORMALIZATION[1]
    print(f"variance constant C = {c:.6f} (primes up to {constants.NORMALIZATION_PRIME_LIMIT:,})\n")

    for x in xs:
        table = sieve.build(x)
        ll = math.log(math.log(x))
        ms = ekstats.surrogate_moments([1, 2, 3], float(x))
        print(f"x = {x:.0e}: cutoff X = {ekstats.q_cutoff(x):.3f}, "
              f"prime powers in quadratic part: "
              f"{[q for q, _ in ekstats.surrogate_prime_powers(x)] or 'none'}")
        for h in (1, 2, 3):
            norm = ms[h] / (c ** (h / 2) * x * ll ** (3 * h / 2))
            print(f"  M_{h} = {ms[h]: .4e}   normalized = {norm: .4f}")
        for name, val in covariance_ratios(table, float(x)):
            print(f"  {name:<42s} = {val:.4f}")
        print()

    x = args.distribution_x
    table = sieve.build(x)
    for which in ("G", "I"):
        rep, _ = ekstats.distribution_report(table, which)
        mom = {h: round(v, 4) for h, v in rep.empirical_moments.items()}
        print(f"distribution of log {which}(n), n <= {x}: "
              f"KS = {rep.ks_distance:.4f}, moments = {mom}")


if __name__ == "__main__":
    cli.run_script("trend_report", main)
