"""Exact subgroup counting in the unit groups (Z/nZ)^x, with the analytic
apparatus for their distribution statistics and maximal-order experiments.

The submodules are the API: `multgroup`, `pgroup`, `partitions`, `sieve`,
`ekstats`, `constants`, `extremal`, `polyops` and `cli`."""

__version__ = "0.1.0"
