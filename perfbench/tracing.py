"""Per-layer tracing of in-process CLI runs.

`Tracer.install()` replaces the program's public functions with timing
wrappers at every name through which callers look them up: `from x import f`
binds a copy, so `multgroup.subgroup_count` is patched as well as
`pgroup.subgroup_count`.  A span stack gives self time (total time minus the
time of wrapped children).  Per-n calls are only aggregated; spans are kept
for the CLI invocations and for the calls cli makes directly.  `restore()`
puts every original back.  A site whose name no longer exists is skipped,
and a metric with no installed site is reported absent.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter


def _table_free(args, kwargs) -> bool:
    n = args[0] if args else kwargs["n"]
    table = args[1] if len(args) > 1 else kwargs.get("table")
    return table is None or n > table.N


def _pgroup_key(args, kwargs):
    g = args[0] if args else kwargs["g"]
    return g.p, g.alpha.parts


# (module, attribute, layer).  Several sites share a layer when the same
# function is reachable under several names.
SITES = (
    ("sieve", "build", "sieve.build"),
    ("sieve", "primes_up_to", "sieve.primes_up_to"),
    ("constants", "primes_up_to", "sieve.primes_up_to"),
    ("ekstats", "primes_up_to", "sieve.primes_up_to"),
    ("extremal", "primes_up_to", "sieve.primes_up_to"),
    ("sieve", "omega_q_table", "sieve.omega_q_table"),
    ("sieve", "is_prime", "sieve.is_prime"),
    ("pgroup", "is_prime", "sieve.is_prime"),
    ("extremal", "is_prime", "sieve.is_prime"),
    ("multgroup", "factorize", "multgroup.factorize"),
    ("multgroup", "sylow_decomposition", "multgroup.sylow_decomposition"),
    ("multgroup", "subgroup_counts", "multgroup.subgroup_counts"),
    ("multgroup", "enumerate_subgroups_oracle", "multgroup.enumerate_subgroups_oracle"),
    ("multgroup", "classify_isoclasses_oracle", "multgroup.classify_isoclasses_oracle"),
    ("pgroup", "subgroup_count", "pgroup.subgroup_count"),
    ("multgroup", "subgroup_count", "pgroup.subgroup_count"),
    ("partitions", "count_subpartitions", "partitions.count_subpartitions"),
    ("multgroup", "count_subpartitions", "partitions.count_subpartitions"),
    ("partitions.Partition", "conjugate", "partitions.conjugate"),
    ("ekstats", "distribution_report", "ekstats.distribution_report"),
    ("ekstats", "ks_distance_normal", "ekstats.ks_distance_normal"),
    ("ekstats", "surrogate_moments", "ekstats.surrogate_moments"),
    ("ekstats", "chunked_sum", "ekstats.chunked_sum"),
    ("constants", "compute_A0", "constants.compute_A0"),
    ("constants", "compute_B_report", "constants.compute_B_report"),
    ("constants", "compute_C", "constants.compute_C"),
    ("constants", "infinite_sum_checks", "constants.infinite_sum_checks"),
    ("polyops", "phi_h", "polyops.phi_h"),
    ("polyops", "psi", "polyops.psi"),
    ("extremal", "scan_max", "extremal.scan_max"),
)
# Only the table-free path of factorize is a layer of its own; calls that
# read the sieve table are left unwrapped in effect.
WHEN = {"multgroup.factorize": _table_free}
KEY = {"pgroup.subgroup_count": _pgroup_key}
# Per-call durations (for p50/ptail) are kept only during one CLI command:
# the percentiles are per `count` query, not over verify's small n.
DURATIONS = {"multgroup.subgroup_counts": "count"}
RESULT_LEN = {"multgroup.enumerate_subgroups_oracle"}
# The closure oracle is timed as one layer: classify calls enumerate.
GROUP = {"multgroup.enumerate_subgroups_oracle": "multgroup.oracle",
         "multgroup.classify_isoclasses_oracle": "multgroup.oracle"}

# Reported per-layer metrics: name -> (layer, statistic, unit).  `s` is total
# time (outermost activations only), `self_s` excludes wrapped children.
METRICS = {
    "sieve.build.s": ("sieve.build", "s", "s"),
    "sieve.build.calls": ("sieve.build", "calls", "count"),
    "sieve.primes_up_to.s": ("sieve.primes_up_to", "s", "s"),
    "sieve.omega_q_table.s": ("sieve.omega_q_table", "s", "s"),
    "sieve.omega_q_table.calls": ("sieve.omega_q_table", "calls", "count"),
    "sieve.is_prime.calls": ("sieve.is_prime", "calls", "count"),
    "multgroup.factorize.s": ("multgroup.factorize", "s", "s"),
    "multgroup.factorize.calls": ("multgroup.factorize", "calls", "count"),
    "multgroup.sylow_decomposition.s": ("multgroup.sylow_decomposition", "s", "s"),
    "multgroup.sylow_decomposition.calls": ("multgroup.sylow_decomposition", "calls", "count"),
    "multgroup.subgroup_counts.s": ("multgroup.subgroup_counts", "s", "s"),
    "multgroup.subgroup_counts.calls": ("multgroup.subgroup_counts", "calls", "count"),
    "multgroup.subgroup_counts.p50_ms": ("multgroup.subgroup_counts", "p50_ms", "ms"),
    "multgroup.subgroup_counts.ptail_ms": ("multgroup.subgroup_counts", "ptail_ms", "ms"),
    "multgroup.oracle.s": ("multgroup.oracle", "s", "s"),
    "multgroup.oracle.subgroups": ("multgroup.enumerate_subgroups_oracle", "subgroups", "count"),
    "multgroup.oracle.refused_share": ("multgroup.enumerate_subgroups_oracle", "refused_share", "share"),
    "pgroup.subgroup_count.s": ("pgroup.subgroup_count", "s", "s"),
    "pgroup.subgroup_count.calls": ("pgroup.subgroup_count", "calls", "count"),
    "pgroup.subgroup_count.distinct_share": ("pgroup.subgroup_count", "distinct_share", "share"),
    "partitions.count_subpartitions.s": ("partitions.count_subpartitions", "s", "s"),
    "partitions.count_subpartitions.calls": ("partitions.count_subpartitions", "calls", "count"),
    "partitions.conjugate.s": ("partitions.conjugate", "s", "s"),
    "partitions.conjugate.calls": ("partitions.conjugate", "calls", "count"),
    "ekstats.distribution_report.s": ("ekstats.distribution_report", "self_s", "s"),
    "ekstats.ks_distance_normal.s": ("ekstats.ks_distance_normal", "s", "s"),
    "ekstats.surrogate_moments.s": ("ekstats.surrogate_moments", "s", "s"),
    "ekstats.chunked_sum.s": ("ekstats.chunked_sum", "s", "s"),
    "ekstats.chunked_sum.calls": ("ekstats.chunked_sum", "calls", "count"),
    "constants.compute_A0.s": ("constants.compute_A0", "s", "s"),
    "constants.compute_B_report.s": ("constants.compute_B_report", "s", "s"),
    "constants.compute_C.s": ("constants.compute_C", "s", "s"),
    "constants.infinite_sum_checks.s": ("constants.infinite_sum_checks", "s", "s"),
    "polyops.phi_h.s": ("polyops.phi_h", "s", "s"),
    "polyops.psi.calls": ("polyops.psi", "calls", "count"),
    "extremal.scan_max.s": ("extremal.scan_max", "self_s", "s"),
    "cli.run.s": ("cli.run", "self_s", "s"),
    "cli.output_bytes": ("cli.run", "output_bytes", "bytes"),
}


class Layer:
    __slots__ = ("calls", "s", "self_s", "depth", "keys", "durations", "errors", "results")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.keys: set = set()
        self.durations: list[float] = []
        self.errors = 0
        self.results = 0  # summed len() of results, for RESULT_LEN layers


class Tracer:
    """Wrappers, span stack and per-layer aggregates of one traced pass."""

    def __init__(self):
        self.layers: dict[str, Layer] = defaultdict(Layer)
        self.stack: list[list] = []  # frames: [child seconds, span id or None]
        self.spans: list[dict] = []
        self.installed: list[tuple[object, str, object]] = []
        self.output_bytes = 0
        self.last_table = None
        self.command = None  # the CLI command being traced

    def wrap(self, fn, name: str):
        count = self.layers[name]             # calls, keys, errors, results
        timing = self.layers[GROUP.get(name, name)]  # time and nesting depth
        when, key = WHEN.get(name), KEY.get(name)
        keep, sized = DURATIONS.get(name), name in RESULT_LEN
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            if name == "cli.run":
                self.command = (args[0] if args else kwargs["argv"])[0]
            count.calls += 1
            if timing is not count:
                timing.calls += 1
            if key is not None:
                count.keys.add(key(args, kwargs))
            # spans only for the CLI invocation and the calls cli makes itself
            span = None
            if len(stack) <= 1:
                span = len(spans)
                spans.append({"name": name, "parent": stack[0][1] if stack else None})
            frame = [0.0, span]
            stack.append(frame)
            timing.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                count.errors += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                timing.depth -= 1
                if timing.depth == 0:
                    timing.s += dt
                timing.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep is not None and keep == self.command:
                    count.durations.append(dt)
                if span is not None:
                    spans[span].update(start=t0, end=t0 + dt)
            if sized:
                count.results += len(result)
            if name == "sieve.build":
                self.last_table = result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every site whose name exists."""
        for dotted, attr, name in SITES:
            module, _, cls = dotted.partition(".")
            try:
                owner = importlib.import_module(f"multsub.{module}")
                owner = getattr(owner, cls) if cls else owner
            except (ImportError, AttributeError):
                continue
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self.installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def restore(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def stat(self, layer_name: str, stat: str):
        """One statistic of one layer; None where it is undefined (no calls)."""
        layer = self.layers.get(layer_name)
        if layer is None:
            return None
        if stat in ("calls", "s", "self_s"):
            return getattr(layer, stat)
        if stat == "output_bytes":
            return self.output_bytes
        if stat == "subgroups":
            return layer.results
        if not layer.calls:
            return None
        if stat == "distinct_share":
            return len(layer.keys) / layer.calls
        if stat == "refused_share":
            return layer.errors / layer.calls
        d = sorted(layer.durations)
        if stat == "p50_ms":
            return 1e3 * statistics.median(d) if d else None
        if stat == "ptail_ms":
            # the highest percentile with at least ten samples beyond it
            return 1e3 * d[len(d) - 11] if len(d) > 10 else None
        raise KeyError(stat)

    def metrics(self) -> tuple[dict, list[str]]:
        """Every reported metric, and the names that are absent: their layer
        has no installed site or was not called.  Absent metrics read 0."""
        out, absent = {}, []
        for metric, (layer, stat, unit) in METRICS.items():
            value = self.stat(layer, stat)
            if value is None or not self.layers[layer].calls:
                absent.append(metric)
            out[metric] = {"value": 0 if value is None else value, "unit": unit}
        return out, absent
