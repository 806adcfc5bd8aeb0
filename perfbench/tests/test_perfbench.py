"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Workload(
    "small",
    (("scan", "--max", "400"),
     ("distribution", "--x", "400", "--which", "G"),
     ("extremal", "scan", "--max", "400", "--which", "I"),
     ("moments", "--x", "3000", "--h-max", "4"),
     ("constants", "--prime-limit", "3000"),
     ("verify", "--max", "24"),
     ("count", "12", "1000000007", *map(str, workloads.count_inputs(0)[:4]))),
    1, None, {})


def site_values():
    out = {}
    for dotted, attr, _ in tracing.SITES:
        module, _, cls = dotted.partition(".")
        owner = importlib.import_module(f"multsub.{module}")
        owner = getattr(owner, cls) if cls else owner
        out[(dotted, attr)] = owner.__dict__[attr]
    return out


def traced(child_outputs):
    """One traced in-process pass of SMALL, gated on the child outputs."""
    r = run.Run(SMALL, perf_counter(), {a: {"text": out} for a, out in child_outputs.items()})
    tracer, _ = r.traced_pass()
    return tracer, r


@pytest.fixture(scope="module")
def child_outputs():
    outs = {}
    for argv in SMALL.argvs:
        c = run.run_child(run.cli_cmd(argv), 120)
        assert c.code == 0, c.err
        outs[argv] = c.out
    return outs


def test_every_wrapper_restores_the_original_name():
    before = site_values()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = site_values()
        assert all(during[k] is not v for k, v in before.items())
    finally:
        tracer.restore()
    after = site_values()
    assert all(after[k] is v for k, v in before.items())


def test_traced_outputs_match_untraced_children_byte_for_byte(child_outputs):
    tracer, r = traced(child_outputs)
    assert r.failures == []
    assert r.outputs == child_outputs
    # per-query durations: one per count query, none from verify
    assert len(tracer.layers["multgroup.subgroup_counts"].durations) == len(SMALL.argvs[-1]) - 1


def test_counts_repeat_exactly_across_traced_runs(child_outputs):
    first, _ = traced(child_outputs)
    second, _ = traced(child_outputs)
    counts = {m: (layer, stat) for m, (layer, stat, unit) in tracing.METRICS.items()
              if unit in ("count", "share", "bytes")}
    a = {m: first.stat(*ls) for m, ls in counts.items()}
    b = {m: second.stat(*ls) for m, ls in counts.items()}
    assert a == b
    assert a["pgroup.subgroup_count.calls"] > 0 and a["multgroup.oracle.subgroups"] > 0


def test_fork_server_outputs_match_cli_children(child_outputs):
    with run.Harness() as harness:
        for argv, out in child_outputs.items():
            got = harness.run(argv, 120)
            assert (got["code"], got["out"]) == (0, out)
            assert got["cpu"] > 0 and got["rss_mb"] > 0
        assert harness.run(("count", "0"), 120)["code"] == 2
    assert harness.proc.returncode == 0


def test_passes_check_every_output(child_outputs):
    r = run.Run(SMALL, perf_counter(), {a: {"text": out} for a, out in child_outputs.items()})
    samples = r.passes(0)
    assert len(samples) == run.MIN_PASSES and r.failures == []
    assert r.attempted == run.MIN_PASSES * (1 + len(SMALL.argvs))
    assert all(s["cpu"] > 0 and s["setup"] > 0 for s in samples)


def corruptions(text, positions):
    for i in positions:
        c = text[i]
        yield text[:i] + ("7" if c != "7" else "3") + text[i + 1:]


def test_gate_rejects_one_corrupted_byte(child_outputs):
    exact = child_outputs[SMALL.argvs[-1]]           # count: compared as text
    assert gate.mismatch({"text": exact}, exact) is None
    assert all(gate.mismatch({"text": exact}, bad) for bad in corruptions(exact, range(len(exact))))

    csv = child_outputs[SMALL.argvs[0]]              # scan: compared by digest
    digest = {"sha256": gate.hashlib.sha256(csv.encode()).hexdigest(), "bytes": len(csv)}
    assert gate.mismatch(digest, csv) is None
    assert all(gate.mismatch(digest, bad) for bad in corruptions(csv, range(0, len(csv), 97)))

    for argv in SMALL.argvs[1:5]:                    # JSON and CSV with floats
        text = child_outputs[argv]
        assert gate.mismatch({"floats": text}, text) is None
        floats = list(gate.FLOAT.finditer(text))
        inside = {i for m in floats for i in range(m.start(), m.end())}
        first_digits = {m.start() + (text[m.start()] == "-") for m in floats}
        positions = [i for i in range(len(text)) if i not in inside or i in first_digits]
        assert all(gate.mismatch({"floats": text}, bad) for bad in corruptions(text, positions))


def test_gate_tolerates_a_reordered_reduction():
    text = json.dumps({"x": 0.1 + 0.2 + 0.3, "n": "12"})
    reordered = json.dumps({"x": 0.3 + 0.2 + 0.1, "n": "12"})
    assert text != reordered
    assert gate.mismatch({"floats": text}, reordered) is None


def test_independent_count_reference_matches_the_program():
    ns = workloads.count_inputs(5)[:6] + [1, 2, 4, 8, 24, 720]
    c = run.run_child(run.cli_cmd(["count", *map(str, ns)]), 120)
    assert c.code == 0 and c.out == gate.count_text(ns)


def test_in_process_runs_use_this_checkout():
    from multsub import cli

    assert Path(cli.__file__).resolve().is_relative_to(HERE.parent / "src")


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(tracing.METRICS) | {"trace.overhead_s"}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)


def test_seeds_are_deterministic_and_every_size_has_a_reference():
    for name in workloads.NAMES:
        assert workloads.make(name, 11) == workloads.make(name, 11)
    for slot in range(workloads.SIZE_SLOTS):
        for argv in workloads.make("table_based", slot).argvs:
            gate.stored(argv)
