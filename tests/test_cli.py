import hashlib
import json
import math

import pytest

from multsub import cli, constants, ekstats, multgroup, sieve
from multsub.cli import run


def test_count_outputs_expected_json(capsys):
    assert run(["count", "8", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    first = json.loads(lines[0])
    assert first["n"] == 8 and first["G"] == "5" and first["I"] == "3"
    assert first["phi"] == "4"
    assert first["sylow"] == {"2": "[1,1]"}
    second = json.loads(lines[1])
    assert second["G"] == "1" and second["I"] == "1"


def test_count_factors_a_20_digit_semiprime(capsys):
    p, q = 3000000019, 4000000007
    assert run(["count", str(p * q)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(str(obj["n"])) == 20
    assert obj["phi"] == str((p - 1) * (q - 1))


def test_count_refuses_uncertified_prime(capsys):
    assert run(["count", str(2**89 - 1)]) == 2
    assert "cannot certify" in capsys.readouterr().err


def test_scan_row_count_and_header(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--max", "200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,phi,omega_phi,bigomega_phi,logG,logI"
    assert len(lines) == 1 + 199  # n from 2 to 200
    row8 = lines[8 - 1].split(",")
    assert row8[0] == "8" and row8[1] == "4"
    assert float(row8[4]) == pytest.approx(1.609438, abs=1e-6)  # log 5


def test_scan_csv_matches_per_n_definitions(capsys):
    rows = ["n,phi,omega_phi,bigomega_phi,logG,logI"]
    for n in range(2, 2001):
        phi = multgroup.euler_phi(n)
        fact = multgroup.factorize(phi)
        logs = ",".join(f"{math.log(c):.6f}" for c in multgroup.subgroup_counts(n))
        rows.append(f"{n},{phi},{len(fact)},{sum(e for _, e in fact)},{logs}")
    assert run(["scan", "--max", "2000"]) == 0
    assert capsys.readouterr().out == "\n".join(rows) + "\n"


@pytest.mark.parametrize("argv", [["scan", "--max", "100"], ["distribution", "--x", "100"],
                                  ["extremal", "scan", "--max", "100", "--which", "I"]])
def test_out_of_memory_is_one_stderr_line(capsys, monkeypatch, argv):
    def fail(table):
        raise MemoryError("Unable to allocate 763. MiB for an array")

    monkeypatch.setattr(multgroup, "subgroup_count_arrays", fail)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{argv[0]}: out of memory: Unable to allocate 763. MiB for an array\n"


@pytest.mark.parametrize("argv", [["count", "8", "--out"], ["distribution", "--x", "200", "--samples-csv"]])
def test_unwritable_output_is_one_stderr_line(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    assert run([*argv, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # distribution opens --samples-csv before it writes its report
    assert err.startswith(f"{argv[0]}: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_scan_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["scan", "--max", "2000", "--out", str(a)]) == 0
    assert run(["scan", "--max", "2000", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_constants_json(tmp_path):
    out = tmp_path / "c.json"
    assert run(["constants", "--prime-limit", "100000", "--X", "1000", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    for key in ("A0", "A", "B", "C", "tails", "B_printed_vs_derived_delta"):
        assert key in obj
    assert obj["A"] == pytest.approx(0.72109, abs=1e-4)
    assert obj["tails"]["C"] > 0


def test_verify_exit_code(capsys):
    assert run(["verify", "--max", "141"]) == 0
    assert capsys.readouterr().out == (
        "PASS  subgroup counts match closure oracle for n <= 141\n"
        "PASS  pairing operator reproduces the degree-4 reference expansion\n"
        "PASS  permutation-to-pairing map has uniform fibers of size 2^(k/2)\n")


@pytest.mark.parametrize("route", ["subgroup_counts", "definitional_counts"])
def test_verify_fails_when_a_counting_route_is_off(capsys, monkeypatch, route):
    # the oracle's (G, I) is compared with the per-n path at every n, and with the
    # definitions at the first n of each Sylow type: 8 is the first with Z_2 x Z_2
    real = getattr(cli.multgroup, route)
    monkeypatch.setattr(cli.multgroup, route, lambda n, *rest: (5, 4) if n == 8 else real(n, *rest))
    assert run(["verify", "--max", "20"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL  subgroup counts match closure oracle for n <= 20\n")
    bad = ((5, 4), (5, 3), (5, 3)) if route == "subgroup_counts" else ((5, 3), (5, 3), (5, 4))
    assert err == f"      first mismatches: {[(8, *bad)]}\n"


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--max", "0"], "--max"),
    (["verify", "--max", "-3"], "--max"),
    (["verify", "--max", "5", "--oracle-cap", "0"], "--oracle-cap"),
    (["verify", "--max", "5", "--oracle-cap", "-1"], "--oracle-cap"),
])
def test_verify_refuses_empty_comparison(capsys, argv, flag):
    # With no n compared, the oracle check would print PASS having checked nothing.
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"verify: {flag} must be at least 1" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["constants", "--prime-limit", "1000", "--X", "inf"], "--X"),
    (["constants", "--prime-limit", "1000", "--X", "nan"], "--X"),
    (["constants", "--prime-limit", "1000", "--X=-inf"], "--X"),
    (["extremal", "construct", "--x", "inf"], "--x"),
    (["extremal", "construct", "--x", "nan"], "--x"),
    (["extremal", "construct", "--x", "1e400"], "--x"),
])
def test_non_finite_float_flags_are_usage_errors(capsys, argv, flag):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a finite number" in captured.err


def test_moments_csv(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["moments", "--x", "20000", "--h-max", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,x,M_h,normalized"
    assert len(lines) == 4
    assert lines[1].startswith("1,20000,")


def test_moments_and_distribution_read_the_pinned_normalization(monkeypatch, capsys):
    # Neither command sums A0 or B: both read constants.NORMALIZATION, and
    # their bytes are those of the definitional sums at 10^6 primes.
    def refuse(*args, **kwargs):
        raise AssertionError("the normalization was summed")

    monkeypatch.setattr(constants, "compute_A0", refuse)
    monkeypatch.setattr(constants, "compute_B", refuse)
    assert run(["moments", "--x", "20000", "--h-max", "2"]) == 0
    assert capsys.readouterr().out == (
        "h,x,M_h,normalized\n"
        "1,20000,-16648.009554603916,-0.21053918012028325\n"
        "2,20000,18688.86071460982,0.05977974316388842\n")
    assert run(["distribution", "--x", "2000", "--which", "G"]) == 0
    out = capsys.readouterr().out
    assert '"variance_coefficient": 1.2967338448823222' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "07622076d7e91182c46cfccc9e9a0936b1fa925fc0dd902e14aa7e4733330209")


def test_only_scan_sieves_bigomega_phi(monkeypatch, capsys):
    def refuse(table):
        raise AssertionError("Omega(phi(n)) was sieved")

    monkeypatch.setattr(sieve.FunctionTable, "bigomega_phi", property(refuse))
    for argv in (["moments", "--x", "20000"], ["distribution", "--x", "2000", "--which", "G"],
                 ["extremal", "scan", "--max", "2000"]):
        assert run(argv) == 0, argv
    with pytest.raises(AssertionError, match="was sieved"):
        run(["scan", "--max", "100"])


def test_moments_stream_without_a_table(monkeypatch, capsys):
    def refuse(N):
        raise AssertionError("sieve.build was called")

    monkeypatch.setattr(sieve, "build", refuse)
    assert run(["moments", "--x", "20000", "--h-max", "2"]) == 0
    assert capsys.readouterr().out == (
        "h,x,M_h,normalized\n"
        "1,20000,-16648.009554603916,-0.21053918012028325\n"
        "2,20000,18688.86071460982,0.05977974316388842\n")


def test_moments_past_their_estimate_are_one_stderr_line(monkeypatch, capsys):
    # refused before the prime sieve allocates anything
    def refuse(n):
        raise AssertionError("allocated")

    monkeypatch.setattr(ekstats, "primes_up_to", refuse)
    monkeypatch.setattr(sieve, "primes_up_to", refuse)
    assert run(["moments", "--x", "2000000000"]) == 2
    assert capsys.readouterr() == (
        "", "moments: x = 2000000000 needs about 4067108866 bytes, budget 2147483648\n")


@pytest.mark.parametrize("argv", [["scan", "--max"], ["distribution", "--x"], ["extremal", "scan", "--max"]],
                         ids=["scan", "distribution", "extremal-scan"])
def test_table_commands_past_their_estimate_are_one_stderr_line(monkeypatch, capsys, argv):
    # refused before the table is built; 10^7 is under the budget and reaches the build
    def build(N):
        raise ValueError(f"built {N}")

    monkeypatch.setattr(sieve, "build", build)
    assert run(argv + ["100000000"]) == 2
    assert capsys.readouterr() == (
        "", f"{argv[0]}: N = 100000000 needs about 9667108960 bytes, budget 2147483648\n")
    assert run(argv + ["10000000"]) == 2
    assert capsys.readouterr() == ("", f"{argv[0]}: built 10000000\n")


def test_distribution_json(tmp_path):
    out = tmp_path / "d.json"
    samples = tmp_path / "s.csv"
    assert run([
        "distribution", "--x", "500", "--which", "I",
        "--out", str(out), "--samples-csv", str(samples),
    ]) == 0
    obj = json.loads(out.read_text())
    assert obj["which"] == "I"
    assert obj["sample_count"] == 500 - 15
    assert 0 <= obj["ks_distance"] <= 1
    sample_lines = samples.read_text().splitlines()
    assert sample_lines[0] == "n,normalized"
    assert len(sample_lines) == 1 + obj["sample_count"]
    n_str, val_str = sample_lines[1].split(",")
    assert n_str == "16"
    float(val_str)  # plain parseable floats, no wrapper reprs


@pytest.mark.parametrize("link", [None, "dot", "symlink", "hardlink"])
def test_distribution_refuses_one_file_for_both_outputs(capsys, tmp_path, monkeypatch, link):
    # two "w" handles on one file would write the report over the CSV's first rows
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("keep\n")
    other = {None: "F", "dot": "./F", "symlink": "L", "hardlink": "H"}[link]
    if link == "symlink":
        (tmp_path / "L").symlink_to("F")
    elif link == "hardlink":
        (tmp_path / "H").hardlink_to(tmp_path / "F")
    assert run(["distribution", "--x", "200", "--out", other, "--samples-csv", "F"]) == 2
    assert capsys.readouterr() == (
        "", f"distribution: --out and --samples-csv name the same file: {other}\n")
    assert (tmp_path / "F").read_text() == "keep\n"
    # a file not made yet is refused too, and "-" for both is one stream, stdout
    assert run(["distribution", "--x", "200", "--out", "G", "--samples-csv", "./G"]) == 2
    assert not (tmp_path / "G").exists()
    assert run(["distribution", "--x", "200", "--out", "-", "--samples-csv", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("{") and out.count("\nn,normalized\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["extremal", "scan", "--max", "2"], "extremal: N must be at least 3, got 2\n"),
    (["distribution", "--x", "99"], "distribution: x must be at least 100, got 99\n"),
], ids=["extremal-scan-max-2", "distribution-x-99"])
def test_range_errors_name_the_value_given(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", message)


def test_extremal_commands(tmp_path):
    out = tmp_path / "e.json"
    assert run(["extremal", "scan", "--max", "100", "--which", "G", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["provenance"] == "scan" and obj["n"] == "80"
    assert run(["extremal", "construct", "--x", "1e6", "--which", "G", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["provenance"] == "construction" and obj["n"] == "1247"
    # infeasible window reports failure through exit code 1
    assert run(["extremal", "construct", "--x", "1e6", "--which", "G",
                "--bv-exponent", "1"]) == 1


def test_usage_errors():
    assert run(["nonsense"]) == 2
    assert run(["scan"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["constants", "--prime-limit", "1000", "--X", "1e13"],
     "constants: primes up to 10000000000000 need about 20000000000002 bytes, budget 2147483648\n"),
    (["extremal", "construct", "--x", "1e300", "--bv-exponent", "-5"],
     "extremal construct: --bv-exponent must be at least 0\n"),
], ids=["constants-X-1e13", "negative-bv-exponent"])
def test_unbounded_prime_sieves_are_usage_errors(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nonsense"], ["scan"], ["scan", "-h"], ["scan", "--max", "x"],
    ["scan", "--max", "5", "--bogus"], ["count", "5", "x"], ["extremal"],
    ["extremal", "construct", "-h"], ["extremal", "scan", "--max", "9", "extra"],
    ["scan", "--max=x"], ["scan", "--ma", "x"], ["scan", "--max", "5", "--max", "x"],
    ["extremal", "construct", "--x=1e6", "--which=H"], ["extremal", "scan", "--ma", "9", "--wh", "H"],
    ["distribution", "--x", "9", "--which", "G", "--which", "H"], ["moments", "--h", "3"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    # run prints what the parser prints: help, errors and exit codes are argparse's own
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = (capsys.readouterr(), 0 if exc.value.code == 0 else 2)
    code = run(argv)
    assert (capsys.readouterr(), code) == want


def test_no_parser_is_built_per_call(capsys, monkeypatch, tmp_path):
    def fail():
        raise AssertionError("built a parser in a call")

    monkeypatch.setattr(cli, "build_parser", fail)
    assert run(["count", "8"]) == 0
    assert run(["count", "8", "--out", str(tmp_path / "x.json")]) == 0
    assert run(["extremal", "scan", "--max=100", "--wh", "I"]) == 0
    assert run(["scan", "--max", "5", "--max", "9"]) == 0
    assert run(["scan", "-h"]) == 0
    assert run(["scan", "--max", "x"]) == 2
    assert run(["nonsense"]) == 2


def test_bv_exponent_applies_only_to_g(capsys):
    # refused with --which I in either flag form; G reads the default None as 0
    message = "extremal construct: --bv-exponent applies only to --which G\n"
    for argv in (["--which", "I", "--bv-exponent", "0"], ["--bv-exponent=3", "--which", "I"]):
        assert run(["extremal", "construct", "--x", "1e6", *argv]) == 2
        assert capsys.readouterr() == ("", message)
    assert cli.PARSER.parse_args(["extremal", "construct", "--x", "1e6"]).bv_exponent is None
    outs = []
    for argv in ([], ["--bv-exponent", "0"]):
        assert run(["extremal", "construct", "--x", "1e6", "--which", "G", *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert run(["extremal", "construct", "--x", "1e6", "--which", "I"]) == 0
