import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zsindex import certify, cli, harness
from zsindex.cli import main
from zsindex.zseq import IndexResult

STAGE_ORDER = [
    "forced",
    "small_a",
    "interval",
    "half_interval",
    "majority_small",
    "lifted",
    "brute_force",
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_index_command(capsys):
    code, out = run(capsys, ["index", "--n", "175", "--seq", "5,135,77,133"])
    assert code == 0
    assert json.loads(out) == {"n": 175, "seq": [5, 77, 133, 135], "value": 1, "witness": 3}


def test_index_command_prints_a_fractional_value_as_a_string(capsys):
    # Not zero-sum: the least weight over the units of Z_7 is 6, at m = 1.
    code, out = run(capsys, ["index", "--n", "7", "--seq", "1,1,1,3"])
    assert (code, out) == (0, '{"n": 7, "seq": [1, 1, 1, 3], "value": "6/7", "witness": 1}\n')


def test_witness_command(capsys):
    code, out = run(capsys, ["witness", "--n", "25", "--seq", "1,11,18,20"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"] == {"m": 3, "k": 1, "derivation": "interval"}
    assert "trace" not in payload


def test_witness_explain_prints_the_trace(capsys):
    code, out = run(capsys, ["witness", "--n", "175", "--seq", "5,135,77,133", "--explain"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["m"] == 3
    assert payload["certificate"]["derivation"] == "brute_force"
    assert any(line.startswith("classify:") for line in payload["trace"])


def test_witness_explain_on_a_forced_multiplier_read_off_the_unit_leading_copy(capsys):
    # 3^-1 = 9 mod 13 scales the input to the all-big copy (1, 7, 8, 10), whose
    # multiplier 2 certifies the input through 2 * 9 % 13 = 5.
    code, out = run(capsys, ["witness", "--n", "13", "--seq", "3,4,8,11", "--explain"])
    assert code == 0
    assert json.loads(out) == {
        "n": 13,
        "seq": [3, 4, 8, 11],
        "certificate": {"m": 5, "k": None, "derivation": "forced"},
        "trace": ["classify: tag=all_big forced_multiplier=2 scaling=9", "forced: hit m=5"],
    }


def test_witness_explain_on_even_n_stops_at_opaque_without_the_unit_leading_copy(capsys):
    # Over even n a nu = 2 input that does not split around n/2 is opaque
    # (n - 2 and 2 are not units), and classify tries no unit-leading copy.
    # Here 13 * (5, 6, 7, 14) = (1, 6, 11, 14) mod 16 is
    # the normal form (2, 5, 6), which search_interval settles with m = 3,
    # yet the input falls through to brute force.
    code, out = run(capsys, ["witness", "--n", "16", "--seq", "5,6,7,14", "--explain"])
    assert code == 0
    assert json.loads(out) == {
        "n": 16,
        "seq": [5, 6, 7, 14],
        "certificate": {"m": 7, "k": None, "derivation": "brute_force"},
        "trace": [
            "classify: tag=opaque forced_multiplier=None scaling=1",
            "lifted: miss (not reducible)",
            "brute_force: hit m=7",
        ],
    }
    assert certify.search_interval(certify.NormalForm(16, 2, 5, 6)) == (1, 3)


@pytest.mark.parametrize(
    "n, seq, stages",
    [
        (5, "1,1,1,2", ["forced"]),
        (15, "1,7,11,11", ["interval", "majority_small"]),
        (10, "2,6,6,6", ["lifted"]),
        (175, "5,135,77,133", ["lifted", "brute_force"]),
        # index 2: every stage from small_a on is attempted and misses
        (15, "1,6,10,13", STAGE_ORDER[1:]),
    ],
)
def test_witness_explain_traces_each_attempted_stage_in_table_order(capsys, n, seq, stages):
    code, out = run(capsys, ["witness", "--n", str(n), "--seq", seq, "--explain"])
    trace = json.loads(out)["trace"]
    assert trace[0].startswith("classify:")
    assert [line.split(":", 1)[0] for line in trace[1:]] == stages
    assert stages == [stage for stage in STAGE_ORDER if stage in stages]


def test_witness_on_a_counterexample(capsys):
    code, out = run(capsys, ["witness", "--n", "8", "--seq", "1,4,5,6"])
    assert code == 1
    payload = json.loads(out)
    assert payload["certificate"] is None
    assert payload["counterexample"]["value"] == 2


def test_enumerate_command(capsys):
    code, out = run(capsys, ["enumerate", "--n", "5"])
    assert code == 0
    assert out.splitlines() == ["1,1,1,2", "1,3,3,3", "2,2,2,4", "3,4,4,4"]


def test_enumerate_orbits(capsys):
    code, out = run(capsys, ["enumerate", "--n", "5", "--orbits"])
    assert code == 0
    assert out.splitlines() == ["1,1,1,2 4"]


def test_counterexample_command(capsys):
    code, out = run(capsys, ["counterexample", "--n", "8"])
    assert code == 0
    assert json.loads(out) == {"n": 8, "seq": [1, 4, 5, 6], "value": 2, "witness": 1}

    code, out = run(capsys, ["counterexample", "--n", "25"])
    assert code == 0
    assert out.strip() == "none"


def test_verify_exit_zero_when_clean(tmp_path, capsys):
    out_file = tmp_path / "reports.jsonl"
    code = main(
        ["verify", "--from", "5", "--to", "25", "--filter", "coprime6", "--mode", "full",
         "--out", str(out_file)]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert json.loads(lines[0])["manifest"]["filter"] == "coprime6"
    assert all(json.loads(line)["counterexamples"] == [] for line in lines[1:])


def test_verify_exit_one_on_counterexample(tmp_path):
    out_file = tmp_path / "reports.jsonl"
    code = main(["verify", "--from", "8", "--to", "9", "--filter", "all", "--out", str(out_file)])
    assert code == 1


def test_verify_over_a_range_the_filter_empties(capsys):
    # 6 is not coprime to 6, so the work list has no modulus at all.
    code = main(["verify", "--from", "6", "--to", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert [json.loads(line) for line in captured.out.splitlines()] == [
        {"manifest": {"version": cli.__version__, "from": 6, "to": 6, "filter": "coprime6",
                      "mode": "full", "sample_interval": 100, "seed": 0}}
    ]
    assert re.search(
        r"verified 0 moduli, 0 sequences, 0 counterexamples in \d+\.\d\ds\n\Z", captured.err
    )


def test_verify_stdout_and_filter_spelling(capsys):
    code, out = run(capsys, ["verify", "--from", "25", "--to", "26", "--filter", "two-prime-powers"])
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0])["manifest"]["filter"] == "two_prime_powers"
    assert json.loads(lines[1])["n"] == 25


def test_usage_errors_exit_two(tmp_path, capsys):
    code, out = run(capsys, ["verify", "--from", "2", "--to", "10"])
    assert (code, out) == (2, "")
    # A bad --jobs is caught before the manifest is printed or --out is opened.
    out_file = tmp_path / "reports.jsonl"
    out_file.write_bytes(b"earlier run\n")
    argv = ["verify", "--from", "5", "--to", "7", "--jobs", "0", "--out", str(out_file)]
    code, out = run(capsys, argv)
    assert (code, out) == (2, "")
    assert out_file.read_bytes() == b"earlier run\n"
    with pytest.raises(SystemExit) as err:
        main(["index", "--n", "10", "--seq", "1,2,x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_verify_offers_only_full_and_orbit_modes(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--from", "5", "--to", "10", "--mode", "sample"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_invalid_sequence_reports_error(capsys):
    code = main(["index", "--n", "10", "--seq", "5,5,10,1"])
    assert code == 2  # zero class rejected
    # Only length 4 is a sequence; index and witness say so on stderr alone.
    for argv, length in [
        (["index", "--n", "7", "--seq", "1,2,4"], 3),
        (["witness", "--n", "7", "--seq", "1,2,3,4,4"], 5),
    ]:
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expected a length-4 sequence, got length {length}\n"


def test_verify_exits_three_when_pipeline_and_oracle_disagree(monkeypatch, capsys):
    monkeypatch.setattr(harness, "index", lambda seq: IndexResult(Fraction(2), 1))
    code = main(["verify", "--from", "5", "--to", "30", "--jobs", "1"])
    assert code == 3
    assert "pipeline/oracle disagreement" in capsys.readouterr().err


def test_verify_exits_three_when_the_pipeline_fails_its_certificate_check(
    monkeypatch, capsys
):
    # A wrong interval multiplier: the one certificate check, against the
    # enumerated sequence, rejects it, and that is the program's fault.
    monkeypatch.setattr(certify, "search_interval", lambda nf: (1, 2))
    code = main(["verify", "--from", "5", "--to", "13", "--jobs", "1"])
    assert code == 3
    assert "internal error:" in capsys.readouterr().err
    # witness takes the same path: its input is valid, so the pipeline is at fault.
    assert main(["witness", "--n", "25", "--seq", "1,11,18,20"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: AssertionError: interval stage failed" in captured.err
    # Invalid user input to witness stays a usage error.
    assert main(["witness", "--n", "7", "--seq", "1,6,1,6"]) == 2


def test_any_other_exception_exits_three_not_one(monkeypatch, tmp_path, capsys):
    real = harness.find_certificate

    def failing_from_11(seq, *args, **kwargs):
        if seq.n >= 11:
            raise RuntimeError("worker lost")
        return real(seq, *args, **kwargs)

    monkeypatch.setattr(harness, "find_certificate", failing_from_11)
    out_file = tmp_path / "reports.jsonl"
    argv = ["verify", "--from", "5", "--to", "13", "--jobs", "1", "--out", str(out_file)]
    assert main(argv) == 3
    assert "internal error: RuntimeError: worker lost" in capsys.readouterr().err
    lines = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert "manifest" in lines[0]
    assert [line["n"] for line in lines[1:]] == [5, 7]

    def broken(seq, trace=None):
        raise AssertionError("unreachable stage")

    monkeypatch.setattr(cli, "find_certificate", broken)
    assert main(["witness", "--n", "7", "--seq", "1,1,2,3"]) == 3
    assert "internal error: AssertionError" in capsys.readouterr().err


def test_console_script_exits_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["zsindex", "witness", "--n", "25", "--seq", "1,11,18,20"])
    with pytest.raises(SystemExit) as err:
        cli.entrypoint()
    assert err.value.code == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["derivation"] == "interval"


@pytest.mark.parametrize(
    "argv, read",
    [
        (["verify", "--from", "5", "--to", "60", "--jobs", "1"], 100),
        (["verify", "--from", "5", "--to", "60", "--jobs", "2"], 100),
        (["enumerate", "--n", "60"], 10),
        (["index", "--n", "7", "--seq", "1,1,2,3"], 0),  # closed before anything is written
    ],
)
def test_a_closed_stdout_exits_141_not_as_bad_input(tmp_path, argv, read):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so output can be left for the flush at exit
    reader, writer = os.pipe()
    if not read:
        os.close(reader)
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "zsindex.cli", *argv], stdout=writer, stderr=err, env=env
        )
        os.close(writer)
        if read:
            with open(reader, "rb") as out:
                assert len(out.read(read)) == read
        assert proc.wait(timeout=60) == 141
        err.seek(0)
        stderr = err.read()
    for marker in ("error:", "Traceback", "Exception ignored"):
        assert marker not in stderr


def test_a_closed_stdout_in_process_leaves_stdout_alone(monkeypatch, capsys):
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_cmd_enumerate", closed)
    assert main(["enumerate", "--n", "5"]) == 141
    assert capsys.readouterr() == ("", "")
    print("still writable")
    assert capsys.readouterr().out == "still writable\n"


def test_verify_filter_all_report_is_pinned(capsys):
    """Every modulus in 5..40: even n, opaque sequences, lifting, brute force
    and counterexamples, the paths the coprime6 pins never reach."""
    code, out = run(capsys, ["verify", "--from", "5", "--to", "40", "--filter", "all", "--mode", "full", "--jobs", "1"])
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bc0e73428b3cda0d7545da93e7f63e96f771510c51e6717124ab79eb83cb7657"
    )


# The verify reports the benchmark pins: "--from A --to B --filter coprime6
# --mode M" -> sha256 of standard output under --jobs 1, and exit code.
PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)["verify"]


@pytest.mark.parametrize(
    "args", list(PINNED), ids=[f"{a.split()[-1]}-{p['sha256']}" for a, p in PINNED.items()]
)
def test_verify_report_is_byte_identical_and_progress_carries_an_eta(capsys, args):
    argv = args.split()
    code = main(["verify", *argv, "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == PINNED[args]["exit_code"]
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PINNED[args]["sha256"]
    notes = captured.err.splitlines()[:-1]
    moduli = [int(line.split(":")[0][2:]) for line in notes]
    lo, hi = int(argv[argv.index("--from") + 1]), int(argv[argv.index("--to") + 1])
    assert moduli == [n for n in range(lo, hi + 1) if math.gcd(n, 6) == 1]
    for line in notes:
        assert re.fullmatch(r"n=\d+: \d+ sequences, \d+\.\ds elapsed, ETA \d+\.\ds", line), line
    assert notes[-1].endswith(", ETA 0.0s")
