import json
import subprocess
import sys
from pathlib import Path

import pytest

from nilflag import cli, fiber_count
from nilflag.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run


def run_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_partitions_query(capsys):
    code, payload = run_json(capsys, "partitions", "--n", "2", "--d", "3")
    assert code == EXIT_OK
    assert payload == {"partitions": [[2, 1], [1, 1, 1]]}


def test_dimvecs_query(capsys):
    code, payload = run_json(capsys, "dimvecs", "--n", "2", "--d", "2")
    assert code == EXIT_OK
    assert payload == {"dimvecs": [[2, 0], [1, 1], [0, 2]]}


def test_kostka_query(capsys):
    code, payload = run_json(capsys, "kostka", "--shape", "2,1", "--weight", "1,1,1")
    assert code == EXIT_OK
    assert payload == {"kostka": 2}


def test_kostka_foulkes_query(capsys):
    code, payload = run_json(
        capsys, "kostka-foulkes", "--shape", "2,1", "--weight", "1,1,1")
    assert code == EXIT_OK
    assert payload == {"poly": "q^2+q"}


def test_fiber_count_query(capsys):
    code, payload = run_json(
        capsys, "fiber-count", "--lambda", "2,1", "--dimvec", "1,1,1", "--q", "2")
    assert code == EXIT_OK
    assert payload == {"count": 5}
    code, payload = run_json(
        capsys, "fiber-count", "--lambda", "2,1", "--dimvec", "1,1,1", "--q", "2",
        "--brute")
    assert code == EXIT_OK
    assert payload == {"count": 5}


def test_fiber_poly_query(capsys):
    code, payload = run_json(
        capsys, "fiber-poly", "--lambda", "2,1", "--dimvec", "1,1,1")
    assert code == EXIT_OK
    assert payload == {"poly": "2q+1"}


def test_bootstrap_query(capsys):
    code, payload = run_json(capsys, "bootstrap", "--n", "2", "--d", "2")
    assert code == EXIT_OK
    assert payload == {
        "n": 2,
        "d": 2,
        "stalks": {
            "2": {"2": "q^-1", "1,1": "q^-1"},
            "1,1": {"2": "0", "1,1": "1"},
        },
    }


def test_schur_weyl_query(capsys):
    code, payload = run_json(capsys, "schur-weyl", "--n", "2", "--d", "3")
    assert code == EXIT_OK
    assert payload["name"] == "schur_weyl"
    assert payload["status"] == "pass"


def test_verify_pass(capsys):
    code, payload = run_json(capsys, "verify", "--n", "2", "--d", "2")
    assert code == EXIT_OK
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert payload["params"]["mode"] == "polynomial"


def test_verify_literal_paper_fails_with_witness(capsys):
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--d", "2", "--convention", "literal-paper")
    assert code == EXIT_FAIL
    trace = next(c for c in payload["checks"] if c["name"] == "trace_identity")
    assert trace["status"] == "fail"
    assert {"lambda": [2], "dimvec": [2, 0]} in [
        {"lambda": w["lambda"], "dimvec": w["dimvec"]} for w in trace["witnesses"]
    ]


def test_verify_numeric_mode(capsys):
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--d", "4", "--mode", "numeric",
        "--primes", "2,3")
    assert code == EXIT_OK
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert status["trace_identity"] == "pass"
    assert status["semismall"] == "skipped"


def test_verify_report_file(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--d", "3", "--report", str(report_path))
    assert code == EXIT_OK
    on_disk = json.loads(report_path.read_text())
    assert on_disk == payload


def test_verify_unwritable_report_exits_2(tmp_path, capsys):
    # the report file is written before anything is printed
    missing = tmp_path / "no-such-dir" / "report.json"
    code = run(["verify", "--n", "2", "--d", "2", "--report", str(missing)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_verify_deterministic_output(capsys):
    code1 = run(["verify", "--n", "2", "--d", "3"])
    out1 = capsys.readouterr().out
    code2 = run(["verify", "--n", "2", "--d", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_malformed_partition_exits_2(capsys):
    code = run(["kostka", "--shape", "2,x", "--weight", "1,1,1"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.strip().startswith("error:")
    assert "\n" not in err.strip()


def test_invalid_partition_exits_2(capsys):
    code = run(["fiber-count", "--lambda", "1,2", "--dimvec", "1,1,1", "--q", "2"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_budget_exhaustion_exits_2(capsys):
    code = run([
        "fiber-count", "--lambda", "2,1,1", "--dimvec", "1,1,1,1", "--q", "3",
        "--budget", "2"])
    assert code == EXIT_USAGE
    assert "budget" in capsys.readouterr().err
    # the budget covers the whole verify run, not each count
    assert run(["verify", "--n", "2", "--d", "3", "--budget", "5"]) == EXIT_USAGE
    capsys.readouterr()
    # polynomial verify at (3,5) enumerates exactly 432 subspaces: [ell; d1]_p
    # summed over its 46 tallies (lambda, d1, p), 23 at each of p = 2 and 3.
    # The refusal names the dimension vector as given, its zero jump included.
    code = run(["verify", "--n", "3", "--d", "5", "--budget", "431"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "error: subspace budget exhausted (432 > 431) counting "
        "lambda=[2, 1, 1, 1], dimvec=[1, 4, 0], q=3\n")
    assert run(["verify", "--n", "3", "--d", "5", "--budget", "432"]) == EXIT_OK
    capsys.readouterr()
    # numeric (6,6) counts each nonzero composition once, at its first dv
    code = run(["verify", "--n", "6", "--d", "6", "--mode", "numeric", "--budget", "1000"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "error: subspace budget exhausted (1110 > 1000) counting "
        "lambda=[2, 2, 1, 1], dimvec=[2, 4, 0, 0, 0, 0], q=3\n")
    # a negative budget is a usage error, not a failed check
    code = run(["verify", "--n", "2", "--d", "2", "--budget", "-3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "budget must be non-negative" in captured.err


def test_brute_refusal_names_the_instance(capsys):
    # the brute route enumerates 65 subspaces for this instance
    argv = ["fiber-count", "--lambda", "1,1,1", "--dimvec", "1,1,1", "--q", "3", "--brute"]
    code = run(argv + ["--budget", "64"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "error: subspace budget exhausted (65 > 64) "
        "counting lambda=[1, 1, 1], dimvec=[1, 1, 1], q=3\n")
    code, payload = run_json(capsys, *argv, "--budget", "65")
    assert code == EXIT_OK
    assert payload == {"count": 52}


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1", "--d", "1200"],
])
def test_recursion_limit_exits_2(capsys, argv):
    # a resource error, not a failed verification (exit 1) or a traceback
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: maximum recursion depth exceeded\n"


def test_one_line_answers_past_the_recursion_limit(capsys):
    # the enumerators walk without recursion, however many parts or slots
    code, payload = run_json(capsys, "partitions", "--n", "1", "--d", "1200")
    assert code == EXIT_OK
    assert payload == {"partitions": [[1] * 1200]}
    code, payload = run_json(capsys, "dimvecs", "--n", "1200", "--d", "1")
    assert code == EXIT_OK
    assert payload == {"dimvecs": [[int(i == j) for j in range(1200)] for i in range(1200)]}


def test_zero_operator_counts_past_the_recursion_limit(capsys):
    # a = 0 is counted by the closed-form Gaussian binomial [1200; 2]_q,
    # here checked against its q-Pascal column [r; j]_q = [r-1; j-1]_q + q^j [r-1; j]_q
    lam, dv = (1,) * 1200, (2, 1198)
    for q in (2, 3):
        column = [1, 0, 0]  # [r; j]_q for j <= 2, from r = 0
        for _ in range(1200):
            for j in (2, 1):
                column[j] = column[j - 1] + q**j * column[j]
        assert fiber_count(lam, dv, q) == column[2], q
    code, payload = run_json(capsys, "fiber-count", "--lambda", ",".join(map(str, lam)),
                             "--dimvec", "2,1198", "--q", "2")
    assert code == EXIT_OK
    assert payload == {"count": fiber_count(lam, dv, 2)}


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "run_suite", exhausted)
    code = run(["verify", "--n", "2", "--d", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


@pytest.mark.parametrize("primes", ["2,x", ""])
def test_malformed_primes_exit_2(capsys, primes):
    code = run(["verify", "--n", "2", "--d", "3", "--primes", primes])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: not a comma-separated integer list: {primes!r}\n"


def test_duplicate_primes_exit_2(capsys):
    code = run(["verify", "--n", "2", "--d", "3", "--mode", "numeric", "--primes", "2,2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "prime 2 is given more than once" in captured.err


def test_unknown_command_exits_2(capsys):
    assert run(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    assert run(["kostka", "--shape", "2,1"]) == EXIT_USAGE
    capsys.readouterr()


def test_pretty_flag(capsys):
    code = run(["kostka", "--shape", "2,1", "--weight", "1,1,1", "--pretty"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("{\n")
    assert json.loads(out) == {"kostka": 2}


def test_verify_pretty_flag(capsys):
    code = run(["verify", "--n", "2", "--d", "2", "--pretty"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("{\n")
    compact = run_json(capsys, "verify", "--n", "2", "--d", "2")[1]
    assert json.loads(out) == compact


def test_round_trip_of_partition_output(capsys):
    code, payload = run_json(capsys, "partitions", "--n", "3", "--d", "4")
    assert code == EXIT_OK
    from nilflag.combinatorics import check_partition, enumerate_partitions

    parsed = [check_partition(p) for p in payload["partitions"]]
    assert parsed == enumerate_partitions(3, 4)


def test_cli_import_leaves_out_heavy_modules():
    # start-up cost: the CLI needs neither dataclasses nor fractions, nor
    # the inspect and decimal modules they pull in
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import nilflag.cli; print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert "nilflag.cli" in added
    assert not added & {"dataclasses", "fractions", "inspect", "decimal"}
