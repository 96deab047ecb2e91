import json

import pytest

from nilflag import flaggeo
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


def test_verify_deterministic_output(capsys):
    code1 = run(["verify", "--n", "2", "--d", "3"])
    out1 = capsys.readouterr().out
    code2 = run(["verify", "--n", "2", "--d", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_verify_cache_skips_enumeration(tmp_path, capsys):
    cache_path = tmp_path / "counts.jsonl"
    flaggeo.reset_caches()
    code1 = run(["verify", "--n", "3", "--d", "3", "--cache", str(cache_path)])
    out1 = capsys.readouterr().out
    assert code1 == EXIT_OK
    assert cache_path.exists()

    flaggeo.reset_caches()
    before = flaggeo.STATS["subspaces"]
    code2 = run(["verify", "--n", "3", "--d", "3", "--cache", str(cache_path)])
    out2 = capsys.readouterr().out
    assert code2 == EXIT_OK
    assert flaggeo.STATS["subspaces"] == before  # no field enumeration at all
    assert out1 == out2


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_path = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("NILFLAG_CACHE", str(cache_path))
    code, payload = run_json(
        capsys, "fiber-count", "--lambda", "1,1", "--dimvec", "1,1", "--q", "3")
    assert code == EXIT_OK and payload == {"count": 4}
    assert cache_path.exists()


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
    flaggeo.reset_caches()
    code = run([
        "fiber-count", "--lambda", "2,1,1", "--dimvec", "1,1,1,1", "--q", "3",
        "--budget", "2"])
    assert code == EXIT_USAGE
    assert "budget" in capsys.readouterr().err


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


def test_round_trip_of_partition_output(capsys):
    code, payload = run_json(capsys, "partitions", "--n", "3", "--d", "4")
    assert code == EXIT_OK
    from nilflag.combinatorics import check_partition, enumerate_partitions

    parsed = [check_partition(p) for p in payload["partitions"]]
    assert parsed == enumerate_partitions(3, 4)


def test_torn_and_poisoned_cache_records(tmp_path, capsys):
    cache_path = tmp_path / "counts.jsonl"
    cache_path.write_text(
        '{"lambda":[1,1],"dimvec":[1,1],"q":3,"count":999}\n{"lambda":[2,1],"dim')
    code, payload = run_json(
        capsys, "fiber-count", "--lambda", "1,1", "--dimvec", "1,1", "--q", "3",
        "--cache", str(cache_path))
    assert code == EXIT_OK and payload == {"count": 4}
    code, payload = run_json(
        capsys, "fiber-count", "--lambda", "1,1", "--dimvec", "1,1", "--q", "3",
        "--cache", str(cache_path))
    assert code == EXIT_OK and payload == {"count": 4}


def test_malformed_cache_line_exits_2(tmp_path, capsys):
    cache_path = tmp_path / "counts.jsonl"
    cache_path.write_text('not json\n{"lambda":[1],"dimvec":[1],"q":2,"count":1}\n')
    code = run([
        "fiber-count", "--lambda", "1,1", "--dimvec", "1,1", "--q", "3",
        "--cache", str(cache_path)])
    assert code == EXIT_USAGE
    assert "counts.jsonl:1" in capsys.readouterr().err
