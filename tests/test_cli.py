import dataclasses
import json
import os
import stat
from pathlib import Path

import pytest

from heisencheck import cli, hilbert
from heisencheck.checks import (
    CheckReport,
    RunConfig,
    RunContext,
    check_hilbert_flatness,
    exit_code,
    run_suite,
)
from heisencheck.cli import main, render_report
from heisencheck.ffscan import census_csv
from oracles import full_scan_strata


def strip_elapsed(text: str) -> list:
    payload = json.loads(text)
    for item in payload:
        item.pop("elapsed_ms")
    return payload


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(scan_prime_d9=23).validate()
    RunConfig().validate()


@pytest.mark.parametrize("field,q", [("scan_prime_d9", 28), ("scan_prime_d9", 10),
                                     ("scan_prime_d11", 45), ("scan_prime_d9", 2147484007)])
def test_config_rejects_unscannable_prime(field, q):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: q}).validate()


_BAD_PRIMES = [
    ("jacobian_primes", (9, 15), "not an odd prime"),
    ("jacobian_primes", (2,), "not an odd prime"),
    ("jacobian_primes", (3, 1), "not an odd prime"),
    ("jacobian_primes", (4, 6), "not an odd prime"),
    ("jacobian_primes", (0,), "not an odd prime"),
    ("jacobian_primes", (-3,), "not an odd prime"),
    ("jacobian_primes", (2147483648,), "too large"),
    ("jacobian_primes", (), "at least one odd prime"),
    ("jacobian_primes", (3, 2147483659), "too large"),
    # 1000000007 * 1000000009: trial division would run to 10^9 before the bound
    ("jacobian_primes", (3, 1000000016000000063), "too large"),
]


# ids named by input, so adding or dropping a case renames no other
@pytest.mark.parametrize("field,value,message", _BAD_PRIMES,
                         ids=[f"{f}=({','.join(map(str, v))})" for f, v, _ in _BAD_PRIMES])
def test_config_rejects_bad_primes(field, value, message):
    with pytest.raises(ValueError, match=f"{field}: .*{message}"):
        RunConfig(**{field: value}).validate()


def test_flatness_reports_the_fixed_rank_primes():
    status, details = check_hilbert_flatness(RunContext(RunConfig()))
    assert status == "pass"
    assert details["rank_primes"] == list(hilbert.RANK_PRIMES)


@pytest.mark.parametrize("prime", ["28", "10"])
def test_scan_composite_prime_is_usage_error(prime, capsys):
    assert main(["scan", "--d", "9", "--prime", prime]) == 2
    assert "not prime" in capsys.readouterr().err


def test_d9_suite_passes():
    reports = run_suite("d9")
    assert reports
    assert all(r.status == "pass" for r in reports)
    assert exit_code(reports) == 0


def test_chars_suite_has_the_two_recorded_failures():
    reports = run_suite("chars")
    status = {r.check_id: r.status for r in reports}
    assert status["chars.orthonormality"] == "pass"
    assert status["chars.sym2_no_invariant"] == "pass"
    assert status["chars.sym3_invariant"] == "pass"
    assert status["chars.mirror"] == "pass"
    # the two stated decomposition identities are corrected by the computation
    assert status["chars.sym2"] == "fail"
    assert status["chars.sym3"] == "fail"
    details = {r.check_id: r.details for r in reports}
    assert details["chars.sym2"]["computed"] == "chi2 + chi5"
    assert details["chars.sym3"]["computed"] == "chi1 + chi5 + chi7 + chi8"
    assert details["chars.sym3"]["stated_total_degree"] == 34
    assert exit_code(reports) == 1


def normalize_elapsed(text: str) -> str:
    payload = json.loads(text)
    for item in payload:
        item["elapsed_ms"] = 0
    return json.dumps(payload, indent=2, sort_keys=True)


def test_json_report_deterministic():
    reports = run_suite("d9")
    again = run_suite("d9")
    # byte-identical apart from the elapsed_ms sidecar field
    assert normalize_elapsed(render_report(reports, "json")) == normalize_elapsed(
        render_report(again, "json")
    )
    payload = json.loads(render_report(reports, "json"))
    ids = [item["check_id"] for item in payload]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    for item in payload:
        assert set(item) == {"check_id", "status", "details", "elapsed_ms"}


def test_render_text_summary_and_order():
    reports = [
        CheckReport("zz.ok", "pass", {}, 1),
        CheckReport("aa.bad", "fail", {}, 2),
    ]
    text = render_report(reports, "text")
    lines = text.strip().splitlines()
    assert lines[0].startswith("aa.bad")
    assert lines[1].startswith("zz.ok")
    assert lines[-1] == "1 passed, 1 failed"
    empty = render_report([], "text")
    assert empty.strip() == "0 passed, 0 failed"
    assert json.loads(render_report([], "json")) == []


def test_verify_subcommand_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--suite", "d9", "--report", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(path.read_text())
    assert any(item["check_id"] == "d9.fiber.ideal" for item in payload)
    out = capsys.readouterr().out
    assert "wrote" in out


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_reports_get_the_mode_of_a_plain_write(umask, tmp_path, capsys):
    previous = os.umask(umask)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w", encoding="utf-8") as handle:
            handle.write("x")
        report, csv = tmp_path / "report.json", tmp_path / "census.csv"
        assert main(["verify", "--suite", "hilbert", "--report", str(report)]) == 0
        assert main(["scan", "--d", "9", "--prime", "19", "--csv", str(csv)]) == 0
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert mode == 0o666 & ~umask
    assert stat.S_IMODE(report.stat().st_mode) == stat.S_IMODE(csv.stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["census.csv", "plain.txt", "report.json"]


def test_a_replaced_report_keeps_its_mode(tmp_path, capsys):
    previous = os.umask(0o022)
    try:
        kept = {}
        for mode in (0o600, 0o640):
            report = tmp_path / f"report-{mode:o}.json"
            report.write_text("old")
            report.chmod(mode)
            assert main(["verify", "--suite", "hilbert", "--report", str(report)]) == 0
            kept[mode] = stat.S_IMODE(report.stat().st_mode)
            assert report.read_text() != "old"
        fresh = tmp_path / "new.json"
        cli.write_atomic(str(fresh), "{}")
    finally:
        os.umask(previous)
    assert kept == {0o600: 0o600, 0o640: 0o640}
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "report-600.json",
                                                          "report-640.json"]


def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        cli.write_atomic(str(tmp_path / "report.json"), "{}")
    assert list(tmp_path.iterdir()) == []


def test_verify_json_to_stdout(capsys):
    code = main(["verify", "--suite", "hilbert", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {item["check_id"] for item in payload} == {
        "d9.hilbert.monomial", "d9.hilbert.faces",
        "d9.hilbert.flatness", "d9.hilbert.cubicgap",
    }
    for item in payload:
        assert item["details"]["source"]


def test_verify_uses_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# comment\n"
        "scan_prime_d9 = 37\n"
    )
    code = main(["verify", "--suite", "scan", "--config", str(config),
                 "--report", str(tmp_path / "r.json"), "--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    scan = next(i for i in payload if i["check_id"] == "scan.d9.q19")
    assert scan["details"]["prime"] == 37


def test_bad_config_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _must_not_run)
    config = tmp_path / "bad.cfg"
    config.write_text("nonsense_key = 1\n")
    assert main(["verify", "--config", str(config)]) == 2
    config.write_text("scan_prime_d9 = 20\n")
    assert main(["verify", "--config", str(config)]) == 2
    config.write_text("scan_prime_d9 = 28\n")
    assert main(["verify", "--config", str(config)]) == 2
    config.write_text("scan_prime_d9\n")
    assert main(["verify", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err
    # an empty jacobian_primes used to PASS klein.jacobian without checking any prime
    for line in ("jacobian_primes = 9,15", "jacobian_primes = 2", "jacobian_primes =",
                 "jacobian_primes = 2147483659",
                 # a value that is not an integer used to be reported without its key
                 "scan_prime_d9 = abc", "jacobian_primes = 3,x",
                 # a repeated key used to keep its last value silently
                 "scan_prime_d9 = 19\nscan_prime_d9 = 37"):
        config.write_text(line + "\n")
        assert main(["verify", "--config", str(config)]) == 2
        assert line.split(" =")[0] in capsys.readouterr().err


# fixed values (hilbert.RANK_PRIMES, checks.T_MAX, checks.LAMBDA_MU_SAMPLES) and
# output settings, which only the --report and --format flags set
_NOT_CONFIG_KEYS = {
    "rank_primes": "1073741789,1073741783",
    "t_max": "4",
    "lambda_mu_samples": "0:1; 1:1",
    "report": "r.json",
    "format": "json",
}


@pytest.mark.parametrize("key", list(_NOT_CONFIG_KEYS))
def test_only_run_config_fields_are_config_keys(key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _must_not_run)
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {_NOT_CONFIG_KEYS[key]}\n")
    assert main(["verify", "--config", str(config)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the input was rejected")


def test_output_into_a_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _must_not_run)
    monkeypatch.setattr(cli, "scan_strata", _must_not_run)
    missing = tmp_path / "missing" / "out.txt"
    assert main(["scan", "--d", "9", "--prime", "19", "--csv", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert main(["verify", "--suite", "d9", "--report", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not missing.parent.exists()


def test_output_path_that_is_a_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _must_not_run)
    monkeypatch.setattr(cli, "scan_strata", _must_not_run)
    folder = tmp_path / "out"
    folder.mkdir()
    assert main(["scan", "--d", "9", "--prime", "19", "--csv", str(folder)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert main(["verify", "--suite", "d9", "--report", str(folder)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert list(folder.iterdir()) == []


def test_negative_max_deg_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "graded_hilbert", _must_not_run)
    assert main(["hilbert", "--lambda", "1", "--mu", "1", "--max-deg", "-2"]) == 2
    captured = capsys.readouterr()
    assert "--max-deg" in captured.err
    assert captured.out == ""


def test_degrees_beyond_the_packing_bound_are_usage_errors(capsys, monkeypatch):
    monkeypatch.setattr(cli, "graded_hilbert", _must_not_run)
    assert main(["hilbert", "--lambda", "1", "--mu", "1", "--max-deg", "127"]) == 2
    assert "(degree + 1)^9 must be below 2^63" in capsys.readouterr().err


def test_scan_subcommand(tmp_path, capsys):
    path = tmp_path / "census.csv"
    code = main(["scan", "--d", "9", "--prime", "19", "--csv", str(path)])
    assert code == 0
    assert path.read_text().startswith("q,d,rank,count")
    out = capsys.readouterr().out
    assert "19,9,2,40" in out
    assert main(["scan", "--d", "9", "--prime", "23"]) == 2


def test_scan_d11_prints_the_full_scan_census(capsys):
    # the quotient census behind scan gives the counts of ranking every point
    assert main(["scan", "--d", "11", "--prime", "67"]) == 0
    out = capsys.readouterr().out
    full = full_scan_strata(11, 67)
    assert out == census_csv([full]) + "minimal stratum: rank 2 with 60 points\n"


def test_hilbert_subcommand(capsys):
    assert main(["hilbert", "--lambda", "1", "--mu", "1", "--max-deg", "4"]) == 0
    out = capsys.readouterr().out
    assert "t=4: 144" in out
    assert main(["hilbert", "--lambda", "0", "--mu", "0"]) == 2
    assert main(["hilbert", "--lambda", "1", "--mu", "1", "--max-deg", "0"]) == 0
    assert "t=0: 1" in capsys.readouterr().out


def test_hilbert_subcommand_at_degree_12(capsys):
    assert main(["hilbert", "--lambda", "3", "--mu", "7", "--max-deg", "12"]) == 0
    out = capsys.readouterr().out
    assert "t=12: 1296" in out and "deviates" not in out


def test_hilbert_rejects_lambda_mu_beyond_int64(capsys, monkeypatch):
    assert main(["hilbert", f"--lambda={2 ** 63 - 1}", "--mu=1", "--max-deg=2"]) == 0
    assert "t=2: 36" in capsys.readouterr().out
    monkeypatch.setattr(cli, "graded_hilbert", _must_not_run)
    for flag, other in (("--lambda", "--mu"), ("--mu", "--lambda")):
        for value in (2 ** 63, -2 ** 63):
            assert main(["hilbert", f"{flag}={value}", f"{other}=1"]) == 2
            assert f"{flag} {value} is too large" in capsys.readouterr().err


def test_chars_subcommand(capsys):
    assert main(["chars"]) == 0
    out = capsys.readouterr().out
    assert "sym^2(chi3) = chi2 + chi5" in out
    assert "sym^3(chi3) = chi1 + chi5 + chi7 + chi8" in out


GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_all_report.json"


def test_verify_full_suite_exit_code():
    reports = run_suite("all")
    ids = {r.check_id for r in reports}
    assert {"d11.pfaffian.f6", "scan.d9.q19", "chars.sym2", "d9.hilbert.flatness"} <= ids
    failing = {r.check_id for r in reports if r.status == "fail"}
    assert failing == {"chars.sym2", "chars.sym3"}
    assert exit_code(reports) == 1
    # the JSON report is byte-stable apart from elapsed_ms; a change that moves
    # a check's details shows its diff in the golden file
    timeless = [dataclasses.replace(r, elapsed_ms=0) for r in reports]
    assert render_report(timeless, "json") == GOLDEN_REPORT.read_text(encoding="utf-8")
