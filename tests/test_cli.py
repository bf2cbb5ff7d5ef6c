import hashlib
import json

import pytest

from logdop import cache, cli, lifting, localdata, serialize
from logdop.cli import main
from logdop.engine import use_disk_cache
from logdop.errors import SectionFormatError
from logdop.lifting import correction_solver, sample_kernel_section


@pytest.fixture(autouse=True)
def no_disk_cache():
    yield
    use_disk_cache(None)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# h1
# ---------------------------------------------------------------------------

def test_h1_text_matches_reference_row(capsys):
    code, out, _ = run(capsys, "h1", "--p", "3", "--d", "9")
    assert code == 0
    assert "32 × 3  24 × 3^2  16 × 3^3  8 × 3^4  1 × 3^5" in out


def test_h1_trivial_group(capsys):
    code, out, _ = run(capsys, "h1", "--p", "2", "--d", "1")
    assert code == 0
    assert "0" in out


def test_h1_non_prime_exits_2(capsys):
    code, _, err = run(capsys, "h1", "--p", "4", "--d", "2")
    assert code == 2
    assert "not prime" in err


def test_h1_row_limit_exits_3(capsys):
    code, _, err = run(capsys, "h1", "--p", "3", "--d", "9", "--row-limit", "10")
    assert code == 3
    assert "row" in err


def test_h1_row_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LOGDOP_ROW_LIMIT", "10")
    code, _, _ = run(capsys, "h1", "--p", "3", "--d", "9")
    assert code == 3
    monkeypatch.setenv("LOGDOP_ROW_LIMIT", "100000")
    code, _, _ = run(capsys, "h1", "--p", "3", "--d", "9")
    assert code == 0


def test_h1_json_and_csv(capsys):
    code, out, _ = run(capsys, "h1", "--p", "5", "--d", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "h1-report/1"
    assert doc["per_degree"][1]["exponents"] == [1] * 6 + [2]
    code, out, _ = run(capsys, "h1", "--p", "5", "--d", "2", "--format", "csv",
                       "--per-degree")
    assert out.splitlines()[0] == "p,d,exponent,multiplicity"
    assert "5,2,2,1" in out


def test_h1_determinism(capsys):
    first = run(capsys, "h1", "--p", "3", "--d", "4", "--format", "json")
    second = run(capsys, "h1", "--p", "3", "--d", "4", "--format", "json")
    assert first == second


def test_h1_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out1, _ = run(capsys, "h1", "--p", "3", "--d", "3",
                        "--cache", str(cache))
    assert code == 0
    entries = sorted(f.name for f in cache.iterdir())
    assert entries == [f"h1-p3-d{d}-m0.json" for d in (1, 2, 3)]
    doc = json.loads((cache / "h1-p3-d2-m0.json").read_text())
    assert doc["format"] == "h1-group/1" and doc["exponents"] == [1, 1, 1]
    use_disk_cache(None)
    code, out2, _ = run(capsys, "h1", "--p", "3", "--d", "3",
                        "--cache", str(cache))
    assert code == 0 and out2 == out1


@pytest.mark.parametrize("argv, bad", [
    (("h1", "--p", "3", "--d", "0"), "--d 0"),
    (("h1", "--p", "3", "--d", "-2"), "--d -2"),
    (("h1", "--p", "3", "--d", "2", "--level", "-1"), "--level -1"),
    (("diagnose", "--p", "3", "--m", "-1", "--dmax", "3"), "--m -1"),
    (("diagnose", "--p", "3", "--m", "1", "--dmax", "0"), "--dmax 0"),
    (("lift", "--sample", "--p", "3", "--d", "0"), "--d 0"),
    (("lift", "--sample", "--p", "3", "--d", "2", "--level", "-1"), "--level -1"),
])
def test_out_of_range_arguments_exit_2(capsys, argv, bad):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


def test_row_limit_env_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LOGDOP_ROW_LIMIT", "abc")
    code, out, err = run(capsys, "h1", "--p", "3", "--d", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'abc'" in err


@pytest.mark.parametrize("damage", [
    lambda text: text[:10],
    lambda text: "not json",
    lambda text: text.replace("[", "[0, ", 1),
], ids=["truncated", "not-json", "zero-exponent"])
@pytest.mark.parametrize("argv", [
    ("h1", "--p", "3", "--d", "3"),
    ("appendix", "--format", "json"),
    ("diagnose", "--p", "3", "--m", "1", "--dmax", "3"),
], ids=["h1", "appendix", "diagnose"])
def test_corrupt_cache_entry_exits_2(tmp_path, capsys, argv, damage):
    directory = tmp_path / "cache"
    cache.DiskCache(directory).put(3, 2, 0, [1, 1, 1])
    entry = directory / "h1-p3-d2-m0.json"
    entry.write_text(damage(entry.read_text()))
    with pytest.raises(SectionFormatError, match="corrupt cache entry"):
        cache.DiskCache(directory).get(3, 2, 0)
    code, _, err = run(capsys, *argv, "--cache", str(directory))
    assert code == 2
    assert err.startswith("error: corrupt cache entry") and err.count("\n") == 1


def test_cache_put_replaces_entries_atomically(tmp_path, monkeypatch):
    store = cache.DiskCache(tmp_path)
    store.put(3, 2, 0, [1, 1, 1])
    before = (tmp_path / "h1-p3-d2-m0.json").read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(cache.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        store.put(3, 2, 0, [2])
    assert [f.name for f in tmp_path.iterdir()] == ["h1-p3-d2-m0.json"]
    assert (tmp_path / "h1-p3-d2-m0.json").read_bytes() == before
    assert store.get(3, 2, 0) == (1, 1, 1)


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

def test_appendix_verify_full(capsys):
    code, out, _ = run(capsys, "appendix", "--verify")
    assert code == 0
    assert "verdict OK" in out
    assert out.count("known-discrepancy") == 1


def test_appendix_single_row(capsys):
    code, out, _ = run(capsys, "appendix", "--p", "7", "--d", "6")
    assert code == 0
    assert out.strip() == "45 × 7  35 × 7^2  24 × 7^3  13 × 7^4  3 × 7^5"


def test_appendix_discrepant_row_reports_both(capsys):
    code, out, err = run(capsys, "appendix", "--p", "3", "--d", "8")
    assert code == 0  # flagged row: accepted via the structural checks
    assert "20 × 3^2" in out
    assert "10 × 3^2" in err and "known-discrepancy" in err


def test_appendix_json_round_trips(capsys):
    code, out, _ = run(capsys, "appendix", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_accepted"] is True
    assert [t["p"] for t in doc["tables"]] == [2, 3, 5, 7, 11]
    assert sum(len(t["rows"]) for t in doc["tables"]) == 39


def test_appendix_single_row_bad_usage(capsys):
    code, _, err = run(capsys, "appendix", "--p", "7")
    assert code == 2
    code, _, err = run(capsys, "appendix", "--p", "13", "--d", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_coeffs_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coeffs")
    assert code == 0
    assert "suite coeffs" in out and "pass" in out


def test_verify_seed_determinism(capsys):
    a = run(capsys, "verify", "--suite", "splitting", "--seed", "5")
    b = run(capsys, "verify", "--suite", "splitting", "--seed", "5")
    assert a[0] == b[0] == 0
    # timings differ; compare everything before the timing column
    strip = lambda out: [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert strip(a[1]) == strip(b[1])


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_sample_then_lift_with_check(tmp_path, capsys):
    section = tmp_path / "delta.json"
    code, _, _ = run(capsys, "lift", "--sample", "--p", "3", "--d", "3",
                     "--seed", "11", "--out", str(section))
    assert code == 0
    doc = json.loads(section.read_text())
    assert serialize.tensor_from_doc(doc) == sample_kernel_section(3, 3, seed=11)

    out_op = tmp_path / "lift.json"
    code, _, _ = run(capsys, "lift", "--input", str(section), "--method", "both",
                     "--check", "--out", str(out_op))
    assert code == 0
    op_doc = json.loads(out_op.read_text())
    assert op_doc["format"] == "operator/1"
    check_doc = json.loads((tmp_path / "lift.check.json").read_text())
    assert all(e["residue"] == "0" for e in check_doc["entries"])


def test_lift_both_check_computes_local_data_four_times(tmp_path, capsys,
                                                      monkeypatch):
    section = tmp_path / "delta.json"
    out = tmp_path / "lift.json"
    code, _, _ = run(capsys, "lift", "--sample", "--p", "5", "--d", "6",
                     "--seed", "4", "--out", str(section))
    assert code == 0
    correction_solver(5, 6, 0)  # the correction basis is not the lift's own work
    calls = []
    genuine = localdata.local_data_operator

    def counted(op, lifts=None):
        calls.append(op)
        return genuine(op, lifts)

    for module in (cli, lifting, localdata):
        monkeypatch.setattr(module, "local_data_operator", counted)
    code, _, _ = run(capsys, "lift", "--input", str(section), "--method", "both",
                     "--check", "--out", str(out))
    assert code == 0
    # the residual of the bare section, each path's own check, and the
    # solve/schedule agreement
    assert len(calls) == 4
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (section, out, tmp_path / "lift.check.json")]
    assert digests == [
        "2bf8e520f895ae65a01d55995539f82adbc919fd3653a52d5b48d1f7e2d80a00",
        "069d69d9b7b88ea2edacd637f1a2f2d6fc84816bd9c27a436085fca299273ed3",
        "23ed23f040ff1d65817d5ab95f321a6a62d0aea121d84d827e738773717a33d9",
    ]


def test_lift_zero_section(tmp_path, capsys):
    section = tmp_path / "zero.json"
    section.write_text(serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2, "m": 0,
         "a": ["0", "0"], "b": ["0", "0", "0"]}))
    code, out, _ = run(capsys, "lift", "--input", str(section))
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_lift_nonvanishing_input_exits_4(tmp_path, capsys):
    section = tmp_path / "bad.json"
    section.write_text(serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2, "m": 0,
         "a": ["1", "0"], "b": ["0", "0", "0"]}))
    code, _, err = run(capsys, "lift", "--input", str(section))
    assert code == 4
    assert "nonvanishing" in err and "point" in err


def test_lift_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format": "tensor-section/1",\n  "p": }')
    code, _, err = run(capsys, "lift", "--input", str(bad))
    assert code == 2
    assert "line 2" in err


def test_lift_schedule_rejects_level(tmp_path, capsys):
    section = tmp_path / "m1.json"
    code, _, _ = run(capsys, "lift", "--sample", "--p", "3", "--d", "2",
                     "--level", "1", "--seed", "0", "--out", str(section))
    assert code == 0
    code, _, err = run(capsys, "lift", "--input", str(section),
                       "--method", "schedule")
    assert code == 2
    assert "level-0" in err
    # the solve path handles positive level
    code, _, _ = run(capsys, "lift", "--input", str(section), "--method", "solve")
    assert code == 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_table(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "3", "--m", "1",
                       "--dmax", "9", "--schedule", "sqrt")
    assert code == 0
    assert len([l for l in out.splitlines() if l.lstrip()[:1].isdigit()]) == 9


def test_diagnose_zero_schedule_matches_exponents(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "5", "--m", "0",
                       "--dmax", "5", "--schedule", "zero", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        assert row["scheduled_exponent"] == row["max_exponent"]


def test_diagnose_p2_note_and_exit_zero(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "2", "--m", "1", "--dmax", "5")
    assert code == 0
    assert "p = 2" in out


def test_diagnose_csv(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "5", "--m", "2",
                       "--dmax", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("d,max_exponent")


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def test_data_consumes_operator_files(tmp_path, capsys):
    section = tmp_path / "delta.json"
    operator = tmp_path / "op.json"
    run(capsys, "lift", "--sample", "--p", "3", "--d", "2", "--seed", "4",
        "--out", str(section))
    run(capsys, "lift", "--input", str(section), "--out", str(operator))
    code, out, _ = run(capsys, "data", "--input", str(operator))
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "local-data/1" and not doc["degree_only"]
    assert all(e["residue"] == "0" for e in doc["entries"])


def test_data_consumes_tensor_files_and_rejects_non_global(tmp_path, capsys):
    section = tmp_path / "delta.json"
    section.write_text(serialize.dump_json(
        {"format": "tensor-section/1", "p": 2, "d": 1, "m": 0,
         "a": ["0"], "b": ["0", "1"]}))
    code, out, _ = run(capsys, "data", "--input", str(section))
    assert code == 0
    doc = json.loads(out)
    assert doc["degree_only"] is True
    assert [e["residue"] for e in doc["entries"]] == ["0", "1", "0"]

    bad = tmp_path / "op.json"
    bad.write_text(serialize.dump_json(
        {"format": "operator/1", "p": 3, "m": 0, "d": 1,
         "terms": [{"chart": "y", "power": 3, "order": 1, "coeff": "1"}]}))
    code, _, err = run(capsys, "data", "--input", str(bad))
    assert code == 2
    assert "global" in err
