import json
import random
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from logdop import serialize
from logdop.cache import DiskCache
from logdop.calculus import OperatorSection, TensorSection
from logdop.engine import h1_filtered, level_descent_diagnostic
from logdop.errors import SectionFormatError
from logdop.lifting import lift_by_solve, sample_kernel_section
from logdop.localdata import LocalDataVector, local_data_tensor
from logdop.tables import (
    AppendixReport,
    TABLE_PRIMES,
    compare_row,
    load_golden,
    verify_appendix,
)


def validate(doc, format_tag=None):
    schema = serialize.load_schema(format_tag or doc["format"])
    jsonschema.validate(doc, schema)
    # documents must survive a JSON round trip unchanged
    assert json.loads(serialize.dump_json(doc)) == doc


def test_tensor_document_round_trip():
    delta = sample_kernel_section(3, 3, seed=5)
    doc = serialize.tensor_to_doc(delta)
    validate(doc)
    assert serialize.tensor_from_doc(doc) == delta


def test_operator_document_round_trip():
    op, _ = lift_by_solve(sample_kernel_section(3, 3, seed=6))
    doc = serialize.operator_to_doc(op)
    validate(doc)
    assert serialize.operator_from_doc(doc) == op


def test_operator_document_big_coefficients():
    big = 10 ** 40 + 7
    op = OperatorSection(2, 0, 1, {("x", 0, 1): big})
    doc = serialize.operator_to_doc(op)
    validate(doc)
    assert serialize.operator_from_doc(doc).terms[("x", 0, 1)] == big


def test_local_data_document():
    delta = TensorSection(3, 2, 0, (1, 2), (3, 4, 5))
    doc = json.loads(serialize.local_data_text(local_data_tensor(delta)))
    validate(doc)
    assert len(doc["entries"]) == 4 * 2  # (p+1) * d coordinates
    full = json.loads(serialize.local_data_text(
        lift_by_solve(sample_kernel_section(3, 2, seed=1))[1]))
    validate(full)
    assert all(e["residue"] == "0" for e in full["entries"])


def _seeded_local_data(rng, p, d, m, degree_only, zero):
    data = LocalDataVector(p, d, m, degree_only=degree_only)
    if not zero:
        for a, k, i in data.coords():
            if rng.random() < 0.6:
                data.entries[(a, k, i)] = rng.randrange(p ** (k - i))
        coord = rng.choice(data.coords())
        # above 2^64; the writer prints residues, it does not reduce them
        data.entries[coord] = 2 ** 64 + rng.randrange(2 ** 70)
    return data


def test_local_data_text_is_the_json_encoders_text():
    # the stdlib encoder is the byte oracle for the direct writer
    rng = random.Random(7)
    validator = jsonschema.Draft7Validator(
        serialize.load_schema(serialize.FORMAT_LOCAL_DATA))
    for p in (2, 3, 5, 7):
        for d in range(1, 9):
            for m in range(3):
                for degree_only in (False, True):
                    for zero in (True, False):
                        data = _seeded_local_data(rng, p, d, m, degree_only, zero)
                        text = serialize.local_data_text(data)
                        doc = json.loads(text)
                        assert serialize.dump_json(doc) == text
                        if d <= 4:  # the schema is slow; larger d adds only entries
                            validator.validate(doc)
                        assert [int(e["residue"]) for e in doc["entries"]] == data.vector()
    # an order-0 operator has no coordinates
    text = serialize.local_data_text(LocalDataVector(3, 0, 0))
    assert serialize.dump_json(json.loads(text)) == text


def _seeded_operator(rng, p, d, m, n_terms):
    terms = {}
    for _ in range(n_terms):
        key = (rng.choice(("x", "y")), rng.randint(0, 2 * d + 1), rng.randint(0, d))
        terms[key] = rng.choice((-1, 1)) * rng.choice((1, rng.randrange(2 ** 64),
                                                     2 ** 200 + rng.randrange(2 ** 210)))
    return OperatorSection(p, m, d, terms)


def test_operator_and_tensor_texts_are_the_json_encoders_text():
    # the stdlib encoder is the byte oracle for the direct writers
    rng = random.Random(11)
    validators = {tag: jsonschema.Draft7Validator(serialize.load_schema(tag))
                  for tag in (serialize.FORMAT_OPERATOR, serialize.FORMAT_TENSOR)}
    charts = set()
    for p in (2, 3, 5, 7):
        for d in range(0, 7):
            for m in range(3):
                for n_terms in (0, 1, 12):
                    op = _seeded_operator(rng, p, d, m, n_terms)
                    charts.update(chart for chart, _, _ in op.terms)
                    text = serialize.operator_text(op)
                    assert text == serialize.dump_json(serialize.operator_to_doc(op))
                    if d <= 3:  # the schema is slow; larger d adds only entries
                        validators[serialize.FORMAT_OPERATOR].validate(json.loads(text))
                if d:
                    coeffs = [rng.choice((0, -1, 1)) * rng.randrange(2 ** 201)
                              for _ in range(2 * d + 1)]
                    delta = TensorSection.from_coordinates(p, d, m, coeffs)
                    text = serialize.tensor_text(delta)
                    assert text == serialize.dump_json(serialize.tensor_to_doc(delta))
                    if d <= 3:
                        validators[serialize.FORMAT_TENSOR].validate(json.loads(text))
    assert charts == {"x", "y"}
    empty = OperatorSection(3, 0, 2)
    assert serialize.operator_text(empty) == serialize.dump_json(serialize.operator_to_doc(empty))
    assert '"terms": []' in serialize.operator_text(empty)


def test_local_data_text_of_computed_data():
    rng = random.Random(3)
    for p, d in ((2, 5), (3, 4), (5, 3), (7, 2)):
        coeffs = [rng.randrange(-2 ** 80, 2 ** 80) for _ in range(2 * d + 1)]
        delta = TensorSection(p, d, 1, tuple(coeffs[:d]), tuple(coeffs[d:]))
        for data in (local_data_tensor(delta),
                     lift_by_solve(sample_kernel_section(p, d, seed=d))[1]):
            text = serialize.local_data_text(data)
            assert serialize.dump_json(json.loads(text)) == text


def test_h1_report_document_and_texts():
    rep = h1_filtered(3, 3)
    doc = serialize.h1_report_to_doc(rep, 0)
    validate(doc)
    assert doc["total"]["exponents"] == [1] * 8 + [2]
    text = serialize.h1_report_to_text(rep, 0, per_degree=True)
    assert "8 × 3  1 × 3^2" in text
    csv = serialize.h1_report_to_csv(rep)
    assert csv.splitlines()[0] == "p,d,exponent,multiplicity"
    assert "3,3,1,8" in csv
    per = serialize.h1_report_to_csv(rep, per_degree=True)
    assert "3,1,1,1" in per and "3,3,2,1" in per


def test_h1_group_cache_document(tmp_path):
    DiskCache(tmp_path).put(3, 2, (1, 1, 1))
    [entry] = tmp_path.iterdir()
    assert entry.name == "h1-p3-d2.json"
    doc = json.loads(entry.read_text())
    validate(doc, serialize.FORMAT_H1_GROUP)
    assert doc == {"format": "h1-group/2", "p": 3, "d": 2, "exponents": [1, 1, 1]}


def test_appendix_data_files_validate():
    schema = serialize.load_schema("appendix-table/1")
    for p in TABLE_PRIMES:
        rows = load_golden(p)
        assert rows == sorted(rows, key=lambda r: r.d)
    from importlib import resources
    files = resources.files("logdop").joinpath("data/appendix").iterdir()
    assert sorted(f.name for f in files) == sorted(f"p{p}.json" for p in TABLE_PRIMES)
    for p in TABLE_PRIMES:
        doc = json.loads(resources.files("logdop")
                         .joinpath(f"data/appendix/p{p}.json").read_text())
        jsonschema.validate(doc, schema)


def test_appendix_report_documents():
    rep = verify_appendix()
    doc = serialize.appendix_report_to_doc(rep)
    validate(doc)
    assert doc["all_accepted"] is True
    single = serialize.appendix_report_to_doc(AppendixReport((compare_row(3, 8),)))
    validate(single)
    assert [t["p"] for t in single["tables"]] == [3]
    assert single["tables"][0]["rows"][0]["status"] == "known-discrepancy"
    flagged = [(table["p"], row["d"]) for table in doc["tables"]
               for row in table["rows"] if row["status"] != "match"]
    assert flagged == [(3, 8)]
    text = serialize.appendix_report_to_text(rep)
    assert "known-discrepancy" in text and "verdict OK" in text


def test_diagnostic_documents():
    diag = level_descent_diagnostic(5, 1, 8, "sqrt")
    doc = serialize.diagnostic_to_doc(diag)
    validate(doc)
    text = serialize.diagnostic_to_text(diag)
    assert "schedule=sqrt" in text
    csv = serialize.diagnostic_to_csv(diag)
    assert csv.splitlines()[0].startswith("d,max_exponent")
    assert len(csv.splitlines()) == 9


def test_parse_errors_carry_positions():
    with pytest.raises(SectionFormatError, match=r"^invalid JSON at line 2, column \d+: "):
        serialize.parse_json_document('{"format": "tensor-section/1",\n  "p": }')
    with pytest.raises(SectionFormatError):
        serialize.tensor_from_doc({"format": "operator/1"})
    with pytest.raises(SectionFormatError):
        serialize.tensor_from_doc(
            {"format": "tensor-section/1", "p": 3, "d": 1, "m": 0,
             "a": ["1", "2"], "b": ["0"]})


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit on this Python")
def test_integers_past_the_digit_limit_are_format_errors():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(SectionFormatError, match="invalid JSON"):
        serialize.parse_json_document('{"p": %s}' % digits)
    with pytest.raises(SectionFormatError, match="decimal strings"):
        serialize.tensor_from_doc({"format": "tensor-section/1", "p": 3, "d": 1,
                                   "m": 0, "a": [digits], "b": ["0", "0"]})
    with pytest.raises(SectionFormatError, match="malformed term entry"):
        serialize.operator_from_doc(
            {"format": "operator/1", "p": 3, "m": 0, "d": 1,
             "terms": [{"chart": "y", "power": 1, "order": 1, "coeff": digits}]})
