"""End-to-end command-line checks on golden documents and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gradedet

from gradedet import cli, serialize
from gradedet.algebra import make_algebra, preset, twist
from gradedet.cli import _parser, main
from gradedet.errors import ParseError, TooLarge, VerificationFailure
from gradedet.gdet import all_ns_multipliers, canonical_sigma
from gradedet.gmatrix import GradedMatrix, identity
from gradedet.grading import (Bicharacter, GradingGroup, is_ns_multiplier,
                              trivial_multiplier)
from gradedet.serialize import (MAX_ALGEBRA_DIM, MAX_MATRIX_N,
                                MAX_ROOT_ORDER, digest_algebra,
                                digest_matrix, digest_multiplier,
                                format_algebra, format_matrix,
                                format_multiplier, parse_algebra,
                                parse_matrix, parse_preset)

Q = preset("quaternions")
J = Q.basis_element("j")
ZERO = Q.group.zero()
JT = J.degree_of()
X = GradedMatrix(Q, [ZERO, JT], [ZERO, JT], [[Q.one(), J], [J, Q.one()]])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def xfile(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps(format_matrix(X)))
    return str(p)


def test_gdet0_golden(capsys, xfile):
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", xfile)
    assert code == 0
    assert doc == {
        "format": 1,
        "root_order": 1,
        "result": [{"b": "1", "c": "2"}],
        "degree": [0, 0],
        "inputs": {"algebra": digest_algebra(Q), "matrix": digest_matrix(X)},
    }


def test_trace_of_identity(capsys, tmp_path):
    dn = preset("dual_numbers", 2)
    odd = [dn.group.element([1, 0]), dn.group.element([0, 1])]
    p = tmp_path / "id.json"
    p.write_text(json.dumps(format_matrix(identity(dn, odd))))
    code, doc = run(capsys, "trace", "--algebra", "preset:dual_numbers:2",
                    "--matrix", str(p))
    assert code == 0
    # Tr(I) = r_even - r_odd = -2
    assert doc["result"] == [{"b": "1", "c": "-2"}]
    assert doc["degree"] == [0, 0]


def test_gdet_with_sigma_file(capsys, xfile, tmp_path):
    sigma = canonical_sigma(Q)
    sp = tmp_path / "sigma.json"
    sp.write_text(json.dumps(format_multiplier(sigma)))
    code, doc = run(capsys, "gdet", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--sigma", str(sp))
    assert code == 0
    assert doc["result"] == [{"b": "1", "c": "2"}]
    assert doc["inputs"]["sigma"] == digest_multiplier(sigma)


def test_degrees_override(capsys, xfile):
    # with both degrees zero the worked matrix picks up the sigma-dependent
    # value; the canonical multiplier gives 2
    code, doc = run(capsys, "gdet", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--degrees", "[[0,0],[0,0]]")
    assert code == 0
    assert doc["result"] == [{"b": "1", "c": "2"}]
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", xfile,
                    "--degrees", json.dumps({"col": [[0, 0], [0, 1]]}))
    assert code == 0
    assert doc["result"] == [{"b": "1", "c": "2"}]


def test_degrees_override_errors(capsys, xfile):
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--degrees", "[[0,0]]")
    assert code == 2
    assert doc["error"] == "ParseError"
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--degrees", "{bad json")
    # the same decoder, and so the same message, as a file's invalid JSON
    assert (code, doc["error"]) == (2, "ParseError")
    assert doc["message"] == "--degrees: invalid JSON at line 1, column 2"


def test_parse_error_exit_codes(capsys, tmp_path, xfile):
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(tmp_path / "absent.json"))
    assert code == 2 and doc["error"] == "ParseError"
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(bad))
    assert code == 2
    code, doc = run(capsys, "gdet0", "--algebra", "preset:unknown",
                    "--matrix", xfile)
    assert code == 3 and doc["error"] == "InvalidParams"
    bad.write_bytes(b"\xff\xfe{}")
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(bad))
    assert code == 2 and "not UTF-8" in doc["message"]


@pytest.mark.parametrize("text, refusal", [
    ("1/0", "zero denominator in '1/0'"),
    ("q", "bad scalar term 'q' in 'q'")])
def test_coefficient_refusal_names_the_file_and_the_entry(capsys, tmp_path,
                                                          text, refusal):
    doc = format_matrix(X)
    doc["entries"][1][0][0]["c"] = text
    p = tmp_path / "coefficient.json"
    body = json.dumps(doc)
    p.write_text(body)
    want = f"{p} entry (1,0): {refusal}"
    assert run(capsys, "gdet0", "--algebra", "preset:quaternions",
               "--matrix", str(p)) == (2, {"format": 1, "error": "ParseError",
                                           "message": want})
    # load_matrix's plain path (one json.loads and the walk) and its
    # checked path (_decode_json and read_matrix) refuse alike
    for read in (lambda: serialize._read_matrix(json.loads(body), Q, str(p)),
                 lambda: serialize.read_matrix(
                     serialize._decode_json(body, str(p)), Q, str(p)),
                 lambda: serialize.load_matrix(str(p), Q)):
        with pytest.raises(ParseError) as exc:
            read()
        assert exc.type is ParseError and str(exc.value) == want


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["entries"][0][0][0].update(c="1/0"),
    lambda doc: doc.update(root_order=0),
    lambda doc: doc.update(root_order=-3),
], ids=["coefficient_1/0", "root_order_0", "root_order_-3"])
def test_parse_boundary_errors(capsys, tmp_path, corrupt):
    doc = format_matrix(X)
    corrupt(doc)
    p = tmp_path / "hostile.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(p))
    assert code == 2 and out["error"] == "ParseError"


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["table"].update({"0,0": 5}),
    lambda doc: doc["table"].update({"0,0": None}),
    lambda doc: doc.update(name=["x"]),
], ids=["table_cell_5", "table_cell_null", "name_list"])
def test_algebra_document_errors(capsys, tmp_path, corrupt):
    doc = format_algebra(Q)
    corrupt(doc)
    p = tmp_path / "hostile.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "solve-sigma", "--algebra", str(p))
    assert code == 2 and out["error"] == "ParseError"


@pytest.mark.parametrize("key, like", [
    (" 0,1", "0,1"), ("+0,1", "0,1"), ("00,1", "0,1"), ("0_0,1", "0,1"),
    ("1,02", "1,2")])
def test_table_keys_in_canonical_decimal_only(capsys, tmp_path, key, like):
    # int() reads each of these keys as the key `like`
    doc = format_algebra(Q)
    doc["table"][key] = doc["table"].pop(like)
    p = tmp_path / "hostile.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "solve-sigma", "--algebra", str(p))
    assert code == 2 and out["error"] == "ParseError"
    assert "bad table key" in out["message"]


def _repeat(text, old, new):
    """text with its one occurrence of old replaced by new."""
    assert text.count(old) == 1
    return text.replace(old, new)


ALGEBRA_TEXT = json.dumps(format_algebra(Q))
I_TIMES_J = '"1,2": [{"k": 3, "c": "1"}]'
MATRIX_TEXT = json.dumps(format_matrix(X))
# the term of entry (1,1), whose basis label is 1
LAST_TERM = '[{"b": "j", "c": "1"}], [{"b": "1"'
SIGMA_TEXT = json.dumps(format_multiplier(canonical_sigma(Q)))


@pytest.mark.parametrize("command, where, text, key", [
    # i*j given twice, the same cell both times: plain json reads it as the
    # quaternions
    ("solve-sigma", "algebra",
     _repeat(ALGEBRA_TEXT, I_TIMES_J, f"{I_TIMES_J}, {I_TIMES_J}"), "1,2"),
    # i*j given as k and then as -k: plain json keeps -k, which is not
    # associative
    ("solve-sigma", "algebra",
     _repeat(ALGEBRA_TEXT, I_TIMES_J,
             f'{I_TIMES_J}, "1,2": [{{"k": 3, "c": "-1"}}]'), "1,2"),
    ("gdet0", "matrix",
     _repeat(MATRIX_TEXT, LAST_TERM,
             LAST_TERM.replace('"b": "1"', '"b": "i", "b": "1"')), "b"),
    ("gdet", "sigma",
     _repeat(SIGMA_TEXT, '"root_order": 2',
             '"root_order": 2, "root_order": 2'), "root_order"),
], ids=["algebra_same_cell", "algebra_minus_k", "matrix_term_b",
        "sigma_root_order"])
def test_duplicate_keys_exit_2(capsys, tmp_path, xfile, command, where,
                               text, key):
    p = tmp_path / "duplicate.json"
    p.write_text(text)
    if where == "algebra":
        argv = [command, "--algebra", str(p)]
    else:
        argv = [command, "--algebra", "preset:quaternions", "--matrix",
                str(p) if where == "matrix" else xfile]
    if where == "sigma":
        argv += ["--sigma", str(p)]
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"] == "ParseError"
    assert out["message"] == f"{p}: duplicate key {key!r}"


def test_duplicate_key_in_degrees_exits_2(capsys, xfile):
    code, out = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--degrees",
                    '{"col": [[0, 0], [0, 1]], "col": [[0, 0], [0, 0]]}')
    assert code == 2 and out["error"] == "ParseError"
    assert out["message"] == "--degrees: duplicate key 'col'"


@pytest.mark.parametrize("degrees, key", [
    ({"rows": [[1, 0], [1, 0]]}, "rows"),
    ({"row": [[0, 0], [1, 0]], "cols": 3}, "cols")])
def test_unknown_key_in_degrees_exits_2(capsys, tmp_path, degrees, key):
    # a misspelt key used to be ignored, leaving the document's degrees
    dn = preset("dual_numbers", 2)
    p = tmp_path / "x.json"
    p.write_text(json.dumps(format_matrix(identity(
        dn, [dn.group.zero(), dn.group.element([1, 0])]))))
    code, out = run(capsys, "gber", "--algebra", "preset:dual_numbers:2",
                    "--matrix", str(p), "--degrees", json.dumps(degrees))
    assert code == 2 and out["error"] == "ParseError"
    assert out["message"] == (f"--degrees: unknown key {key!r}; expected "
                              "'row' and/or 'col'")


@pytest.mark.parametrize("where", ["matrix", "algebra", "lambda", "sigma",
                                   "combined"])
def test_root_order_past_the_limit_exits_3(capsys, tmp_path, where):
    huge = 10007
    docs = {"matrix": format_matrix(X), "algebra": format_algebra(Q),
            "sigma": format_multiplier(canonical_sigma(Q))}
    commands = ["gdet"]
    message = f"root_order {huge} is above the limit {MAX_ROOT_ORDER}"
    if where == "combined":
        # 255 is within the limit, but lambda and sigma have order 2, so
        # the scalars would meet at order 510
        docs["matrix"]["root_order"] = 255
        docs["matrix"]["entries"][0][0][0]["c"] = "z+2"
        commands = ["gdet", "gdet0", "gber", "trace"]
        message = ("the inputs' root orders combine to 510, above the "
                   f"limit {MAX_ROOT_ORDER}")
    else:
        if where == "matrix":
            docs["matrix"]["entries"][0][0][0]["c"] = "z"
        target = (docs["algebra"]["lambda"] if where == "lambda"
                  else docs[where])
        target["root_order"] = huge
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for command in commands:
        argv = [command, "--algebra", str(paths["algebra"]),
                "--matrix", str(paths["matrix"])]
        if command in ("gdet", "gber"):
            argv += ["--sigma", str(paths["sigma"])]
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 3 and out["error"] == "TooLarge"
        assert message in out["message"]


@pytest.mark.parametrize("spec", ["clifford:99999999999999999999,1",
                                  "clifford:20,20", "grassmann:8",
                                  "clock_shift:12", "group_algebra:2,3,5,5"])
def test_algebra_past_the_dimension_limit_exits_3(capsys, spec):
    # every one of these is refused before anything is built; the first
    # would otherwise raise OverflowError building (Z_2)^(10^20 + 2)
    start = time.perf_counter()
    code, out = run(capsys, "solve-sigma", "--algebra", "preset:" + spec)
    assert time.perf_counter() - start < 1
    assert code == 3 and out["error"] == "TooLarge"
    assert f"above the limit {MAX_ALGEBRA_DIM}" in out["message"]
    with pytest.raises(TooLarge):
        parse_preset("preset:" + spec)


def test_algebra_at_the_dimension_limit_is_built():
    # 2^7 = MAX_ALGEBRA_DIM: the limit itself is allowed
    assert MAX_ALGEBRA_DIM == 128
    assert parse_preset("preset:grassmann:7").dim == MAX_ALGEBRA_DIM


def test_algebra_document_past_the_dimension_limit_exits_3(capsys,
                                                           tmp_path):
    # 129 basis entries, and a table that is never read: its one key is
    # malformed, which would be exit 2 if it were
    doc = format_algebra(preset("group_algebra", 2))
    doc["basis"] = [{"label": f"b{i}", "degree": [0]}
                    for i in range(MAX_ALGEBRA_DIM + 1)]
    doc["table"] = {"not a key": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "solve-sigma", "--algebra", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3 and out["error"] == "TooLarge"
    with pytest.raises(TooLarge):
        parse_algebra(doc)
    # at the limit the table is read, and its bad key refused
    doc["basis"] = doc["basis"][:MAX_ALGEBRA_DIM]
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "solve-sigma", "--algebra", str(path))
    assert code == 2 and out["message"].endswith("bad table key 'not a key'")


def test_matrix_past_the_size_limit_exits_3(capsys, tmp_path):
    # 10^5 rows of one zero entry each: refused before any degree or
    # entry is read
    rows = 10 ** 5
    doc = {"format": 1, "row_degrees": [[0, 0]] * rows,
           "col_degrees": [[0, 0]], "entries": [[[]]] * rows}
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3 and out["error"] == "TooLarge"
    assert out["message"] == (f"{path}: a 100000x1 matrix is above the limit "
                              f"of {MAX_MATRIX_N} rows and columns")
    with pytest.raises(TooLarge):
        parse_matrix(doc, Q)
    # the degree vectors alone count, however malformed the entries
    doc = {"format": 1, "row_degrees": [[0, 0]] * (MAX_MATRIX_N + 1),
           "col_degrees": [], "entries": "never read"}
    with pytest.raises(TooLarge):
        parse_matrix(doc, Q)


def test_matrix_at_the_size_limit_is_parsed():
    assert MAX_MATRIX_N == 64
    x = identity(Q, [ZERO] * MAX_MATRIX_N)
    assert parse_matrix(format_matrix(x), Q) == x


def _cli_docs(tmp_path, docs):
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def test_gdet_at_the_root_order_limit_golden(capsys, tmp_path):
    # the README matrix at root order 256 with one z + 2 coefficient and
    # an order-2 sigma: the determinant's integer table has phi(256) = 128
    # powers of zeta per basis vector
    matrix = format_matrix(X)
    matrix["root_order"] = 256
    matrix["entries"][0][0][0]["c"] = "z+2"
    paths = _cli_docs(tmp_path, {
        "matrix": matrix, "sigma": format_multiplier(canonical_sigma(Q))})
    code = main(["gdet", "--algebra", "preset:quaternions",
                 "--matrix", str(paths["matrix"]),
                 "--sigma", str(paths["sigma"])])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"degree":[0,0],"format":1,"inputs":{"algebra":"978e0f0f0d2c",'
        '"matrix":"2cbe7d065397","sigma":"e8c338d0c53e"},'
        '"result":[{"b":"1","c":"3 + z"}],"root_order":256}\n')


@pytest.mark.parametrize("where, path, value", [
    *[("sigma", "exponents/0/1", v) for v in (1.5, "1", True)],
    *[("algebra", "lambda/exponents/0/1", v) for v in (1.5, "1", True)],
    ("sigma", "moduli/0", 2.5),
    ("algebra", "group/moduli/0", 2.5),
    ("algebra", "basis/0/degree/0", 0.5),
    ("matrix", "row_degrees/0/0", 0.5),
    ("matrix", "col_degrees/0/0", 0.5),
    ("degrees", "1/1", 1.9),
    *[(doc, "format", True) for doc in ("matrix", "algebra", "sigma")],
    *[(doc, "root_order", True) for doc in ("matrix", "algebra", "sigma")],
    ("algebra", "lambda/root_order", True),
    ("algebra", "table/0,1/0/k", True),
])
def test_json_integers_are_not_coerced(capsys, tmp_path, where, path, value):
    # int() would read each of these as an integer the document never
    # wrote: 1.5 and 1.9 as 1, "1" as 1, 0.5 as 0, true as 1
    docs = {"matrix": format_matrix(X), "algebra": format_algebra(Q),
            "sigma": format_multiplier(canonical_sigma(Q)),
            "degrees": [list(d.residues) for d in X.row_degrees]}
    *keys, last = (int(k) if k.isdigit() else k for k in path.split("/"))
    target = docs[where]
    for key in keys:
        target = target[key]
    target[last] = value
    paths = _cli_docs(tmp_path, docs)
    code, out = run(capsys, "gdet", "--algebra", str(paths["algebra"]),
                    "--matrix", str(paths["matrix"]),
                    "--sigma", str(paths["sigma"]),
                    "--degrees", json.dumps(docs["degrees"]))
    assert code == 2 and out["error"] == "ParseError"
    assert "integer" in out["message"] or "wrong type" in out["message"]


def test_precondition_exit_code(capsys, tmp_path):
    dn = preset("dual_numbers", 2)
    odd = dn.group.element([1, 0])
    m = identity(dn, [odd, dn.group.zero()])
    p = tmp_path / "unsorted.json"
    p.write_text(json.dumps(format_matrix(m)))
    code, doc = run(capsys, "gber", "--algebra", "preset:dual_numbers:2",
                    "--matrix", str(p))
    assert code == 3
    assert doc["error"] == "NotParitySorted"
    assert "permute" in doc["message"]


def test_mathematical_exit_code(capsys, tmp_path):
    dn = preset("dual_numbers", 2)
    e1 = dn.basis_element("eps1")
    nu = [dn.group.zero(), e1.degree_of()]
    m = GradedMatrix(dn, nu, nu, [[dn.one(), e1], [e1, dn.zero()]])
    p = tmp_path / "singular.json"
    p.write_text(json.dumps(format_matrix(m)))
    code, doc = run(capsys, "gber", "--algebra", "preset:dual_numbers:2",
                    "--matrix", str(p))
    assert code == 4
    assert doc["error"] == "SingularOddBlock"
    assert VerificationFailure("x").exit_code == 5
    # an invertible X11 with a zero Schur complement
    m = GradedMatrix(dn, nu, nu, [[dn.zero(), dn.zero()],
                                  [dn.zero(), dn.one()]])
    p.write_text(json.dumps(format_matrix(m)))
    code, doc = run(capsys, "gber", "--algebra", "preset:dual_numbers:2",
                    "--matrix", str(p))
    assert code == 4
    assert doc["error"] == "Singular"


def test_gdet_and_gber_refuse_a_sigma_that_is_not_ns(capsys, xfile,
                                                     tmp_path):
    # the trivial multiplier leaves the quaternions' lambda as it is, so
    # the entries of J_sigma(X) need not commute; twist takes any sigma
    sp = tmp_path / "sigma.json"
    sp.write_text(json.dumps(format_multiplier(trivial_multiplier(Q.group))))
    for command in ("gdet", "gber"):
        start = time.perf_counter()
        code = main([command, "--algebra", "preset:quaternions", "--matrix",
                     xfile, "--sigma", str(sp)])
        assert time.perf_counter() - start < 1
        lines = capsys.readouterr().out.splitlines()
        assert code == 3 and len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "InvalidParams"
        assert "solve-sigma" in doc["message"]
    code, doc = run(capsys, "twist", "--algebra", "preset:quaternions",
                    "--sigma", str(sp))
    assert code == 0 and "error" not in doc


def test_gdet_and_gber_take_every_ns_sigma(capsys, xfile, tmp_path):
    sp = tmp_path / "sigma.json"
    for sigma in all_ns_multipliers(Q.lam):
        sp.write_text(json.dumps(format_multiplier(sigma)))
        for command in ("gdet", "gber"):
            code, doc = run(capsys, command, "--algebra",
                            "preset:quaternions", "--matrix", xfile,
                            "--sigma", str(sp))
            assert code == 0, doc


def test_twist_round_trip(capsys):
    code, doc = run(capsys, "twist", "--algebra", "preset:quaternions")
    assert code == 0
    back = parse_algebra(doc)
    want = twist(Q, canonical_sigma(Q))
    assert back.labels == want.labels
    assert back.table == want.table
    assert doc["inputs"]["algebra"] == digest_algebra(Q)


def test_solve_sigma(capsys):
    code, doc = run(capsys, "solve-sigma", "--algebra", "preset:quaternions")
    assert code == 0
    assert len(doc["all"]) == 8
    assert doc["multiplier"] == doc["all"][0]
    assert all(d["format"] == 1 for d in doc["all"])


def test_kept_twist_and_family_documents_stay_unchanged(capsys):
    # twist keeps its formatted document on the twisted algebra and
    # solve-sigma beside the NS family; format_algebra, format_multiplier
    # and each job still give a document of their own, so changing one
    # changes no later output
    jobs = [("twist", "--algebra", "preset:quaternions"),
            ("solve-sigma", "--algebra", "preset:quaternions")]
    first = [run(capsys, *argv) for argv in jobs]
    twisted = twist(Q, canonical_sigma(Q))
    mine = format_algebra(twisted)
    mine["table"].clear()
    mine["basis"][0]["label"] = "x"
    mine["lambda"]["exponents"][0][0] = 7
    sigma = format_multiplier(canonical_sigma(Q))
    sigma["exponents"][0][0] = 7
    for _, doc in first:
        doc.clear()
    kept = cli._twist_document(twisted)
    kept["inputs"] = {}
    del kept["table"]
    assert [run(capsys, *argv) for argv in jobs] == [
        _fresh_json(*argv) for argv in jobs]
    doc = run(capsys, *jobs[0])[1]
    del doc["inputs"]
    assert doc == format_algebra(twisted)


def _fresh_json(*argv):
    code, out = _fresh(*argv)
    return code, json.loads(out)


def test_verify_suite(capsys):
    code, doc = run(capsys, "verify", "--suite", "algebra", "--seed", "3")
    assert code == 0
    assert doc["seed"] == 3
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["name"] == "twisted_quaternion_tables"
    assert doc["reports"][0]["failures"] == []
    assert doc["reports"][0]["instances"] > 0


def test_pretty_format(capsys, xfile):
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--format", "pretty")
    assert code == 0
    out = json.dumps(doc, indent=2, sort_keys=True)
    assert doc["result"] == [{"b": "1", "c": "2"}]
    assert "\n" in out


def test_algebra_from_file(capsys, tmp_path, xfile):
    ap = tmp_path / "alg.json"
    ap.write_text(json.dumps(format_algebra(Q)))
    code, doc = run(capsys, "gdet0", "--algebra", str(ap),
                    "--matrix", xfile)
    assert code == 0
    assert doc["result"] == [{"b": "1", "c": "2"}]


def test_large_grading_group_is_never_enumerated(capsys, tmp_path,
                                                monkeypatch):
    # a one-dimensional algebra over Z_200 x Z_200 (|Gamma| = 40,000): every
    # grading check must stay on the 2 x 2 exponent matrices
    group = GradingGroup([200, 200])
    lam = Bicharacter(group, 200, [[0, 1], [-1, 0]])
    line = make_algebra([group.zero()], {(0, 0): {0: 1}}, lam,
                        labels=("1",), name="line")
    nu = [group.element([3, 5])]
    x = GradedMatrix(line, nu, nu, [[line.from_scalar(5)]])
    ap, xp = tmp_path / "alg.json", tmp_path / "x.json"
    ap.write_text(json.dumps(format_algebra(line)))
    xp.write_text(json.dumps(format_matrix(x)))

    def refuse(self):
        raise AssertionError(f"enumerated all of {self!r}")

    monkeypatch.setattr(GradingGroup, "elements", refuse)
    for argv in (("gdet0", "--matrix", str(xp)),
                 ("trace", "--matrix", str(xp)),
                 ("gdet", "--matrix", str(xp)),
                 ("gber", "--matrix", str(xp)),
                 ("twist",),
                 ("solve-sigma",)):
        code, doc = run(capsys, *argv, "--algebra", str(ap))
        assert code == 0, (argv, doc)
    assert doc["multiplier"] == {"format": 1, "moduli": [200, 200],
                                 "root_order": 200,
                                 "exponents": [[0, 199], [0, 0]]}


@pytest.mark.parametrize("name, order, exponents, count", [
    # lambda is trivial, at root order 1, yet the family lives at order 2
    ("group_algebra:2,2", 2, [[0, 0], [0, 0]], 8),
    ("clock_shift:3", 3, [[0, 1], [0, 0]], 1),
])
def test_solve_sigma_root_orders(capsys, name, order, exponents, count):
    code, doc = run(capsys, "solve-sigma", "--algebra", f"preset:{name}")
    assert code == 0
    assert doc["multiplier"]["root_order"] == order
    assert doc["multiplier"]["exponents"] == exponents
    assert len(doc["all"]) == count


def test_solve_sigma_refuses_a_huge_family(capsys, tmp_path):
    # clifford:3,3's grading: (Z_2)^7 with lambda(e_a, e_b) = (-1)^[a = b],
    # 2^28 NS multipliers.  A one-dimensional algebra carries it, so that
    # the run times the refusal and not the dim^3 validation of the
    # 64-dimensional preset.
    group = GradingGroup([2] * 7)
    lam = Bicharacter(group, 2, [[int(a == b) for b in range(7)]
                                 for a in range(7)])
    line = make_algebra([group.zero()], {(0, 0): {0: 1}}, lam,
                        labels=("1",), name="line")
    ap = tmp_path / "alg.json"
    ap.write_text(json.dumps(format_algebra(line)))
    start = time.perf_counter()
    code, doc = run(capsys, "solve-sigma", "--algebra", str(ap))
    assert time.perf_counter() - start < 1
    assert code == TooLarge.exit_code == 3
    assert doc["error"] == "TooLarge"
    assert "2^28" in doc["message"]


def test_solve_sigma_refuses_a_huge_preset_family_before_building(capsys):
    # clifford:4,3 is graded by (Z_2)^8: 36 free exponents.  Building and
    # validating the 128-dimensional preset takes seconds; the family size
    # follows from the parameters alone.
    start = time.perf_counter()
    code, doc = run(capsys, "solve-sigma", "--algebra",
                    "preset:clifford:4,3")
    assert time.perf_counter() - start < 1
    assert code == TooLarge.exit_code == 3
    assert doc == {"format": 1, "error": "TooLarge",
                   "message": "the NS multiplier family has 2^36 members; "
                              "36 free exponents are above the limit 15"}


@pytest.mark.parametrize("spec, args", [
    ("clifford:3,2", ("clifford", 3, 2)),
    ("dual_numbers:6", ("dual_numbers", 6)),
    ("group_algebra:2,2,1,2,2,2,2", ("group_algebra", 2, 2, 1, 2, 2, 2, 2)),
])
def test_early_family_refusal_is_the_library_refusal(capsys, spec, args):
    with pytest.raises(TooLarge) as exc:
        all_ns_multipliers(preset(*args).lam)
    code, doc = run(capsys, "solve-sigma", "--algebra", f"preset:{spec}")
    assert (code, doc["error"], doc["message"]) == (3, "TooLarge",
                                                    str(exc.value))


@pytest.mark.parametrize("spec, error", [
    ("clifford:99,1", "TooLarge"),  # the dimension limit speaks first
    ("clifford:-1,7", "InvalidParams"),
    ("group_algebra:2,2,0,2,2,2,2", "InvalidParams"),
])
def test_early_family_refusal_keeps_the_preset_errors(capsys, spec, error):
    code, doc = run(capsys, "solve-sigma", "--algebra", f"preset:{spec}")
    assert doc["error"] == error and "NS multiplier" not in doc["message"]


@pytest.mark.parametrize("name", [
    "quaternions", "clifford:1,1", "clifford:2,1", "dual_numbers:2",
    "grassmann:3", "group_algebra:2,2", "group_algebra:3", "clock_shift:3",
    "crossed_product:2,2"])
def test_canonical_sigma_heads_the_family(name):
    alg = parse_preset(f"preset:{name}")
    family = all_ns_multipliers(alg.lam)
    sigma = canonical_sigma(alg)
    assert (sigma.root_order, sigma.exponents) == \
        (family[0].root_order, family[0].exponents)
    # gdet and gber accept exactly the multipliers that pass this check
    assert all(is_ns_multiplier(alg.lam, s) for s in family)


def _fresh(*argv):
    """(exit code, stdout) of the same command in a new interpreter."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(gradedet.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "gradedet.cli", *argv],
                          capture_output=True, text=True, env=env,
                          check=False, timeout=60)
    return proc.returncode, proc.stdout


def test_repeated_calls_match_fresh_runs(capsys, xfile, tmp_path):
    # one parser serves every call; no option may leak into the next one
    sp = tmp_path / "sigma.json"
    sp.write_text(json.dumps(format_multiplier(all_ns_multipliers(Q.lam)[-1])))
    jobs = [
        ("gdet0", "--algebra", "preset:quaternions", "--matrix", xfile),
        ("gber", "--algebra", "preset:quaternions", "--matrix", xfile,
         "--sigma", str(sp)),
        ("trace", "--algebra", "preset:quaternions", "--matrix", xfile,
         "--format", "pretty"),
        ("gdet0", "--algebra", "preset:quaternions", "--matrix", xfile,
         "--degrees", json.dumps({"col": [[0, 0], [0, 1]]})),
        ("gdet0", "--algebra", "preset:quaternions", "--matrix", xfile),
    ]
    _parser.cache_clear()
    outputs = []
    for argv in jobs[:3]:
        outputs.append((main(list(argv)), capsys.readouterr().out))
    with pytest.raises(SystemExit) as exc:
        main(["gdet0", "--algebra", "preset:quaternions", "--matrix", xfile,
              "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv in jobs[3:]:
        outputs.append((main(list(argv)), capsys.readouterr().out))
    assert outputs == [_fresh(*argv) for argv in jobs]
    assert "\n  " in outputs[2][1] and "\n" not in outputs[4][1].strip()
    _rewrite_input_files(xfile, tmp_path)
    assert _parser.cache_info().misses == 1


def _rewrite_input_files(xfile, tmp_path):
    """An algebra or sigma file is parsed once per distinct text: each
    rewrite of the same path (valid, another valid, invalid, valid) is
    seen by the next job, which prints what a fresh process prints, and a
    failed document is not kept."""
    ap, sp = tmp_path / "alg.json", tmp_path / "sigma.json"
    family = all_ns_multipliers(Q.lam)
    first = (json.dumps(format_algebra(Q)),
             json.dumps(format_multiplier(family[-1])))
    second = (json.dumps(dict(format_algebra(Q), name="renamed")),
              json.dumps(format_multiplier(family[1])))
    bad_algebra = ALGEBRA_TEXT.replace('"c": "-1"', '"c": "1"', 1)
    bad_sigma = '{"format": 1, "moduli": [2, 2]}'
    steps = [first, second, (bad_algebra, second[1]), (second[0], bad_sigma),
             first]
    argv = ["gdet", "--algebra", str(ap), "--matrix", xfile,
            "--sigma", str(sp)]
    outputs, fresh = [], []
    for algebra_text, sigma_text in steps:
        ap.write_text(algebra_text)
        sp.write_text(sigma_text)
        code, out, _ = _outcome(argv)
        outputs.append((code, out))
        fresh.append(_fresh(*argv))
    assert outputs == fresh
    codes = [code for code, _ in outputs]
    assert codes == [0, 0, 3, 2, 0]  # NotAssociative, then ParseError
    assert outputs[0] == outputs[4] and outputs[0] != outputs[1]
    assert bad_algebra not in serialize._algebra_files
    assert bad_sigma not in serialize._multiplier_files
    assert first[0] in serialize._algebra_files


def _outcome(argv):
    """(exit status, stdout, stderr) of main(argv), with argparse's
    SystemExit read as its status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _dispatch_table(xfile):
    job = ["--algebra", "preset:quaternions", "--matrix", xfile]
    commands = ["trace", "gdet0", "gdet", "gber", "twist", "solve-sigma",
                "verify"]
    return [
        ["trace", *job], ["gdet0", *job], ["gdet", *job, "--sigma", "auto"],
        ["gber", *job, "--sigma", "auto", "--format", "pretty"],
        ["twist", "--algebra", "preset:quaternions"],
        ["solve-sigma", "--algebra", "preset:dual_numbers:2"],
        ["verify", "--suite", "algebra", "--seed", "3"],
        ["gdet0", "--algebra=preset:quaternions", f"--matrix={xfile}"],
        ["-h"], ["--help"], *([c, "-h"] for c in commands),
        [],
        ["no-such-command"],
        ["gdet0", *job, "--no-such-flag"],
        ["gdet0", *job, "extra"],
        ["gdet0", *job, "--"],
        ["gdet0", "--matrix", xfile],
        ["gdet0", *job, "--format", "xml"],
        ["--format", "json", "gdet0", *job],
        ["verify", "--seed", "three"],
    ]


def test_direct_dispatch_matches_the_top_level_parser(xfile, monkeypatch):
    # every namespace, help text, usage error and exit code is the one the
    # top-level parser gives
    table = _dispatch_table(xfile)
    direct = [_outcome(argv) for argv in table]
    monkeypatch.setattr(cli, "_parse", lambda argv: _parser().parse_args(
        argv))
    assert direct == [_outcome(argv) for argv in table]
    assert [code for code, _, _ in direct[:8]] == [0] * 8
    assert all(code == ("SystemExit", 0) for code, _, _ in direct[8:17])
    assert all(code == ("SystemExit", 2) for code, _, _ in direct[17:])
    assert "unrecognized arguments: --no-such-flag" in direct[19][2]


def test_direct_dispatch_builds_the_top_level_namespace(xfile):
    for argv in _dispatch_table(xfile)[:8]:
        assert cli._parse(argv) == _parser().parse_args(argv)


def test_a_kept_sigma_file_is_checked_against_each_algebra(tmp_path):
    # the same sigma text meets an algebra of its group, one of another
    # group, and one of its group for which it is not an NS multiplier
    sp, one, other = (tmp_path / name for name in
                      ("sigma.json", "one.json", "other.json"))
    sp.write_text(json.dumps(format_multiplier(trivial_multiplier(
        GradingGroup([2, 2])))))
    one.write_text(json.dumps({
        "format": 1, "row_degrees": [[0, 0]], "col_degrees": [[0, 0]],
        "entries": [[[{"b": "t0_0", "c": "2"}]]]}))
    other.write_text(json.dumps({
        "format": 1, "row_degrees": [[0, 0]], "col_degrees": [[0, 0]],
        "entries": [[[{"b": "1", "c": "2"}]]]}))
    ok, _, _ = _outcome(["gdet", "--algebra", "preset:group_algebra:2,2",
                         "--matrix", str(one), "--sigma", str(sp)])
    assert ok == 0
    for spec, matrix, error in (("preset:grassmann:2", other,
                                 "IncompatibleGroups"),
                                ("preset:quaternions", other,
                                 "InvalidParams")):
        code, out, _ = _outcome(["gdet", "--algebra", spec, "--matrix",
                                 str(matrix), "--sigma", str(sp)])
        assert code == 3 and json.loads(out)["error"] == error
    code, out, _ = _outcome(["twist", "--algebra", "preset:grassmann:2",
                             "--sigma", str(sp)])
    assert code == 3 and json.loads(out)["error"] == "IncompatibleGroups"


def test_import_loads_no_dataclasses():
    # dataclasses would load inspect, ast, dis and tokenize on every start
    env = dict(os.environ,
               PYTHONPATH=str(Path(gradedet.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gradedet; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    assert proc.stdout.strip() == "False"


def test_stats(capsys, xfile, tmp_path):
    sigma = all_ns_multipliers(Q.lam)[-1]
    sp = tmp_path / "sigma.json"
    sp.write_text(json.dumps(format_multiplier(sigma)))
    argv = ["gber", "--algebra", "preset:quaternions", "--matrix", xfile,
            "--sigma", str(sp)]
    code, plain = run(capsys, *argv)
    assert code == 0 and "stats" not in plain
    code, doc = run(capsys, *argv, "--stats")
    assert code == 0
    stats = doc.pop("stats")
    assert doc == plain
    ms = stats.pop("ms")
    assert stats == {"command": "gber", "n": 2, "dim": 4,
                     "sigma": digest_multiplier(sigma)}
    assert set(ms) == {"parse", "compute", "serialize"}
    assert all(isinstance(v, float) and v >= 0 for v in ms.values())
    code, doc = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--stats")
    assert code == 0 and "sigma" not in doc["stats"]
    assert doc["stats"]["command"] == "gdet0"


def test_verify_timings_leave_stdout_alone(capsys):
    argv = ["verify", "--suite", "gmatrix", "--seed", "1"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    names = [r["name"] for r in json.loads(plain.out)["reports"]]
    lines = timed.err.splitlines()
    assert [line.split(": ")[0] for line in lines] == names
    assert all(line.endswith(" s") for line in lines)


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not LIMIT, reason="this interpreter has no int/str digit limit")


@needs_digit_limit
def test_digit_limit_on_input_exits_2(capsys, tmp_path):
    doc = format_matrix(X)
    doc["entries"][0][0][0]["c"] = "7" * (LIMIT + 700)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(p))
    assert code == 2 and out["error"] == "ParseError"
    assert f"limit of {LIMIT} digits" in out["message"]
    # a number past the limit in the JSON syntax itself
    p.write_text(json.dumps(format_matrix(X)).replace(
        '"root_order": 1', '"root_order": ' + "1" * (LIMIT + 1)))
    code, out = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(p))
    assert code == 2 and f"limit of {LIMIT} digits" in out["message"]


@needs_digit_limit
def test_digit_limit_on_output_exits_3(capsys, tmp_path):
    # each diagonal entry fits under the limit, their product does not
    big = Q.from_scalar(10 ** (LIMIT * 7 // 10))
    x = GradedMatrix(Q, [ZERO, ZERO], [ZERO, ZERO],
                     [[big, Q.zero()], [Q.zero(), big]])
    p = tmp_path / "diag.json"
    p.write_text(json.dumps(format_matrix(x)))
    code, out = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                    "--matrix", str(p))
    assert code == 3 and out["error"] == "TooLarge"
    assert f"limit of {LIMIT} digits" in out["message"]


@pytest.mark.parametrize("where, depth", [
    ("--matrix", 200_000), ("--algebra", 100_000), ("--sigma", 100_000),
    ("--degrees", 60_000)])
def test_deeply_nested_json_exits_2(capsys, tmp_path, xfile, where, depth):
    text = "[" * depth + "]" * depth
    p = tmp_path / "nested.json"
    p.write_text(text)
    args = {"--algebra": "preset:quaternions", "--matrix": xfile,
            "--sigma": "auto", where: str(p)}
    if where == "--degrees":
        args[where] = text
    code = main(["gdet"] + [v for pair in args.items() for v in pair])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2 and len(lines) == 1
    named = "--degrees" if where == "--degrees" else p
    assert json.loads(lines[0]) == {
        "format": 1, "error": "ParseError",
        "message": f"{named}: JSON nested too deeply"}


def test_matrix_digest_is_of_the_parsed_matrix(capsys, tmp_path, xfile):
    # README's x.json, with every coefficient written "2/2" and a declared
    # root order of 4: the document is not canonical, its matrix is X
    doc = format_matrix(X)
    for row in doc["entries"]:
        for terms in row:
            for term in terms:
                term["c"] = "2/2"
    doc["root_order"] = 4
    p = tmp_path / "other.json"
    p.write_text(json.dumps(doc))
    _, want = run(capsys, "gdet0", "--algebra", "preset:quaternions",
                  "--matrix", xfile)
    assert run(capsys, "gdet0", "--algebra", "preset:quaternions",
               "--matrix", str(p)) == (0, want)
    # under --degrees the digest is of the matrix with the new degrees
    code, out = run(capsys, "gdet", "--algebra", "preset:quaternions",
                    "--matrix", xfile, "--degrees", "[[0, 0], [0, 0]]")
    moved = GradedMatrix(Q, [ZERO, ZERO], [ZERO, ZERO], X.entries)
    assert code == 0
    assert out["inputs"]["matrix"] == digest_matrix(moved)
    assert out["inputs"]["matrix"] != digest_matrix(X)
