"""End-to-end command-line checks on golden documents and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gradedet

from gradedet.algebra import make_algebra, preset, twist
from gradedet.cli import _parser, main
from gradedet.errors import TooLarge, VerificationFailure
from gradedet.gdet import all_ns_multipliers, canonical_sigma
from gradedet.gmatrix import GradedMatrix, identity
from gradedet.grading import Bicharacter, GradingGroup
from gradedet.serialize import (MAX_ROOT_ORDER, digest_algebra,
                                digest_matrix, digest_multiplier,
                                format_algebra, format_matrix,
                                format_multiplier, parse_algebra,
                                parse_preset)

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
    assert code == 2


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


@pytest.mark.parametrize("name", [
    "quaternions", "clifford:1,1", "clifford:2,1", "dual_numbers:2",
    "grassmann:3", "group_algebra:2,2", "group_algebra:3", "clock_shift:3",
    "crossed_product:2,2"])
def test_canonical_sigma_heads_the_family(name):
    alg = parse_preset(f"preset:{name}")
    first = all_ns_multipliers(alg.lam)[0]
    sigma = canonical_sigma(alg)
    assert (sigma.root_order, sigma.exponents) == \
        (first.root_order, first.exponents)


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
    assert _parser.cache_info().misses == 1
    assert outputs == [_fresh(*argv) for argv in jobs]
    assert "\n  " in outputs[2][1] and "\n" not in outputs[4][1].strip()


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
