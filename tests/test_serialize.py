"""JSON round trips, digests, and parse error paths."""

import json

import pytest

from gradedet import serialize
from gradedet.algebra import graded_tensor, preset, twist
from gradedet.errors import (GradedetError, InvalidCommutationFactor,
                             InvalidParams, ParseError)
from gradedet.gdet import canonical_sigma
from gradedet.gmatrix import GradedMatrix
from gradedet.sampling import make_rng, rand_matrix
from gradedet.serialize import (FORMAT, canonical_json, digest,
                                digest_algebra, digest_matrix,
                                digest_multiplier, format_algebra,
                                format_element, format_matrix,
                                format_multiplier, load_json, parse_algebra,
                                parse_element, parse_matrix,
                                parse_multiplier, parse_preset, result_doc)

Q = preset("quaternions")
I, J, K = (Q.basis_element(s) for s in "ijk")
ZERO = Q.group.zero()
JT = J.degree_of()


def _same_algebra(a, b):
    return (a.labels == b.labels
            and a.degrees == b.degrees
            and a.lam == b.lam
            and a.table == b.table)


def test_algebra_round_trip():
    for alg in (Q, preset("dual_numbers", 2), preset("clock_shift", 3),
                twist(Q, canonical_sigma(Q))):
        doc = format_algebra(alg)
        back = parse_algebra(doc)
        assert _same_algebra(alg, back)
        assert digest_algebra(back) == digest_algebra(alg)
        # documents survive a JSON text cycle unchanged
        assert json.loads(canonical_json(doc)) == doc


def test_matrix_round_trip():
    rng = make_rng("serialize")
    x = rand_matrix(rng, Q, [ZERO, JT], mu=[JT, JT])
    doc = format_matrix(x)
    back = parse_matrix(doc, Q)
    assert back == x
    assert digest_matrix(back) == digest_matrix(x)
    cs = preset("clock_shift", 3)
    y = rand_matrix(rng, cs, [cs.group.zero(), cs.group.element([1, 2])])
    ydoc = format_matrix(y)
    assert ydoc["root_order"] in (1, 3)
    assert parse_matrix(ydoc, cs) == y


def test_multiplier_round_trip():
    sigma = canonical_sigma(Q)
    doc = format_multiplier(sigma)
    back = parse_multiplier(doc)
    assert back == sigma
    assert back.group == sigma.group
    assert digest_multiplier(back) == digest_multiplier(sigma)


def test_element_round_trip():
    e = Q.one() * 2 + J - K * 7
    items = format_element(e, 1)
    assert items == [{"b": "1", "c": "2"}, {"b": "j", "c": "1"},
                     {"b": "k", "c": "-7"}]
    assert parse_element(items, Q, 1) == e


def test_parse_element_sums_repeated_labels():
    items = [{"b": "j", "c": "1/2"}, {"b": "1", "c": "3"},
             {"b": "j", "c": "1/2"}, {"b": "k", "c": "2"},
             {"b": "k", "c": "-2"}]
    got = parse_element(items, Q, 1)
    assert got == Q.one() * 3 + J
    assert got.algebra is Q and set(got.coeffs) == {0, Q.index_of("j")}
    # z is the primitive cube root: z + z^2 = -1
    assert parse_element([{"b": "i", "c": "z"}, {"b": "i", "c": "z^2"}],
                         Q, 3) == -I
    for items, text in (([{"b": "zz", "c": "1"}],
                         "e: unknown basis label 'zz' for quaternions"),
                        ([{"c": "1"}], "e: missing field 'b'"),
                        ([{"b": "i", "c": 1}],
                         "e: field 'c' has the wrong type"),
                        ({"b": "i"}, "e: an element must be a list of "
                                     "terms")):
        with pytest.raises(ParseError) as exc:
            parse_element(items, Q, 1, "e")
        assert str(exc.value) == text


def test_result_doc():
    doc = result_doc(Q.one() * 2, {"matrix": "abc"})
    assert doc == {"format": FORMAT, "root_order": 1,
                   "result": [{"b": "1", "c": "2"}], "degree": [0, 0],
                   "inputs": {"matrix": "abc"}}
    mixed = result_doc(Q.one() + J, {})
    assert mixed["degree"] == "inhomogeneous"
    assert result_doc(J, {})["degree"] == [0, 1]


def test_parse_errors_name_the_field():
    with pytest.raises(ParseError) as exc:
        parse_multiplier({"format": FORMAT, "moduli": [2, 2]})
    assert "root_order" in str(exc.value)
    with pytest.raises(ParseError):
        parse_multiplier({"format": 99, "moduli": [2, 2], "root_order": 2,
                          "exponents": [[0, 0], [0, 0]]})
    doc = format_algebra(Q)
    del doc["table"]
    with pytest.raises(ParseError) as exc:
        parse_algebra(doc)
    assert "table" in str(exc.value)
    bad = format_algebra(Q)
    bad["table"] = {"9,9": []}
    with pytest.raises(ParseError):
        parse_algebra(bad)


def test_parse_algebra_rejects_non_skew_lambda():
    doc = format_algebra(Q)
    doc["lambda"] = {"root_order": 2, "exponents": [[0, 1], [0, 0]]}
    with pytest.raises(InvalidCommutationFactor):
        parse_algebra(doc)


def _fresh(doc):
    return json.loads(json.dumps(doc))


def test_parse_algebra_returns_one_object_per_document():
    doc = format_algebra(preset("clifford", 1, 1))
    first = parse_algebra(_fresh(doc))
    assert parse_algebra(_fresh(doc), where="other.json") is first
    assert first._int_tables  # left by validation, kept for the determinant
    # a changed name is another document
    renamed = parse_algebra(dict(_fresh(doc), name="renamed"))
    assert renamed is not first and renamed.name == "renamed"
    assert renamed.table == first.table
    # one corrupted cell: validated on its own, although the valid
    # document is cached, and raising again since failures are not kept
    bad = _fresh(doc)
    bad["table"]["1,2"][0]["c"] = "-1"
    messages = []
    for _ in range(2):
        with pytest.raises(GradedetError) as exc:
            parse_algebra(bad)
        messages.append((exc.type, str(exc.value)))
    assert messages[0] == messages[1]
    assert canonical_json(bad) not in serialize._parsed
    # parse errors name each caller's where
    del bad["table"]
    for where in ("a.json", "b.json"):
        with pytest.raises(ParseError, match=f"^{where}: missing field"):
            parse_algebra(bad, where=where)
    # equal JSON text is not enough: a tuple is not a list
    tupled = _fresh(doc)
    tupled["basis"] = tuple(tupled["basis"])
    with pytest.raises(ParseError, match="'basis' has the wrong type"):
        parse_algebra(tupled)
    assert parse_algebra(_fresh(doc)) is first


def test_parse_algebra_memo_is_a_bounded_lru():
    doc = format_algebra(preset("dual_numbers", 1))
    docs = [dict(_fresh(doc), name=f"lru{i}")
            for i in range(serialize.PARSED_ALGEBRAS + 1)]
    algebras = [parse_algebra(d) for d in docs[:-1]]
    assert parse_algebra(_fresh(docs[0])) is algebras[0]  # now most recent
    parse_algebra(docs[-1])  # evicts docs[1], the least recently used
    assert len(serialize._parsed) <= serialize.PARSED_ALGEBRAS
    assert parse_algebra(_fresh(docs[0])) is algebras[0]
    again = parse_algebra(_fresh(docs[1]))
    assert again is not algebras[1] and _same_algebra(again, algebras[1])


def test_parse_matrix_errors():
    doc = format_matrix(GradedMatrix(Q, [ZERO], [ZERO], [[Q.one()]]))
    short = dict(doc, entries=[])
    with pytest.raises(ParseError):
        parse_matrix(short, Q)
    bad_label = dict(doc, entries=[[[{"b": "zz", "c": "1"}]]])
    with pytest.raises(ParseError) as exc:
        parse_matrix(bad_label, Q)
    assert "zz" in str(exc.value)


def test_parse_preset():
    assert parse_preset("preset:quaternions") is Q
    assert parse_preset("preset:clifford:1,1") is preset("clifford", 1, 1)
    for bad in ("quaternions", "preset:", "preset:clifford:a,b",
                "preset:clifford:1:1"):
        with pytest.raises(ParseError):
            parse_preset(bad)
    with pytest.raises(InvalidParams):
        parse_preset("preset:nonsense")


def test_load_json(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text("{\"a\": 1}")
    assert load_json(str(p)) == {"a": 1}
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
    p.write_text("{broken")
    with pytest.raises(ParseError) as exc:
        load_json(str(p))
    assert "line" in str(exc.value)


def test_digest_is_canonical():
    assert digest({"b": 1, "a": 2}) == digest({"a": 2, "b": 1})
    assert len(digest({})) == 12


def test_digest_algebra_is_the_digest_of_the_document():
    # digest_algebra memoizes on the algebra object; a twist is built
    # before its table is assigned, so a memo filled at construction would
    # carry the untwisted table
    cs = preset("clock_shift", 3)
    algebras = [parse_preset(f"preset:{name}") for name in (
        "quaternions", "clifford:2,1", "dual_numbers:2", "grassmann:3",
        "group_algebra:2,3", "crossed_product:2,2", "clock_shift:3")]
    algebras += [twist(cs, canonical_sigma(cs)),
                 graded_tensor(Q, Q),
                 parse_algebra(json.loads(json.dumps(format_algebra(Q))))]
    for alg in algebras:
        want = digest(format_algebra(alg))
        assert digest_algebra(alg) == want
        assert digest_algebra(alg) == want  # the memoized value
    assert digest_algebra(algebras[-3]) != digest_algebra(cs)
