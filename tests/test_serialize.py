"""JSON round trips, digests, and parse error paths."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gradedet import serialize
from gradedet.algebra import graded_tensor, preset, twist
from gradedet.errors import (GradedetError, InvalidCommutationFactor,
                             InvalidParams, ParseError, TooLarge)
from gradedet.gdet import canonical_sigma
from gradedet.gmatrix import GradedMatrix
from gradedet.sampling import make_rng, rand_matrix
from gradedet.scalars import cyclo, format_scalar, parse_scalar, rational
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
                        ([{"b": "i", "c": "1/0"}],
                         "e: zero denominator in '1/0'"),
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


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _with(doc, i, j=None, value=None):
    """A copy of doc with row i, or entry (i, j), replaced by value."""
    doc = json.loads(json.dumps(doc))
    if j is None:
        doc["entries"][i] = value
    else:
        doc["entries"][i][j] = value
    return doc


def test_parse_matrix_errors():
    doc = format_matrix(GradedMatrix(Q, [ZERO], [ZERO], [[Q.one()]]))
    short = dict(doc, entries=[])
    with pytest.raises(ParseError):
        parse_matrix(short, Q)
    bad_label = dict(doc, entries=[[[{"b": "zz", "c": "1"}]]])
    with pytest.raises(ParseError) as exc:
        parse_matrix(bad_label, Q)
    assert "zz" in str(exc.value)
    # every malformed input with its exact error, on a 2x2 document
    two = format_matrix(GradedMatrix(Q, [ZERO, JT], [ZERO, JT],
                                     [[Q.one(), J], [J, Q.one()]]))
    at = "matrix entry (0,1): "
    cases = [
        (_with(two, 1, value={"b": "1"}), ParseError,
         "matrix: row 1 must list 2 entries"),
        (_with(two, 0, value=[[]]), ParseError,
         "matrix: row 0 must list 2 entries"),
        (_with(two, 0, 1, {"b": "1", "c": "1"}), ParseError,
         at + "an element must be a list of terms"),
        (_with(two, 0, 1, ["1", "1"]), ParseError,
         at + "missing field 'b'"),
        (_with(two, 0, 1, [{"c": "1"}]), ParseError,
         at + "missing field 'b'"),
        (_with(two, 0, 1, [{"b": "1"}]), ParseError,
         at + "missing field 'c'"),
        (_with(two, 0, 1, [{"b": 1, "c": "1"}]), ParseError,
         at + "field 'b' has the wrong type"),
        (_with(two, 0, 1, [{"b": "1", "c": 1.5}]), ParseError,
         at + "field 'c' has the wrong type"),
        (_with(two, 0, 1, [{"b": "1", "c": True}]), ParseError,
         at + "field 'c' has the wrong type"),
        (_with(two, 0, 1, [{"b": "j", "c": "1"}, {"b": "zz", "c": "1"}]),
         ParseError, at + "unknown basis label 'zz' for quaternions"),
        (_with(two, 0, 1, [{"b": "1", "c": "1+"}]), ParseError,
         at + "cannot tokenize scalar '1+'"),
        (_with(two, 0, 1, [{"b": "1", "c": "2*w"}]), ParseError,
         at + "bad scalar term '2*w' in '2*w'"),
        (_with(two, 0, 1, [{"b": "1", "c": "1/0"}]), ParseError,
         at + "zero denominator in '1/0'"),
        (dict(two, row_degrees=[[0, 0], [0]]), ParseError,
         "matrix: bad degree vector: element (0,) has wrong length for "
         "moduli (2, 2)"),
        (dict(two, col_degrees=[[0, 0], [0, "1"]]), ParseError,
         "matrix: a degree vector must be a list of integers"),
        (dict(two, root_order=257), TooLarge,
         "matrix: root_order 257 is above the limit 256"),
        (dict(two, row_degrees=[[0, 0]] * 65), TooLarge,
         "matrix: a 65x2 matrix is above the limit of 64 rows and columns"),
    ]
    # two bad entries: the first in row-major order is reported
    both = _with(two, 1, 0, [{"b": "zz", "c": "1"}])
    both["entries"][0][1] = [{"b": "1", "c": "1/0"}]
    cases.append((both, ParseError, at + "zero denominator in '1/0'"))
    if LIMIT:
        cases.append((_with(two, 0, 1, [{"b": "1", "c": "7" * (LIMIT + 1)}]),
                      ParseError,
                      at + "scalar '77777777777777777777'... exceeds the "
                      f"limit of {LIMIT} digits on integer string "
                      "conversion"))
    for bad, kind, text in cases:
        with pytest.raises(kind) as exc:
            parse_matrix(bad, Q)
        assert exc.type is kind and str(exc.value) == text


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


def previous_read(doc, alg, where="matrix"):
    """The matrix, digest and root order of a matrix document as they were
    read before read_matrix walked the document once: parse_element entry
    by entry, the digest of format_matrix(x), and _scalar_orders over the
    entries."""
    serialize._check_format(doc, where)
    order = serialize._root_order(doc, where)
    rows = serialize._field(doc, "row_degrees", where, list)
    cols = serialize._field(doc, "col_degrees", where, list)
    if max(len(rows), len(cols)) > serialize.MAX_MATRIX_N:
        raise TooLarge(f"{where}: a {len(rows)}x{len(cols)} matrix is above "
                       f"the limit of {serialize.MAX_MATRIX_N} rows and "
                       f"columns")
    entries = serialize._field(doc, "entries", where, list)
    group, vector = alg.group, "a degree vector"
    try:
        mu = [group.element(serialize.check_ints(d, where, vector))
              for d in rows]
        nu = [group.element(serialize.check_ints(d, where, vector))
              for d in cols]
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ParseError(f"{where}: bad degree vector: {exc}") from exc
    if len(entries) != len(mu):
        raise ParseError(f"{where}: expected {len(mu)} rows of entries")
    grid = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != len(nu):
            raise ParseError(f"{where}: row {i} must list {len(nu)} entries")
        grid.append([parse_element(item, alg, order,
                                   f"{where} entry ({i},{j})")
                     for j, item in enumerate(row)])
    x = GradedMatrix(alg, mu, nu, grid)
    return (x, digest(format_matrix(x)),
            serialize._scalar_orders(e for r in x.entries for e in r))


def new_read(doc, alg):
    """The matrix, digest and root order the CLI takes from read_matrix."""
    x, order, canonical = serialize.read_matrix(doc, alg)
    return x, digest(doc) if canonical else digest_matrix(x), order


PROPERTY_ALGEBRAS = [Q, preset("clock_shift", 3), preset("grassmann", 3)]


@st.composite
def scalars_at(draw, order):
    """A scalar of root order order or 1: a random polynomial in zeta."""
    fraction = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    value = rational(0)
    for _ in range(draw(st.integers(1, 3))):
        value = value + rational(draw(fraction)) * cyclo(
            draw(st.integers(0, order - 1)), order)
    return value


@st.composite
def matrix_documents(draw):
    alg = draw(st.sampled_from(PROPERTY_ALGEBRAS))
    order = draw(st.sampled_from((1, 3, 4, 6)))
    moduli = alg.group.moduli
    degree = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid = [[alg.element({k: draw(scalars_at(order)) for k in draw(
        st.sets(st.integers(0, alg.dim - 1), max_size=3))})
        for _ in range(n)] for _ in range(m)]
    x = GradedMatrix(alg, [draw(degree) for _ in range(m)],
                     [draw(degree) for _ in range(n)], grid)
    return alg, x


REWRITES = ("root_order", "no_root_order", "extra_key", "residues",
            "shuffle", "split", "zero", "term_key", "unreduced", "plus",
            "spaces", "exponents")


def _rewrite_text(how, text, order, draw):
    """Another text for the scalar that text writes at root order order,
    where the rewrite how applies to it, else text."""
    value = parse_scalar(text, order)
    if how == "unreduced" and value.order == 1:
        f = value.coeffs[0]
        return f"{2 * f.numerator}/{2 * f.denominator}"
    if how == "plus" and value.order == 1 and value.coeffs[0] >= 0:
        return "+" + text
    if how == "spaces":
        return " " + text.replace("/", " / ") + " "
    if how == "exponents" and value.order > 1:
        terms = []
        for k, c in enumerate(value.coeffs):
            if c:  # z^(k + shift) is z^k, as z^order = 1
                shift = draw(st.sampled_from((-1, 1, 2))) * order
                terms.append(f"{'-' if c < 0 else '+'} {abs(c)}*z^{k + shift}")
        return " ".join(terms)
    return text


@settings(deadline=None, max_examples=300)
@given(matrix_documents(), st.sampled_from(REWRITES),
       st.one_of(st.none(), st.sampled_from(REWRITES)), st.data())
def test_read_matrix_matches_the_previous_route(case, first, second, data):
    alg, x = case
    rewrites = {first, second}
    draw = data.draw
    doc = json.loads(json.dumps(format_matrix(x)))
    assert new_read(doc, alg) == previous_read(doc, alg)
    assert serialize.read_matrix(doc, alg)[2] is True
    # the same matrix written in other ways, none of them canonical but
    # for a rewrite that finds nothing to change
    if rewrites & {"root_order", "split"}:
        # a larger declared root order, at which the parts of a split
        # rational coefficient can have a higher root order than their sum
        order = doc["root_order"] * 3
        doc["root_order"] = order
        doc["entries"] = [[format_element(e, order) for e in row]
                          for row in x.entries]
    order = doc["root_order"]
    if "no_root_order" in rewrites and order == 1:
        del doc["root_order"]
    if "extra_key" in rewrites:
        doc["note"] = "an extra key"
    if "residues" in rewrites:  # residues shifted by a modulus
        key = draw(st.sampled_from(("row_degrees", "col_degrees")))
        doc[key] = [[r + draw(st.sampled_from((-1, 1, 2))) * m
                     for r, m in zip(d, alg.group.moduli)] for d in doc[key]]
    for row in doc["entries"]:
        for terms in row:
            for how in rewrites:
                for term in terms:
                    term["c"] = _rewrite_text(how, term["c"], order, draw)
            if terms and "split" in rewrites:
                # c as (c - w) + w, where w may have a higher root order
                # than c
                i = draw(st.integers(0, len(terms) - 1))
                label, text = terms[i]["b"], terms[i]["c"]
                w = draw(scalars_at(order))
                c = parse_scalar(text, order)
                terms[i:i + 1] = [{"b": label, "c": format_scalar(part)}
                                  for part in (c - w, w)]
            if "zero" in rewrites:  # in basis order, at a label not used
                used = {t["b"] for t in terms}
                k = draw(st.integers(0, alg.dim - 1))
                if alg.labels[k] not in used:
                    terms.append({"b": alg.labels[k], "c": "0"})
                    terms.sort(key=lambda t: alg.index_of(t["b"]))
            if terms and "term_key" in rewrites:
                terms[0]["note"] = "an extra key"
            if "shuffle" in rewrites:
                terms[:] = draw(st.permutations(terms))
    assert new_read(doc, alg) == previous_read(doc, alg)
    assert new_read(doc, alg)[0] == x
