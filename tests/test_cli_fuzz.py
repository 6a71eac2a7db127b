"""The CLI contract on hostile input, fuzzed: malformed algebra, sigma and
matrix documents and shuffled or partial argv.  main(argv) returns 0, 2, 3
or 4 and prints exactly one JSON document, or argparse exits with status
2; no other exception escapes.  The plain decode of a matrix document
(serialize.load_matrix) gives what the duplicate-key-checked decode gives,
refusals included."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from gradedet import serialize
from gradedet.algebra import preset
from gradedet.cli import main
from gradedet.errors import GradedetError
from gradedet.gdet import canonical_sigma
from gradedet.gmatrix import GradedMatrix
from gradedet.serialize import digest, digest_matrix, format_algebra, \
    format_matrix, format_multiplier

Q = preset("quaternions")
J = Q.basis_element("j")
ZERO, JT = Q.group.zero(), J.degree_of()
DOCS = {
    "algebra": format_algebra(preset("dual_numbers", 1)),
    "sigma": format_multiplier(canonical_sigma(Q)),
    "matrix": format_matrix(GradedMatrix(Q, [ZERO, JT], [ZERO, JT],
                                         [[Q.one(), J], [J, Q.one()]])),
}
HOSTILE = [None, True, 1.5, -1, 0, 10 ** 30, -(10 ** 30), "", "x", "1/0",
           "z^999", [], {}, [[]], {"format": 1}, [[[[[[[[1]]]]]]]]]


def _paths(doc, prefix=()):
    """Every key path into doc, containers before their members."""
    out = [prefix]
    if isinstance(doc, dict):
        for key, value in doc.items():
            out += _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out += _paths(value, prefix + (i,))
    return out


def _mutate(doc, path, action, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value if action == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    elif action == "replace":
        parent[path[-1]] = value
    else:  # "wrap": one more level of nesting around the value
        parent[path[-1]] = [parent[path[-1]]]
    return doc


@st.composite
def documents(draw, name):
    """The text of a valid document of kind name, mutated up to twice, or
    with a key given twice, or nested past any recursion limit."""
    doc = DOCS[name]
    for _ in range(draw(st.sampled_from((0, 1, 0, 2)))):
        paths = _paths(doc)
        path = draw(st.sampled_from(paths))
        action = draw(st.sampled_from(("drop", "replace", "wrap")))
        doc = _mutate(doc, path, action, draw(st.sampled_from(HOSTILE)))
    text = json.dumps(doc)
    tail = draw(st.sampled_from(("",) * 5 + ("duplicate", "deep",
                                              "truncate")))
    if tail == "duplicate" and text.startswith("{"):
        text = text.replace("{", '{"format": 1, ', 1)
    elif tail == "deep":
        text = "[" * 5000 + text + "]" * 5000
    elif tail == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    return text


# Hypothesis draws the ends of a range of integers more often than the
# middle, so weights are written out
SEVEN_IN_EIGHT = st.sampled_from([True] * 7 + [False])
ONE_IN_THREE = st.sampled_from([False, True, False])
MATRIX = ["--algebra", "--matrix", "--degrees", "--format", "--stats"]
FLAGS = {"trace": MATRIX, "gdet0": MATRIX, "gdet": MATRIX + ["--sigma"],
         "gber": MATRIX + ["--sigma"],
         "twist": ["--algebra", "--sigma", "--format"],
         "solve-sigma": ["--algebra", "--format"]}
DEGREES = ['[[0, 0], [0, 1]]', '{"row": [[0, 0], [1, 1]]}',
           '{"rows": []}', '[[0]]', '[', '"x"', '[[1e400, 0], [0, 0]]',
           '{"col": [[0, 0], [0, 0]], "col": []}']


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_run_prints_one_json_document_or_a_usage_error(data):
    with tempfile.TemporaryDirectory() as work:
        files = {}
        for name in DOCS:
            path = Path(work) / f"{name}.json"
            path.write_text(data.draw(documents(name), label=name))
            files[name] = str(path)
        algebra = data.draw(st.sampled_from(
            [files["algebra"], "preset:quaternions", "preset:dual_numbers:2",
             "preset:clifford:4,3", "preset:clifford:9,9", "preset:nope",
             "preset:grassmann:x", str(Path(work) / "missing.json")]))
        command = data.draw(st.sampled_from(list(FLAGS) * 4
                                            + [None, "nope"]))
        given = {"--algebra": algebra, "--matrix": files["matrix"],
                 "--sigma": data.draw(st.sampled_from(
                     [files["sigma"], "auto", files["matrix"]])),
                 "--degrees": data.draw(st.sampled_from(DEGREES)),
                 "--format": data.draw(st.sampled_from(
                     ["json", "pretty", "json", "pretty", "xml"])),
                 "--stats": None}
        # mostly whole jobs, so that most runs reach the documents: a flag
        # of the command is left out 1 time in 8 (an optional one given 1
        # time in 3), and a stray argument is added 1 time in 8
        chunks = []
        for flag in FLAGS.get(command, ["--algebra"]):
            optional = flag in ("--degrees", "--format", "--stats")
            if data.draw(ONE_IN_THREE if optional else SEVEN_IN_EIGHT):
                chunks.append([flag] if given[flag] is None
                              else [flag, given[flag]])
        for stray in (["--bogus"], ["--"], ["stray"], ["--sigma", "auto"]):
            if not data.draw(SEVEN_IN_EIGHT):
                chunks.append(stray)
        chunks = data.draw(st.permutations(chunks))
        argv = [command] if command else []
        argv += [arg for chunk in chunks for arg in chunk]
        if not data.draw(SEVEN_IN_EIGHT):
            argv = data.draw(st.permutations(argv))
        # clifford:4,3 builds for seconds unless solve-sigma refuses it
        if algebra == "preset:clifford:4,3" and argv[:1] != ["solve-sigma"]:
            argv = [a for a in argv if a != algebra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, (argv, err.getvalue())
                assert out.getvalue() == ""
                return
    text = out.getvalue()
    assert code in (0, 2, 3, 4), (argv, text)
    assert text.endswith("\n") and json.loads(text)["format"] == 1
    if "pretty" not in argv:
        assert text.count("\n") == 1
    assert ("error" in json.loads(text)) == (code != 0)


# ---------------------------------------------------------------------------
# the matrix decode path: serialize.load_matrix decodes a document with one
# plain json.loads unless its key count differs from its ':' count, and must
# then give what _decode_json followed by read_matrix gives

DN = preset("dual_numbers", 2)
COEFFS = ["1", "-1", "2", "1/2", "-3/7", "0", "z", "1 + z"]


@st.composite
def matrix_docs(draw):
    """A matrix document over DN as format_matrix writes it, or with its
    terms out of order, repeated or with a coefficient text that
    format_scalar would write otherwise (a non-canonical document)."""
    n = draw(st.integers(0, 3))
    degrees = [[draw(st.integers(0, 1)), draw(st.integers(0, 1))]
               for _ in range(n)]
    entries = [[[{"b": draw(st.sampled_from(DN.labels)),
                  "c": draw(st.sampled_from(COEFFS))}
                 for _ in range(draw(st.integers(0, 2)))]
                for _ in range(n)] for _ in range(n)]
    return {"format": 1, "root_order": draw(st.sampled_from((1, 2, 4))),
            "row_degrees": degrees, "col_degrees": degrees,
            "entries": entries}


def _terms(text):
    """The offsets of the term objects in a matrix text."""
    return [i for i in range(len(text)) if text.startswith('{"b": ', i)]


@st.composite
def hostile_texts(draw):
    """The text of a matrix document with up to two of: a key given twice
    at top level, in a term or in an extra nested object; a ':' inside a
    label, a coefficient text or an extra string; the text cut after a
    duplicate; 65 rows.  Each is a refusal or a document the plain decode
    must not take on its own."""
    doc = draw(matrix_docs())
    if draw(st.booleans()):
        doc["row_degrees"] = doc["col_degrees"] = [[0, 0]] * 65
        doc["entries"] = [[[]] * 65] * 65
    text = json.dumps(doc)
    for _ in range(draw(st.integers(1, 2))):
        terms = _terms(text)
        kind = draw(st.sampled_from(
            ("top", "term", "nested", "colon_label", "colon_text",
             "colon_extra", "cut")))
        if kind == "top":
            key = draw(st.sampled_from(sorted(doc)))
            text = text.replace("{", f'{{"{key}": {json.dumps(doc[key])}, ',
                                1)
        elif kind == "term" and terms:
            at = draw(st.sampled_from(terms))
            key = draw(st.sampled_from(('"b": "1"', '"c": "2"')))
            text = f"{text[:at + 1]}{key}, {text[at + 1:]}"
        elif kind == "nested":
            extra = '{"a": 1, "a": 2}' if draw(st.booleans()) else '{"a": 1}'
            at = draw(st.sampled_from([0] + terms))
            text = f'{text[:at + 1]}"x": {extra}, {text[at + 1:]}'
        elif kind == "colon_label" and terms:
            at = draw(st.sampled_from(terms)) + len('{"b": "')
            text = f"{text[:at]}e:{text[at:]}"
        elif kind == "colon_text":
            text = text.replace('"c": "', '"c": "1:', 1)
        elif kind == "colon_extra":
            text = text.replace("{", '{"note": "a:b", ', 1)
        elif kind == "cut":
            text = text[:draw(st.integers(len(text) // 2, len(text)))]
    return text


def _outcome(read):
    """("ok", doc, (x, order, canonical), the CLI's matrix digest) for
    read() = (doc, x, order, canonical), or (error name, message)."""
    try:
        doc, x, order, canonical = read()
    except GradedetError as exc:
        return type(exc).__name__, str(exc)
    return ("ok", doc, (x, order, canonical),
            digest(doc) if canonical else digest_matrix(x))


def _checked_read(path):
    doc = serialize._decode_json(Path(path).read_text(), path)
    return (doc, *serialize.read_matrix(doc, DN, path))


def _compare(text):
    """Both outcomes for text, and the unique_keys calls of load_matrix."""
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "matrix.json")
        Path(path).write_text(text)
        want = _outcome(lambda: _checked_read(path))
        with mock.patch.object(serialize, "unique_keys",
                               wraps=serialize.unique_keys) as hook:
            got = _outcome(lambda: serialize.load_matrix(path, DN))
        return want, got, hook.call_count


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(hostile_texts())
def test_load_matrix_refuses_as_the_checked_decode(text):
    want, got, _ = _compare(text)
    assert got == want


@settings(deadline=None, max_examples=200)
@given(matrix_docs(), st.booleans())
def test_load_matrix_reads_a_duplicate_free_document_plainly(doc, pretty):
    want, got, hooked = _compare(json.dumps(doc, indent=2 if pretty else None))
    assert got == want
    assert hooked == 0
