"""JSON documents for groups, multipliers, algebras, matrices and elements.

Every document carries "format": 1.  Scalars are strings ("p/q" for
rationals, polynomials in z otherwise) interpreted against the document's
"root_order", so z always means the primitive root of unity of that order.
Digests are the first 12 hex characters of the SHA-256 of the canonical
JSON encoding; they let reports and CLI output cross-reference inputs.
"""

import hashlib
import json
import re
import threading
from collections import OrderedDict
from math import lcm

from .algebra import (INHOMOGENEOUS, AlgebraElement, make_algebra, preset,
                      table_root_order)
from .errors import (GradedetError, InvalidCommutationFactor, InvalidParams,
                     ParseError, TooLarge)
from .gdet import NS_FAMILY_MAX_BITS
from .gmatrix import GradedMatrix
from .grading import (Bicharacter, GradingGroup, Multiplier,
                      is_commutation_factor, trivial_multiplier)
from .scalars import _digit_limit, coerce_to, format_scalar, parse_scalar

FORMAT = 1
# the largest root order a document may declare: a product of two dense
# scalars of order N costs about phi(N)^2 rational operations
MAX_ROOT_ORDER = 256
# the largest algebra a preset string or a document may name: validation
# costs dim^3 table products (clifford:4,3, dimension 128, takes seconds)
MAX_ALGEBRA_DIM = 128
# the most rows or columns a matrix document may have: the determinant
# costs O(n^4) ring products (gdet0 of a dense 64x64 quaternion matrix
# takes about 1.5 s on a 2-core host under Python 3.11)
MAX_MATRIX_N = 64
# parse_algebra keeps the algebras of this many distinct documents, and
# load_algebra those of this many distinct file texts
PARSED_ALGEBRAS = 8
# load_multiplier keeps the multipliers of this many distinct file texts
# (a multiplier document is a few hundred bytes)
PARSED_MULTIPLIERS = 64
# an algebra table key: "<i>,<j>" in canonical (ASCII) decimal
_TABLE_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")
# the keys of the document format_matrix writes
_MATRIX_KEYS = {"format", "root_order", "row_degrees", "col_degrees",
                "entries"}


# one encoder for every canonical text, where json.dumps builds one per call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc):
    return _CANONICAL.encode(doc)


def digest(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:12]


def _field(doc, key, where, kinds=None):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    val = doc[key]
    # bool is a subclass of int, and no field takes one
    if kinds is not None and (not isinstance(val, kinds)
                              or isinstance(val, bool)):
        raise ParseError(f"{where}: field {key!r} has the wrong type")
    return val


def check_ints(values, where, what):
    """values as it stands if it is a list of integers, else ParseError:
    int() would read 1.5, "1" or true as 1, so no float, string or bool
    reaches a constructor where a document needs an integer."""
    if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ParseError(f"{where}: {what} must be a list of integers")
    return values


def _check_format(doc, where):
    if _field(doc, "format", where, int) != FORMAT:
        raise ParseError(f"{where}: unsupported format {doc['format']!r}")


def _root_order(doc, where, required=False):
    """The document's "root_order" (default 1 unless required), a positive
    integer; one above MAX_ROOT_ORDER raises TooLarge."""
    order = (_field(doc, "root_order", where) if required
             else doc.get("root_order", 1))
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ParseError(f"{where}: root_order must be a positive integer, "
                         f"got {order!r}")
    if order > MAX_ROOT_ORDER:
        raise TooLarge(f"{where}: root_order {order} is above the limit "
                       f"{MAX_ROOT_ORDER}")
    return order


def check_root_orders(order, algebra, sigma=None):
    """TooLarge unless the lcm of order (a matrix's scalars', as
    read_matrix gives it), the root orders of the algebra's constants and
    lambda, and sigma's is at most MAX_ROOT_ORDER."""
    if algebra._table_order is None:
        algebra._table_order = table_root_order(algebra)
    order = lcm(order, algebra.lam.root_order,
                sigma.root_order if sigma else 1, algebra._table_order)
    if order > MAX_ROOT_ORDER:
        raise TooLarge(f"the inputs' root orders combine to {order}, above "
                       f"the limit {MAX_ROOT_ORDER}")


# ---------------------------------------------------------------------------
# groups and multipliers

def format_group(group):
    return {"moduli": list(group.moduli)}


def parse_group(doc, where="group"):
    moduli = check_ints(_field(doc, "moduli", where), where, "moduli")
    try:
        return GradingGroup(moduli)
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ParseError(f"{where}: bad moduli {moduli!r}: {exc}") from exc


def format_multiplier(m):
    return {"format": FORMAT, "moduli": list(m.group.moduli),
            "root_order": m.root_order,
            "exponents": [list(row) for row in m.exponents]}


def parse_multiplier(doc, where="sigma"):
    _check_format(doc, where)
    order = _root_order(doc, where, required=True)
    group = parse_group(doc, where)
    exps = _field(doc, "exponents", where, list)
    for row in exps:
        check_ints(row, where, "an exponent row")
    try:
        return Multiplier(group, order, exps)
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ParseError(f"{where}: bad exponent matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# elements

def _scalar_orders(elems):
    orders = 1
    for e in elems:
        for c in e.coeffs.values():
            orders = lcm(orders, c.order)
    return orders


def format_element(e, root_order):
    items = []
    for k in sorted(e.coeffs):
        c = coerce_to(e.coeffs[k], root_order)
        items.append({"b": e.algebra.labels[k], "c": format_scalar(c)})
    return items


def parse_element(items, algebra, root_order, where="element"):
    """The element of an element document: one coefficient dict through
    the algebra's label index, repeated labels summed."""
    if not isinstance(items, list):
        raise ParseError(f"{where}: an element must be a list of terms")
    index, coeffs = algebra._label_index, {}
    for term in items:
        label = _field(term, "b", where, str)
        text = _field(term, "c", where, str)
        k = index.get(label)
        if k is None:
            raise ParseError(f"{where}: unknown basis label {label!r} for "
                             f"{algebra.name}")
        c = parse_scalar(text, root_order)
        coeffs[k] = coeffs[k] + c if k in coeffs else c
    return AlgebraElement(algebra, coeffs)


def result_doc(e, inputs):
    """CLI output document for an element result."""
    order = _scalar_orders([e])
    deg = e.degree_of()
    degree = "inhomogeneous" if deg is INHOMOGENEOUS else list(deg.residues)
    return {"format": FORMAT, "root_order": order,
            "result": format_element(e, order), "degree": degree,
            "inputs": inputs}


# ---------------------------------------------------------------------------
# algebras

def format_algebra(a):
    order = table_root_order(a)
    table = {}
    for i, row in enumerate(a.table):
        for j, cell in enumerate(row):
            if cell:
                table[f"{i},{j}"] = [
                    {"k": k, "c": format_scalar(coerce_to(c, order))}
                    for k, c in cell]
    return {"format": FORMAT, "name": a.name,
            "group": format_group(a.group),
            "lambda": {"root_order": a.lam.root_order,
                       "exponents": [list(r) for r in a.lam.exponents]},
            "root_order": order,
            "basis": [{"label": lab, "degree": list(d.residues)}
                      for lab, d in zip(a.labels, a.degrees)],
            "table": table}


_parsed = OrderedDict()  # canonical text -> (json.loads(text), algebra)
_parsed_lock = threading.Lock()  # guards every memo of this module


def recall(memo, key):
    """memo[key] (None if absent), made the most recently used entry of
    the ordered dict memo, under the module's lock."""
    with _parsed_lock:
        value = memo.get(key)
        if value is not None:
            memo.move_to_end(key)
        return value


def remember(memo, key, value, bound):
    """value, kept under key as the most recently used entry of memo, which
    drops its least recently used entries past bound."""
    with _parsed_lock:
        memo[key] = value
        memo.move_to_end(key)
        if len(memo) > bound:
            memo.popitem(last=False)
    return value


def parse_algebra(doc, where="algebra"):
    """The validated algebra of an algebra document.  A document equal to
    one of the last PARSED_ALGEBRAS distinct documents parsed in this
    process returns the same (immutable) algebra, so it is validated once
    and keeps its memo caches.  Only successes are kept."""
    try:
        key = canonical_json(doc)
    except (TypeError, ValueError):  # not JSON data, or a huge int
        return _parse_algebra(doc, where)
    hit = recall(_parsed, key)
    # equal text is not enough: a tuple dumps like a list, an int key like
    # a str key
    if hit is not None and hit[0] == doc:
        return hit[1]
    algebra = _parse_algebra(doc, where)
    remember(_parsed, key, (json.loads(key), algebra), PARSED_ALGEBRAS)
    return algebra


_algebra_files = OrderedDict()  # file text -> its algebra
_multiplier_files = OrderedDict()  # file text -> its multiplier


def load_algebra(path):
    """parse_algebra(load_json(path), where=path), with the same errors,
    once per distinct file text among the last PARSED_ALGEBRAS: a text met
    before skips the JSON decode, the canonical key and validation.  Only
    successes are kept."""
    return _load_parsed(path, parse_algebra, _algebra_files, PARSED_ALGEBRAS)


def load_multiplier(path):
    """parse_multiplier(load_json(path), where=path), once per distinct
    file text among the last PARSED_MULTIPLIERS, as load_algebra."""
    return _load_parsed(path, parse_multiplier, _multiplier_files,
                        PARSED_MULTIPLIERS)


def _load_parsed(path, parse, memo, bound):
    text = _read_text(path)
    value = recall(memo, text)
    if value is None:
        value = remember(memo, text, parse(_decode_json(text, path),
                                           where=path), bound)
    return value


def _parse_algebra(doc, where):
    _check_format(doc, where)
    order = _root_order(doc, where)
    name = _field(doc, "name", where, str) if "name" in doc else "algebra"
    group = parse_group(_field(doc, "group", where, dict), where)
    lamdoc = _field(doc, "lambda", where, dict)
    lam_order = _root_order(lamdoc, where, required=True)
    exps = _field(lamdoc, "exponents", where, list)
    for row in exps:
        check_ints(row, where, "an exponent row")
    try:
        lam = Bicharacter(group, lam_order, exps)
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ParseError(f"{where}: bad commutation factor: {exc}") from exc
    if not is_commutation_factor(lam):
        raise InvalidCommutationFactor(
            f"{where}: the declared map is not skew-symmetric")
    basis = _field(doc, "basis", where, list)
    _check_dim(len(basis), f"{where}: the basis")
    labels, degrees = [], []
    for item in basis:
        labels.append(_field(item, "label", where, str))
        degrees.append(check_ints(_field(item, "degree", where), where,
                                  "a basis degree"))
    dim = len(labels)
    structure = {}
    for key, cell in _field(doc, "table", where, dict).items():
        match = _TABLE_KEY.fullmatch(key)
        try:
            if match is None:
                raise ValueError(key)
            i, j = (int(v) for v in match.groups())
        except ValueError as exc:  # not "<i>,<j>", or past the digit limit
            raise ParseError(f"{where}: bad table key {key!r}") from exc
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"{where}: table key {key!r} out of range")
        if not isinstance(cell, list):
            raise ParseError(f"{where}: table cell {key!r} must be a list")
        row = []
        for term in cell:
            k = _field(term, "k", where, int)
            if not 0 <= k < dim:
                raise ParseError(f"{where}: table index {k} out of range")
            row.append((k, parse_scalar(_field(term, "c", where, str),
                                        order)))
        structure[(i, j)] = row
    try:
        grp_degrees = [group.element(d) for d in degrees]
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ParseError(f"{where}: bad basis degree: {exc}") from exc
    return make_algebra(grp_degrees, structure, lam, labels, validate=True,
                        name=name)


def parse_preset(text, sigma=None):
    """Algebra from a "preset:NAME[:a,b,...]" string; crossed_product uses
    the supplied multiplier (trivial when absent)."""
    name, args = _preset_args(text)
    if name == "crossed_product":
        group = GradingGroup(args)
        if sigma is None:
            sigma = trivial_multiplier(group)
        return preset(name, group, sigma)
    return preset(name, *args)


def check_preset_family(text):
    """The errors of parse_preset(text) that come before anything is
    built, then all_ns_multipliers' TooLarge when the preset's NS
    multiplier family has more than NS_FAMILY_MAX_BITS free exponents,
    computed from the parameters alone (as _preset_dim computes the
    dimension).  crossed_product counts with its trivial multiplier, as
    parse_preset builds it."""
    name, args = _preset_args(text)
    # over (Z_2)^k with lambda of root order <= 2 the family toggles the
    # k(k+1)/2 upper-triangle exponents (gdet._ns_family)
    k = 0
    if name == "clifford" and len(args) == 2 and min(args) >= 0:
        k = sum(args) + 1
    elif name == "dual_numbers" and len(args) == 1:
        k = max(args[0], 0)
    elif name in ("group_algebra", "crossed_product") \
            and all(m in (1, 2) for m in args):
        k = args.count(2)  # lambda is trivial, of root order 1
    bits = k * (k + 1) // 2
    if bits > NS_FAMILY_MAX_BITS:
        raise TooLarge(f"the NS multiplier family has 2^{bits} members; "
                       f"{bits} free exponents are above the limit "
                       f"{NS_FAMILY_MAX_BITS}")


def _preset_args(text):
    """(name, integer parameters) of a preset string, with its ParseError
    or the dimension's TooLarge."""
    parts = text.split(":")
    if len(parts) < 2 or parts[0] != "preset" or len(parts) > 3 \
            or not parts[1]:
        raise ParseError(f"bad preset string {text!r}")
    name = parts[1]
    args = []
    if len(parts) == 3 and parts[2]:
        try:
            args = [int(v) for v in parts[2].split(",")]
        except ValueError as exc:
            raise ParseError(
                f"bad preset arguments in {text!r}: {exc}") from exc
    _check_dim(_preset_dim(name, args), text)
    return name, args


def _preset_dim(name, args):
    """The dimension of the preset name with parameters args, computed
    without building anything: 2^(p+q) and 2^n are compared by their
    exponents, n^2 only for small n, and a product of moduli stops once
    it passes MAX_ALGEBRA_DIM.  Parameters the preset would refuse give
    0, so that the preset's own error names them."""
    arity = {"clifford": 2, "dual_numbers": 1, "grassmann": 1,
             "clock_shift": 1}.get(name, len(args))
    if len(args) != arity or any(v < 0 for v in args):
        return 0
    if name == "clock_shift":
        (n,) = args
        return n * n if n <= MAX_ALGEBRA_DIM else n
    if name in ("clifford", "dual_numbers", "grassmann"):
        # 2^bits is above the limit exactly when bits reaches its length
        bits = sum(args)
        return (MAX_ALGEBRA_DIM + 1 if bits >= MAX_ALGEBRA_DIM.bit_length()
                else 2 ** bits)
    if name in ("group_algebra", "crossed_product"):
        dim = 1
        for m in args:
            dim *= m
            if dim > MAX_ALGEBRA_DIM:
                break
        return dim
    return 0  # the quaternions, or a name the preset refuses


def _check_dim(dim, what):
    if dim > MAX_ALGEBRA_DIM:
        raise TooLarge(f"{what}: the algebra would have dimension above the "
                       f"limit {MAX_ALGEBRA_DIM}")


def digest_algebra(a):
    """The digest of format_algebra(a), computed once per algebra object."""
    if a._digest is None:
        a._digest = digest(format_algebra(a))
    return a._digest


# ---------------------------------------------------------------------------
# matrices

def format_matrix(x):
    order = _scalar_orders([e for row in x.entries for e in row])
    return {"format": FORMAT, "root_order": order,
            "row_degrees": [list(d.residues) for d in x.row_degrees],
            "col_degrees": [list(d.residues) for d in x.col_degrees],
            "entries": [[format_element(e, order) for e in row]
                        for row in x.entries]}


def parse_matrix(doc, algebra, where="matrix"):
    """The matrix of a matrix document; more than MAX_MATRIX_N rows or
    columns raise TooLarge before any degree or entry is read."""
    return read_matrix(doc, algebra, where)[0]


def read_matrix(doc, algebra, where="matrix"):
    """(x, order, canonical) for the matrix x of a matrix document, read in
    one walk that parses each distinct coefficient text and degree vector
    once.  order is the lcm of the root orders of x's coefficients.
    canonical says whether doc is the document format_matrix(x) writes, so
    that digest(doc) == digest_matrix(x)."""
    return _read_matrix(doc, algebra, where)[:3]


def load_matrix(path, algebra):
    """(doc, x, order, canonical): doc = load_json(path) and the rest
    read_matrix(doc, algebra, where=path), with the same values and
    errors, from one plain json.loads when it can.  Each key of a JSON
    object comes with exactly one ':' outside strings, so when the keys
    read_matrix's walk counts (the document's and every term's) equal the
    ':' of the text, every object was walked and none gave a key twice.
    Otherwise, or when the plain decode or the walk raises, the text goes
    the checked way: _decode_json, then read_matrix."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
        *read, keys = _read_matrix(doc, algebra, path)
        if keys == text.count(":"):
            return doc, *read
    # a JSON error, deep nesting or a refusal: the checked way raises the
    # error that comes first there, a duplicate key included
    except (ValueError, RecursionError, GradedetError):
        pass
    doc = _decode_json(text, path)
    return doc, *read_matrix(doc, algebra, path)


def _read_matrix(doc, algebra, where):
    """read_matrix's (x, order, canonical), and the number of keys of doc
    and of its terms."""
    _check_format(doc, where)
    declared = _root_order(doc, where)
    rows = _field(doc, "row_degrees", where, list)
    cols = _field(doc, "col_degrees", where, list)
    if max(len(rows), len(cols)) > MAX_MATRIX_N:
        raise TooLarge(f"{where}: a {len(rows)}x{len(cols)} matrix is above "
                       f"the limit of {MAX_MATRIX_N} rows and columns")
    entries = _field(doc, "entries", where, list)
    group, vectors = algebra.group, {}  # residues as written -> element
    try:
        mu = [_degree(d, group, vectors, where) for d in rows]
        nu = [_degree(d, group, vectors, where) for d in cols]
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ParseError(f"{where}: bad degree vector: {exc}") from exc
    if len(entries) != len(mu):
        raise ParseError(f"{where}: expected {len(mu)} rows of entries")
    canonical = doc.keys() == _MATRIX_KEYS and all(
        key == g.residues for key, g in vectors.items())
    # text -> (its scalar, whether format_scalar writes that scalar as text)
    index, scalars, summed, grid = algebra._label_index, {}, False, []
    keys = len(doc)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != len(nu):
            raise ParseError(f"{where}: row {i} must list {len(nu)} entries")
        out = []
        for j, items in enumerate(row):
            # parse_element's checks and errors, in its order
            if not isinstance(items, list):
                raise ParseError(f"{where} entry ({i},{j}): an element must "
                                 f"be a list of terms")
            coeffs, last = {}, -1
            for term in items:
                if not (type(term) is dict
                        and type(label := term.get("b")) is str
                        and type(text := term.get("c")) is str):
                    at = f"{where} entry ({i},{j})"
                    label = _field(term, "b", at, str)
                    text = _field(term, "c", at, str)
                k = index.get(label)
                if k is None:
                    raise ParseError(f"{where} entry ({i},{j}): unknown basis "
                                     f"label {label!r} for {algebra.name}")
                hit = scalars.get(text)
                if hit is None:
                    c = parse_scalar(text, declared)
                    hit = scalars[text] = (c, _writes(c, text))
                c = hit[0]
                if k in coeffs:
                    coeffs[k], summed = coeffs[k] + c, True
                else:
                    coeffs[k] = c
                keys += len(term)
                # canonical terms: ascending basis order, none zero or
                # repeated, only "b" and "c", the text format_scalar writes
                canonical = canonical and k > last and hit[1] \
                    and len(term) == 2
                last = k
            out.append(AlgebraElement(algebra, coeffs))
        grid.append(out)
    if summed:  # a sum of two coefficients can fall to a lower root order
        order = _scalar_orders(e for row in grid for e in row)
    else:  # a dropped coefficient is zero, of root order 1
        order = lcm(*(c.order for c, _ in scalars.values()))
    return (GradedMatrix(algebra, mu, nu, grid), order,
            canonical and order == declared, keys)


def _degree(d, group, seen, where):
    """The group element of the degree vector d, built once per distinct
    vector in seen."""
    key = tuple(check_ints(d, where, "a degree vector"))
    g = seen.get(key)
    if g is None:
        g = seen[key] = group.element(key)
    return g


def _writes(c, text):
    """Whether format_scalar writes c as text, and c is not zero (which it
    writes as "0")."""
    try:
        return text != "0" and format_scalar(c) == text
    except TooLarge:  # digest_matrix raises it in its turn
        return False


def digest_matrix(x):
    return digest(format_matrix(x))


def digest_multiplier(m):
    """The digest of format_multiplier(m), computed once per multiplier
    object (a Multiplier has a __dict__ besides Bicharacter's slots)."""
    try:
        return m._digest
    except AttributeError:
        m._digest = digest(format_multiplier(m))
        return m._digest


def unique_keys(pairs):
    """json's object_pairs_hook: the object as a dict, or ParseError naming
    a key that it gives twice (plain json keeps the last value)."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return out


def load_json(path):
    return _decode_json(_read_text(path), path)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _decode_json(text, path):
    """json.loads(text) with duplicate keys refused; every error a
    ParseError naming path."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # a number past the digit limit
        raise ParseError(_digit_limit(f"{path}: a number")) from exc
