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

from .algebra import INHOMOGENEOUS, make_algebra, preset, table_root_order
from .errors import (InvalidCommutationFactor, InvalidParams, ParseError,
                     TooLarge)
from .gmatrix import GradedMatrix
from .grading import (Bicharacter, GradingGroup, Multiplier,
                      is_commutation_factor, trivial_multiplier)
from .scalars import _digit_limit, coerce_to, format_scalar, parse_scalar

FORMAT = 1
# the largest root order a document may declare: a product of two dense
# scalars of order N costs about phi(N)^2 rational operations
MAX_ROOT_ORDER = 256
# parse_algebra keeps the algebras of this many distinct documents
PARSED_ALGEBRAS = 8
# an algebra table key: "<i>,<j>" in canonical (ASCII) decimal
_TABLE_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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


def check_root_orders(x, sigma=None):
    """TooLarge unless the lcm of the root orders of the matrix, the
    algebra's constants and lambda, and sigma is at most MAX_ROOT_ORDER."""
    alg = x.algebra
    order = lcm(_scalar_orders(e for row in x.entries for e in row),
                alg.lam.root_order, sigma.root_order if sigma else 1,
                table_root_order(alg))
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
    if not isinstance(items, list):
        raise ParseError(f"{where}: an element must be a list of terms")
    coeffs = {}
    for term in items:
        label = _field(term, "b", where, str)
        text = _field(term, "c", where, str)
        if label not in algebra._label_index:
            raise ParseError(f"{where}: unknown basis label {label!r} for "
                             f"{algebra.name}")
        k = algebra._label_index[label]
        c = parse_scalar(text, root_order)
        coeffs[k] = coeffs[k] + c if k in coeffs else c
    return algebra.element(coeffs)


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
_parsed_lock = threading.Lock()


def parse_algebra(doc, where="algebra"):
    """The validated algebra of an algebra document.  A document equal to
    one of the last PARSED_ALGEBRAS distinct documents parsed in this
    process returns the same (immutable) algebra, so it is validated once
    and keeps its memo caches.  Only successes are kept."""
    try:
        key = canonical_json(doc)
    except (TypeError, ValueError):  # not JSON data, or a huge int
        return _parse_algebra(doc, where)
    with _parsed_lock:
        hit = _parsed.get(key)
        # equal text is not enough: a tuple dumps like a list, an int key
        # like a str key
        if hit is not None and hit[0] == doc:
            _parsed.move_to_end(key)
            return hit[1]
    algebra = _parse_algebra(doc, where)
    with _parsed_lock:
        _parsed[key] = (json.loads(key), algebra)
        _parsed.move_to_end(key)
        if len(_parsed) > PARSED_ALGEBRAS:
            _parsed.popitem(last=False)
    return algebra


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
    if name == "crossed_product":
        group = GradingGroup(args)
        if sigma is None:
            sigma = trivial_multiplier(group)
        return preset(name, group, sigma)
    return preset(name, *args)


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
    _check_format(doc, where)
    order = _root_order(doc, where)
    rows = _field(doc, "row_degrees", where, list)
    cols = _field(doc, "col_degrees", where, list)
    entries = _field(doc, "entries", where, list)
    group, vector = algebra.group, "a degree vector"
    try:
        mu = [group.element(check_ints(d, where, vector)) for d in rows]
        nu = [group.element(check_ints(d, where, vector)) for d in cols]
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ParseError(f"{where}: bad degree vector: {exc}") from exc
    if len(entries) != len(mu):
        raise ParseError(f"{where}: expected {len(mu)} rows of entries")
    grid = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != len(nu):
            raise ParseError(f"{where}: row {i} must list {len(nu)} entries")
        grid.append([parse_element(item, algebra, order,
                                   f"{where} entry ({i},{j})")
                     for j, item in enumerate(row)])
    return GradedMatrix(algebra, mu, nu, grid)


def digest_matrix(x):
    return digest(format_matrix(x))


def digest_multiplier(m):
    return digest(format_multiplier(m))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except ValueError as exc:  # a number past the digit limit
        raise ParseError(_digit_limit(f"{path}: a number")) from exc
