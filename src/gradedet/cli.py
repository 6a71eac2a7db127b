"""Command-line front end.

One job per invocation: parse the algebra (a JSON file or a preset
string), the matrix and the multiplier, dispatch the computation, and
print a JSON document.  Every result echoes the digests of its inputs so
golden files can cross-reference them.  Errors print a JSON document with
the exception name and exit with its code: 2 parse, 3 precondition, 4
mathematical, 5 verification failure.  main(argv) may be called any
number of times in one process: the argument parser is built once,
argv goes straight to its command's own parser, an algebra or
multiplier file is parsed once per distinct text (serialize.load_algebra
and load_multiplier), a matrix file is decoded by one plain json.loads
when its key count proves it free of duplicate keys
(serialize.load_matrix), and the twist and solve-sigma documents are
formatted once per twisted algebra and per NS family.
"""

import argparse
import json
import sys
from collections import OrderedDict
from functools import cache
from time import perf_counter

from .algebra import twist
from .berezinian import gber
from .errors import (GradedetError, IncompatibleGroups, InvalidParams,
                     ParseError)
from .gdet import all_ns_multipliers, canonical_sigma, gdet0, gdet_sigma
from .gmatrix import GradedMatrix, graded_trace
from .grading import is_ns_multiplier
from .oracles import SUITES, iter_property_sweeps
from .serialize import (FORMAT, canonical_json, check_ints,
                        check_preset_family, check_root_orders, digest,
                        digest_algebra, digest_matrix, digest_multiplier,
                        format_algebra, format_multiplier, load_algebra,
                        load_matrix, load_multiplier, parse_preset, recall,
                        remember, result_doc, unique_keys)


@cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="gradedet",
        description="Exact linear algebra over graded-commutative algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # command name -> its parser, for _parse

    def add(name, help_text, matrix=False, sigma=False, algebra=True):
        p = parser.commands[name] = sub.add_parser(name, help=help_text)
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="algebra JSON file or preset:NAME[:a,b,...]")
        if matrix:
            p.add_argument("--matrix", required=True,
                           help="matrix JSON file")
            p.add_argument("--degrees", default=None,
                           help="inline JSON degree override: a list for "
                                "both vectors or {\"row\": ..., \"col\": ...}")
            p.add_argument("--stats", action="store_true",
                           help="append sizes and per-phase milliseconds")
        if sigma:
            p.add_argument("--sigma", default="auto",
                           help="multiplier JSON file, or auto for the "
                                "internal one")
        p.add_argument("--format", default="json",
                       choices=("json", "pretty"), help="output layout")
        return p

    add("trace", "graded trace of a matrix", matrix=True)
    add("gdet0", "graded determinant of a degree-0 matrix", matrix=True)
    add("gdet", "graded determinant for a chosen multiplier",
        matrix=True, sigma=True)
    add("gber", "graded Berezinian for a chosen multiplier",
        matrix=True, sigma=True)
    add("twist", "the twisted algebra as a JSON document", sigma=True)
    add("solve-sigma", "multipliers whose twist is the super sign rule")
    verify = add("verify", "run the seeded verification sweeps",
                 algebra=False)
    verify.add_argument("--suite", default=None, choices=sorted(SUITES),
                        help="run one suite instead of all")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--timings", action="store_true",
                        help="print each sweep's seconds on stderr")
    return parser


def _parse(argv):
    """_parser().parse_args(argv), on the command's own parser when argv
    starts with a command and that parser leaves nothing over: the top
    level would hand it the same strings.  Everything else (no command,
    an unknown one, arguments left over) goes through the top level, for
    its usage errors."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _load_algebra(text):
    if text.startswith("preset:"):
        return parse_preset(text)
    return load_algebra(text)


def _load_sigma(text, algebra):
    if text == "auto":
        return canonical_sigma(algebra)
    m = load_multiplier(text)
    if m.group != algebra.group:
        raise IncompatibleGroups(
            f"multiplier group {m.group!r} does not match the algebra "
            f"group {algebra.group!r}")
    return m


def _apply_degrees(x, text):
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except ParseError as exc:
        raise ParseError(f"--degrees: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("--degrees: JSON nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or a number past the limit
        raise ParseError(f"--degrees: invalid JSON: {exc}") from exc
    if isinstance(doc, dict):
        unknown = sorted(set(doc) - {"row", "col"})
        if unknown:
            raise ParseError(f"--degrees: unknown key {unknown[0]!r}; "
                             "expected 'row' and/or 'col'")
        rows = doc.get("row", [list(d.residues) for d in x.row_degrees])
        cols = doc.get("col", [list(d.residues) for d in x.col_degrees])
    elif isinstance(doc, list):
        rows = cols = doc
    else:
        raise ParseError("--degrees: expected a list or an object")
    group, where = x.algebra.group, "--degrees"
    try:
        mu = [group.element(check_ints(d, where, "a degree vector"))
              for d in rows]
        nu = [group.element(check_ints(d, where, "a degree vector"))
              for d in cols]
    except ParseError:
        raise
    except GradedetError as exc:
        raise ParseError(f"--degrees: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"--degrees: bad degree vector: {exc}") from exc
    if len(mu) != x.nrows or len(nu) != x.ncols:
        raise ParseError(
            f"--degrees: the matrix is {x.nrows}x{x.ncols}, got "
            f"{len(mu)} row and {len(nu)} column degrees")
    return GradedMatrix(x.algebra, mu, nu, x.entries)


def _compute(command, x, sigma):
    if command == "trace":
        return graded_trace(x)
    if command == "gdet0":
        return gdet0(x)
    if command == "gdet":
        return gdet_sigma(x, sigma)
    return gber(x, sigma, on_index=True)


def _matrix_job(args):
    """trace, gdet0, gdet and gber: parse, compute, serialize, with the
    milliseconds of each phase appended under --stats."""
    start = perf_counter()
    sigma = None
    algebra = _load_algebra(args.algebra)
    if args.command in ("gdet", "gber"):
        sigma = _load_sigma(args.sigma, algebra)
        # auto is canonical_sigma, which solve_ns_multiplier has checked
        if args.sigma != "auto" and not is_ns_multiplier(algebra.lam, sigma):
            raise InvalidParams(
                f"{args.sigma} is not an NS multiplier of {algebra.name}, "
                f"so the entries of J_sigma(X) need not commute; "
                f"gradedet solve-sigma lists the NS multipliers")
    doc, x, order, canonical = load_matrix(args.matrix, algebra)
    if args.degrees:
        x, canonical = _apply_degrees(x, args.degrees), False
    check_root_orders(order, algebra, sigma)
    # a canonical document is the one digest_matrix would format and hash
    inputs = {"algebra": digest_algebra(algebra),
              "matrix": digest(doc) if canonical else digest_matrix(x)}
    if sigma is not None:
        inputs["sigma"] = digest_multiplier(sigma)
    parsed = perf_counter()
    value = _compute(args.command, x, sigma)
    computed = perf_counter()
    doc = result_doc(value, inputs)
    if args.stats:
        done = perf_counter()
        stats = {"command": args.command, "n": x.nrows, "dim": algebra.dim,
                 "ms": {"parse": _ms(parsed - start),
                        "compute": _ms(computed - parsed),
                        "serialize": _ms(done - computed)}}
        if sigma is not None:
            stats["sigma"] = inputs["sigma"]
        doc["stats"] = stats
    return doc


def _ms(seconds):
    return round(seconds * 1000, 3)


def _verify(args):
    """The sweep reports; under --timings each sweep's seconds go to
    stderr, so stdout stays the same document."""
    suites = None if args.suite is None else [args.suite]
    reports = []
    start = perf_counter()
    for report in iter_property_sweeps(seed=args.seed, suites=suites):
        reports.append(report)
        if args.timings:
            now = perf_counter()
            print(f"{report.name}: {now - start:.3f} s", file=sys.stderr)
            start = now
    doc = {"format": FORMAT, "seed": args.seed,
           "reports": [r.to_doc() for r in reports]}
    return doc, 0 if all(r.ok for r in reports) else 5


def _dispatch(args):
    if args.command in ("trace", "gdet0", "gdet", "gber"):
        return _matrix_job(args), 0
    if args.command == "twist":
        algebra = _load_algebra(args.algebra)
        sigma = _load_sigma(args.sigma, algebra)
        doc = _twist_document(twist(algebra, sigma))
        doc["inputs"] = {"algebra": digest_algebra(algebra),
                         "sigma": digest_multiplier(sigma)}
        return doc, 0
    if args.command == "solve-sigma":
        if args.algebra.startswith("preset:"):
            check_preset_family(args.algebra)  # before the preset is built
        algebra = _load_algebra(args.algebra)
        family = _ns_family(algebra)
        return {"format": FORMAT, "multiplier": family[0],
                "all": list(family),
                "inputs": {"algebra": digest_algebra(algebra)}}, 0
    return _verify(args)


def _twist_document(twisted):
    """A new top-level dict equal to format_algebra(twisted), formatted
    once per twisted algebra (twist memoizes those) and kept on it; the
    nested values are shared between calls, so only the top level may be
    changed."""
    if twisted._document is None:
        twisted._document = format_algebra(twisted)
    return dict(twisted._document)


# solve-sigma keeps the NS families of this many algebra objects (a preset
# and the same algebra read from a file are two objects)
NS_FAMILIES = 16
# id(algebra) -> (algebra, format_multiplier of each member of its NS family)
_families = OrderedDict()


def _ns_family(algebra):
    """format_multiplier of each member of all_ns_multipliers(algebra.lam),
    enumerated and formatted once per algebra object among the last
    NS_FAMILIES (the entry holds the algebra, so its id is not reused
    while kept).  The documents are shared between calls."""
    hit = recall(_families, id(algebra))
    if hit is None:
        hit = remember(_families, id(algebra), (algebra, tuple(
            format_multiplier(s) for s in all_ns_multipliers(algebra.lam))),
            NS_FAMILIES)
    return hit[1]


def _dump(doc, layout):
    if layout == "pretty":
        return json.dumps(doc, indent=2, sort_keys=True)
    return canonical_json(doc)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        doc, status = _dispatch(args)
    except GradedetError as exc:
        print(_dump({"format": FORMAT, "error": type(exc).__name__,
                     "message": str(exc)}, args.format))
        return exc.exit_code
    print(_dump(doc, args.format))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
