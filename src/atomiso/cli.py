"""Command-line front end.

Exit codes: 0 success (or positive answer), 3 negative answer, 4 negative
but inconclusive, 2 bad input of any kind, 5 resource budget exhausted.

The argument parser is built once per process (`build_parser`), so `main`
may be called repeatedly in one process at the cost of parsing alone;
each call gets a fresh namespace and its own compiler.
"""

import argparse
import functools
import json
import os
import sys

from . import engine
from .algebra import (
    definable_subsets,
    least_support,
    orbit_decomposition,
    set_equal,
)
from .compile import Compiler
from .engine import (
    FOUND,
    NOT_FOUND,
    NOT_FOUND_INCOMPLETE,
    decide_definable_iso,
    eliminate_parameters,
)
from .errors import AtomisoError, ResourceError, ValidationError
from .exprs import expr_params
from .fixtures import FIXTURES, fixture_documents
from .parser import parse, parse_atoms, print_expr
from .structures import (
    MODES,
    function_to_dict,
    load_function,
    load_structure,
    validate_structure,
)
from .theories import backend_names, get_backend
from .theories.formulas import format_atom_value

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO = 3
EXIT_INCONCLUSIVE = 4
EXIT_RESOURCE = 5

#: the largest tuple length the rn command accepts
RN_MAX = 500

_VERDICT_EXIT = {FOUND: EXIT_OK, NOT_FOUND: EXIT_NO, NOT_FOUND_INCOMPLETE: EXIT_INCONCLUSIVE}


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    elif plain:
        print(plain)


def _format_params(params) -> list[str]:
    return [format_atom_value(a) for a in sorted(params)]


def cmd_check_eq(args) -> int:
    backend = get_backend(args.backend)
    comp = Compiler(backend)
    e1 = parse(args.expr1, backend)
    e2 = parse(args.expr2, backend)
    eq = set_equal(comp, e1, e2)
    _emit(args, {"equal": eq}, "equal" if eq else "not equal")
    return EXIT_OK if eq else EXIT_NO


def cmd_orbits(args) -> int:
    backend = get_backend(args.backend)
    comp = Compiler(backend)
    x = parse(args.expr, backend)
    fix = parse_atoms(args.fix, backend) | expr_params(x)
    orbits = orbit_decomposition(comp, x, fix)
    pieces = [print_expr(o.piece()) for o in orbits]
    plain = "\n".join(pieces) if pieces else "(empty set)"
    _emit(
        args,
        {
            "count": len(orbits),
            "fixed": _format_params(fix),
            "orbits": pieces,
        },
        plain,
    )
    return EXIT_OK


def cmd_support(args) -> int:
    backend = get_backend(args.backend)
    comp = Compiler(backend)
    x = parse(args.expr, backend)
    supp = least_support(comp, x)
    names = _format_params(supp)
    _emit(args, {"support": names}, " ".join(names))
    return EXIT_OK


def cmd_subsets(args) -> int:
    backend = get_backend(args.backend)
    comp = Compiler(backend)
    x = parse(args.expr, backend)
    fix = parse_atoms(args.params, backend) | expr_params(x)
    subs = definable_subsets(comp, x, fix, budget=args.budget)
    pieces = [print_expr(s) for s in subs]
    _emit(
        args,
        {"count": len(subs), "fixed": _format_params(fix), "subsets": pieces},
        "\n".join(pieces),
    )
    return EXIT_OK


def cmd_rn(args) -> int:
    backend = get_backend(args.backend)
    if args.n < 0:
        raise ValidationError("the tuple length must be nonnegative")
    if args.n > RN_MAX:
        # the counts grow faster than exponentially: past the cap the
        # computation takes seconds to minutes and prints thousands of digits
        raise ValidationError(f"the tuple length must be at most {RN_MAX}, got {args.n}")
    count = backend.rn_count(args.n)
    _emit(args, {"backend": backend.name, "n": args.n, "count": count}, str(count))
    return EXIT_OK


def _load_pair(args):
    """Both structures of the command, checked against each other, with a
    compiler for their backend.  The command validates each over the atoms
    its search or first final check decomposes over, in one question with
    the search, to share the orbits."""
    A = load_structure(args.a)
    B = load_structure(args.b)
    if A.backend_name != B.backend_name:
        raise ValidationError(
            f"the structures use different backends: "
            f"{A.backend_name} vs {B.backend_name}"
        )
    return A, B, Compiler(get_backend(A.backend_name))


def cmd_iso(args) -> int:
    A, B, comp = _load_pair(args)
    backend = comp.backend
    extra = parse_atoms(args.params, backend)
    with comp:
        for st in (A, B):
            validate_structure(comp, st, A.params() | B.params() | extra)
        cert = decide_definable_iso(
            comp, A, B, extra_params=extra, mode=args.mode, budget=args.budget
        )
    lines = [f"verdict: {cert.verdict}"]
    if cert.caveat:
        lines.append(f"note: {cert.caveat}")
    if cert.witness is not None:
        lines.append("witness: " + print_expr(cert.witness.graph))
    _emit(args, cert.to_dict(backend.name), "\n".join(lines))
    return _VERDICT_EXIT[cert.verdict]


def cmd_eliminate(args) -> int:
    A, B, comp = _load_pair(args)
    backend = comp.backend
    backend_name, fn = load_function(args.map)
    if backend_name != A.backend_name:
        raise ValidationError(
            f"the map uses backend {backend_name}, the structures use "
            f"{A.backend_name}"
        )
    with comp:
        for st in (A, B):
            validate_structure(comp, st, A.params() | B.params() | fn.params())
        extra = parse_atoms(args.params, backend)
        h, report = eliminate_parameters(comp, fn, A, B, T=extra)
    doc = function_to_dict(backend.name, h)
    plain = "\n".join(
        [
            "graph: " + doc["graph"],
            "parameters: "
            + (" ".join(_format_params(expr_params(h.graph))) or "(none)"),
            f"rounds: {len(report.steps)}",
        ]
    )
    _emit(args, {**doc, "rounds": len(report.steps)}, plain)
    return EXIT_OK


def cmd_fixture(args) -> int:
    docs = fixture_documents(args.name)
    if not args.emit:
        _emit(args, docs, json.dumps(docs, indent=2))
        return EXIT_OK
    os.makedirs(args.emit, exist_ok=True)
    written = []
    for part, doc in docs.items():
        path = os.path.join(args.emit, f"{args.name}.{part}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        written.append(path)
    _emit(args, {"written": written}, "\n".join(written))
    return EXIT_OK


def _int_at_least(low: int, what: str):
    """An argparse type: an integer of at least `low`, else "must be what"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


def _add_globals(ap: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subcommand copies default to SUPPRESS so they never mask a value
    # parsed earlier
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument(
        "--backend",
        choices=backend_names(),
        default=d or "equality",
        help="atom structure for expression commands (default: equality)",
    )
    ap.add_argument(
        "--json",
        action="store_true",
        default=d or False,
        help="machine-readable output",
    )
    ap.add_argument(
        "--budget",
        type=_int_at_least(0, "nonnegative"),
        default=d or engine.DEFAULT_BUDGET,
        help="cap on enumerated candidates before giving up "
        f"(default: {engine.DEFAULT_BUDGET})",
    )
    ap.add_argument(
        "--threads",
        type=_int_at_least(1, "positive"),
        default=d or 1,
        help="accepted for interface compatibility; execution is sequential",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing keeps no state on it between calls, and each parse
    returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="atomiso",
        description="Definable sets over atom structures: orbits, supports, "
        "and searches for definable isomorphisms.",
    )
    _add_globals(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-eq",
        parents=[common],
        help="decide whether two closed expressions are equal",
    )
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(fn=cmd_check_eq)

    p = sub.add_parser("orbits", parents=[common], help="decompose a set into orbits")
    p.add_argument("expr")
    p.add_argument(
        "--fix",
        default=None,
        help="atoms fixed pointwise, comma or space separated "
        "(the expression's own parameters are always fixed)",
    )
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("support", parents=[common], help="least support of a closed expression")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_support)

    p = sub.add_parser("subsets", parents=[common], help="enumerate the definable subsets of a set")
    p.add_argument("expr")
    p.add_argument("--params", default=None, help="atoms allowed as parameters")
    p.set_defaults(fn=cmd_subsets)

    p = sub.add_parser(
        "rn", parents=[common], help=f"orbit count of atom tuples of length N (at most {RN_MAX})"
    )
    p.add_argument("n", type=int, metavar="N")
    p.set_defaults(fn=cmd_rn)

    p = sub.add_parser("iso", parents=[common], help="search for a definable isomorphism")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument("--params", default=None, help="extra parameter atoms for the search")
    p.add_argument("--mode", choices=MODES, default="iso")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser(
        "eliminate",
        parents=[common],
        help="remove the parameters from a definable isomorphism",
    )
    p.add_argument("--map", required=True, metavar="F.json")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument(
        "--params", default=None, help="atoms the result is still allowed to use"
    )
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("fixture", parents=[common], help="emit a built-in example")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--emit", default=None, metavar="DIR", help="directory to write into")
    p.set_defaults(fn=cmd_fixture)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceError as ex:
        print(f"atomiso: {ex}", file=sys.stderr)
        return EXIT_RESOURCE
    except (AtomisoError, OSError) as ex:
        print(f"atomiso: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
