"""Command-line interface.

Expressions are single shell arguments; quote anything containing '<' or
'>' so the shell does not treat them as redirections:

    knotalg components "<<2> <-2>> <2> <-2>"

Exit codes: 0 success, 2 malformed input, 3 capacity exceeded (too many
crossings, nesting too deep, out of memory), 4 internal consistency failure.

Each subcommand imports the modules it runs inside its handler, so a call
pays start-up only for those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .errors import CapacityError, ConsistencyError, ExprSyntaxError

EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_CONSISTENCY = 4


@dataclass(frozen=True)
class CommandResult:
    code: int
    payload: str


def _json(data) -> str:
    return json.dumps(data, indent=2)


def _cmd_eval(args) -> CommandResult:
    from .algebra import annotated_text, closure_count, trace
    from .expr import parse

    e = parse(args.expr)
    t = trace(e)
    if args.format == "json":
        payload = _json(
            {
                "class": t.value.cls.value,
                "loops": t.value.loops,
                "components": closure_count(t.value),
                "marks": list(t.marks),
                "final": t.final,
                "annotated": annotated_text(e),
            }
        )
    else:
        payload = "\n".join(
            [
                f"class: {t.value.cls.value}",
                f"loops: {t.value.loops}",
                f"components: {closure_count(t.value)}",
                f"trace: {annotated_text(e)}",
            ]
        )
    return CommandResult(0, payload)


def _cmd_components(args) -> CommandResult:
    from .algebra import closure_components
    from .expr import parse, to_text

    e = parse(args.expr)
    count = closure_components(e)
    verified = None
    if args.verify:
        from .graph import closure_nullity
        from .oracle import trace_components

        traced = trace_components(e)
        nullity = closure_nullity(e)
        if not count == traced == nullity:
            raise ConsistencyError(
                f"component count disagreement: algebra {count}, "
                f"oracle {traced}, laplacian {nullity}"
            )
        verified = True
    if args.format == "json":
        data = {"expr": to_text(e), "components": count}
        if verified is not None:
            data["verified"] = verified
        return CommandResult(0, _json(data))
    suffix = "  (verified)" if verified else ""
    return CommandResult(0, f"{count}{suffix}")


def _cmd_fraction(args) -> CommandResult:
    from .rational import classify_fraction, parse_fraction

    f = parse_fraction(args.fraction)
    parity = classify_fraction(f)
    if args.format == "json":
        return CommandResult(
            0,
            _json(
                {
                    "fraction": str(f),
                    "class": parity.value,
                    "kind": parity.kind,
                    "components": parity.components,
                }
            ),
        )
    return CommandResult(0, f"{parity.kind} ({parity.value})")


def _cmd_cf(args) -> CommandResult:
    from .rational import cf_of_fraction, parse_fraction

    f = parse_fraction(args.fraction)
    terms = cf_of_fraction(f)
    if args.format == "json":
        return CommandResult(0, _json(terms))
    return CommandResult(0, ",".join(map(str, terms)))


def _cmd_cfval(args) -> CommandResult:
    from .rational import cf_value

    try:
        entries = [int(x) for x in args.entries.split(",") if x.strip() != ""]
    except ValueError as err:
        raise ValueError(f"not an integer list: {args.entries!r}") from err
    if not entries:
        raise ValueError("empty entry list")
    value = cf_value(entries)
    if args.format == "json":
        return CommandResult(0, _json(str(value)))
    return CommandResult(0, str(value))


def _cmd_enumerate(args) -> CommandResult:
    from .enumeration import rational_table, table_json, table_text

    entries = rational_table(args.n)
    if args.format == "json":
        return CommandResult(0, _json(table_json(entries)))
    return CommandResult(0, table_text(entries))


def _cmd_bracket(args) -> CommandResult:
    from .bracket import bracket, state_sum_bracket
    from .expr import parse

    e = parse(args.expr)
    poly = bracket(e)
    if args.verify:
        enumerated = state_sum_bracket(e).specialize()
        if poly != enumerated:
            raise ConsistencyError(
                f"bracket disagreement: tangle fold {poly}, state sum {enumerated}"
            )
    if args.format == "json":
        return CommandResult(0, _json([list(p) for p in poly.to_pairs()]))
    suffix = "  (verified)" if args.verify else ""
    return CommandResult(0, f"{poly}{suffix}")


def _cmd_opacity(args) -> CommandResult:
    from .algebra import opacity
    from .expr import leaves, parse, to_text

    e = parse(args.expr)
    report = opacity(e)
    pairs = [
        (i, to_text(leaf), "opaque" if is_opaque else "transparent")
        for (i, leaf), is_opaque in zip(leaves(e), report.opaque)
    ]
    if args.format == "json":
        return CommandResult(
            0,
            _json(
                {
                    "components": report.components,
                    "leaves": [
                        {"index": i, "leaf": text, "status": status}
                        for i, text, status in pairs
                    ],
                }
            ),
        )
    lines = [f"components: {report.components}"]
    lines += [f"{i:>3}  {text:<6} {status}" for i, text, status in pairs]
    return CommandResult(0, "\n".join(lines))


def _cmd_cube(args) -> CommandResult:
    from .expr import parse
    from .tensor import build_cube

    e = parse(args.expr)
    return CommandResult(0, _json(build_cube(e).to_json_dict()))


def _cmd_nullity(args) -> CommandResult:
    from .expr import parse
    from .graph import PlaneGraph, closure_nullity, mod2_laplacian, nullity_gf2

    if args.graph:
        with open(args.graph, encoding="utf-8") as fh:
            g = PlaneGraph.from_json_dict(json.load(fh))
        value = nullity_gf2(mod2_laplacian(g))
    elif args.expr:
        value = closure_nullity(parse(args.expr))
    else:
        raise ValueError("provide an expression or --graph FILE")
    if args.format == "json":
        return CommandResult(0, _json({"nullity": value}))
    return CommandResult(0, str(value))


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotalg",
        description="Crossing-algebra computations on arborescent knot and link expressions.",
        epilog="Quote expressions containing '<' or '>' to keep the shell away from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="connectivity class, loop count and trace")
    p.add_argument("expr")
    _add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("components", help="closure component count")
    p.add_argument("expr")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against strand tracing and the mod-2 laplacian")
    _add_format(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("fraction", help="classify a rational link by its fraction P/Q")
    p.add_argument("fraction")
    _add_format(p)
    p.set_defaults(func=_cmd_fraction)

    p = sub.add_parser("cf", help="continued fraction of P/Q")
    p.add_argument("fraction")
    _add_format(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("cfval", help="value of a continued fraction a1,a2,...")
    p.add_argument("entries")
    _add_format(p)
    p.set_defaults(func=_cmd_cfval)

    p = sub.add_parser("enumerate", help="rational knot/link table for n crossings")
    p.add_argument("n", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bracket", help="bracket polynomial of the closure")
    p.add_argument("expr")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the explicit 2^n state sum")
    _add_format(p)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("opacity", help="per-leaf opacity/transparency report")
    p.add_argument("expr")
    _add_format(p)
    p.set_defaults(func=_cmd_opacity)

    p = sub.add_parser("cube", help="full state cube as JSON")
    p.add_argument("expr")
    _add_format(p)
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("nullity", help="GF(2) nullity of the mod-2 laplacian")
    p.add_argument("expr", nargs="?")
    p.add_argument("--graph", help="JSON file {nodes, edges} instead of an expression")
    _add_format(p)
    p.set_defaults(func=_cmd_nullity)

    return parser


def _capacity(message: str) -> CommandResult:
    return CommandResult(EXIT_CAPACITY, _json({"error": {"kind": "capacity", "message": message}}))


def run(argv: list[str]) -> CommandResult:
    """Run a command line; errors become nonzero results with JSON payloads."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExprSyntaxError as err:
        payload = _json(
            {
                "error": {
                    "kind": "parse",
                    "message": str(err),
                    "offset": err.offset,
                    "expected": sorted(err.expected),
                }
            }
        )
        return CommandResult(EXIT_PARSE, payload)
    except CapacityError as err:
        return _capacity(str(err))
    except RecursionError:
        # The evaluators still recurse over the expression tree.
        return _capacity("expression nesting too deep")
    except MemoryError:
        return _capacity("out of memory")
    except ConsistencyError as err:
        return CommandResult(
            EXIT_CONSISTENCY,
            _json({"error": {"kind": "consistency", "message": str(err)}}),
        )
    except (ValueError, OSError) as err:
        return CommandResult(
            EXIT_PARSE, _json({"error": {"kind": "input", "message": str(err)}})
        )


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if result.code == 0 else sys.stderr
    try:
        print(result.payload, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader left early (`| head`); send the rest, and the flush at exit, nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return result.code


if __name__ == "__main__":
    raise SystemExit(main())
