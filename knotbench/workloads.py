"""The four workloads: their schedules, operations, reference checks and probes.

Each workload is a closed loop with one client.  Its schedule is a fixed
round of slots, each naming an operation and an input size; the seed draws
one input per slot, and every round replays the same inputs (run.py keeps
each input's median time).  The tiers are sized so that the median and the
95th percentile each fall inside a tier of two or more slots, not on the edge
between two tiers, which keeps them steady from seed to seed.

`run` is the timed operation.  With a tracer on it calls knotalg through its
public stages, so that every layer gets its own span.  `check` compares the
output with an independent route, outside the timed region.  `probes` are
inputs past the depth where knotalg's recursive walkers fail; the traced
run executes them after the timed loop and records each failure by layer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import re

import inputs as ref

MODULES = ("expr", "algebra", "rational", "enumeration", "bracket", "tensor", "graph", "oracle", "cli", "errors")


class Lib:
    """knotalg's modules, imported by name (the package re-exports shadow some)."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"knotalg.{name}"))


class CommandFailed(Exception):
    """A CLI invocation ended outside the defined outcomes (exit 0, 2 or 3)."""

    def __init__(self, layer: str, kind: str, detail: str):
        super().__init__(detail)
        self.layer, self.kind = layer, kind


_FRAME = re.compile(r'File ".*?knotalg[/\\](\w+)\.py"')


def traceback_layer(text: str) -> tuple[str, str]:
    """(layer, exception kind) from a printed traceback."""
    frames = _FRAME.findall(text)
    last = text.strip().splitlines()[-1] if text.strip() else ""
    kind = last.split(":", 1)[0].strip() or "unknown"
    return (frames[-1] if frames else "cli"), kind


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(1, n + 1), min(k, n)))


class Workload:
    name = ""
    setup_import = "knotalg"
    #: The fixed round of slots; the first element of a slot is the op kind.
    ROUND: list[tuple] = []
    #: Untimed slots run once before the timed loop.
    WARM: list[tuple] = []

    def __init__(self, lib: Lib, seed: int, spawn):
        self.lib, self.spawn = lib, spawn
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed + 1)

    def probes(self) -> list[dict]:
        return []


# ---------------------------------------------------------------------------


def _spread(*tiers: tuple[int, tuple]) -> list[tuple]:
    """Interleave tiers (count, slot) so every prefix of the round has the mix."""
    keyed = []
    for count, slot in tiers:
        for k in range(count):
            keyed.append(((k + 0.5) / count, repr(slot), slot))
    keyed.sort()
    return [slot for _, _, slot in keyed]


class StateSum(Workload):
    name = "state-sum"
    ROUND = _spread(
        *[(2, ("bracket", n)) for n in range(4, 9)],
        (10, ("bracket", 9)),
        (2, ("bracket", 10)),
        *[(1, ("bracket", n)) for n in (11, 12, 13)],
        (5, ("bracket", 14)),
        *[(2, ("cube", n)) for n in range(4, 10)],
    )
    WARM = [("bracket", 6), ("cube", 4)]

    def make(self, slot):
        kind, n = slot
        tree = ref.crossing_expr(self.rng, n)
        return {"kind": kind, "n": n, "tree": tree, "text": ref.render(tree)}

    def run(self, t, op):
        L = self.lib
        e = t.call("expr.parse", L.expr.parse, op["text"])
        if op["kind"] == "bracket":
            if t.on:
                raw = t.call("bracket.raw_bracket", L.bracket.raw_bracket, e)
                return e, t.call("bracket.specialize", raw.specialize), raw
            return e, L.bracket.bracket(e), None
        cube = t.call("tensor.build_cube", L.tensor.build_cube, e)
        return e, cube, t.call("tensor.to_json_dict", cube.to_json_dict)

    def check(self, op, out):
        e, result, extra = out
        tree, n = op["tree"], op["n"]
        raw = ref.raw_bracket_terms(tree)
        if op["kind"] == "bracket":
            if result.terms != ref.specialize(raw):
                return "bracket disagrees with the tangle-form state sum"
            if extra is not None and extra.terms != raw:
                return "raw bracket disagrees with the tangle-form state sum"
            return None
        data = extra
        if len(data["vertices"]) != 1 << n or len(data["edges"]) != n << (n - 1):
            return "cube has the wrong number of vertices or edges"
        tally: dict = {}
        loops = {}
        for v in data["vertices"]:
            a = v["bits"].count("A")
            key = (a, n - a, v["loops"])
            tally[key] = tally.get(key, 0) + 1
            loops[v["bits"]] = v["loops"]
        if tally != self.lib.bracket.raw_bracket(e).terms or tally != raw:
            return "cube tally disagrees with the raw bracket"
        for index in self.check_rng.sample(range(1 << n), 3):
            bits = format(index, f"0{n}b").replace("0", "A").replace("1", "B")
            if not loops[bits] == self.lib.oracle.trace_state_loops(e, bits) == ref.state_loops(tree, bits):
                return f"state {bits} disagrees with strand tracing"
        return None

    def items(self, op, out):
        return 1 << op["n"] if op["kind"] == "cube" else 0

    def count(self, ctr, op, out):
        _e, result, extra = out
        ctr["expr.parse_chars"] += len(op["text"])
        if op["kind"] == "bracket":
            ctr["bracket.states"] += 1 << op["n"]
            ctr["bracket.monomials"] += len(extra.terms)
            ctr["bracket.poly_terms"] += len(result.terms)
        else:
            ctr["tensor.vertices"] += len(extra["vertices"])
            ctr["tensor.edges"] += len(extra["edges"])


# ---------------------------------------------------------------------------

# Nesting depth at which knotalg's recursive walkers fail at the parent
# commit: to_text at about 250 levels, closure_nullity and opacity at about
# 340, parse of <...> nests and the algebra at about 500.  Timed inputs stay
# below the limit of every stage their operation runs; probes go past it.
_SHAPES = {
    "wide": lambda rng, size: ref.wide_sum(rng, size),
    "flat": lambda rng, size: ref.wide_sum(rng, size, group=0.0),
    "nest": lambda rng, size: ref.nest(rng, size),
    "cf": lambda rng, size: ref.cf_expr(rng, size),
    "twisty": lambda rng, size: ref.twisty(rng, *size),
    "twists": lambda rng, size: ref.twisty(rng, *size, rotate=False),
}


class BigDiagram(Workload):
    name = "big-diagram"
    # The median falls inside the eval tier on 3000 leaves (parse, trace and
    # annotate: ranks 17-30 of 50) and the 95th percentile inside the verify
    # tier on 5000 leaves; both tiers cost about the same on every seed.
    ROUND = _spread(
        (4, ("verify", "flat", 5000)),
        (2, ("verify", "twists", (6, 1000))),
        (1, ("verify", "cf", 200)),
        (1, ("verify", "nest", 200)),
        (2, ("verify", "twisty", (4, 300))),
        (4, ("eval", "wide", 10000)),
        (14, ("eval", "wide", 3000)),
        (4, ("eval", "nest", 450)),
        (4, ("eval", "cf", 450)),
        (4, ("opacity", "wide", 80)),
        (1, ("opacity", "cf", 60)),
        (1, ("opacity", "nest", 60)),
        (4, ("nullity", "twisty", (2, 700))),
        (2, ("nullity", "wide", 800)),
        (1, ("nullity", "cf", 200)),
        (1, ("nullity", "nest", 200)),
    )
    WARM = [("verify", "wide", 50), ("eval", "cf", 20), ("opacity", "wide", 10), ("nullity", "nest", 10)]

    def make(self, slot):
        kind, shape, size = slot
        tree = _SHAPES[shape](self.rng, size)
        return {"kind": kind, "tree": tree, "text": ref.render(tree), "stats": ref.stats(tree),
                "components": ref.components(tree)}

    def _nullity(self, t, e):
        G = self.lib.graph
        if not t.on:
            return G.closure_nullity(e), None
        net = t.call("graph.sp_network", G.sp_network, e)
        g = t.call("graph.to_multigraph", G.to_multigraph, net, True)
        m = t.call("graph.mod2_laplacian", G.mod2_laplacian, g)
        return t.call("graph.nullity_gf2", G.nullity_gf2, m), g

    def run(self, t, op):
        L = self.lib
        kind = op["kind"]
        e = t.call("expr.parse", L.expr.parse, op["text"])
        if kind == "verify":
            # components --verify --format json
            count = t.call("algebra.closure_components", L.algebra.closure_components, e)
            traced = t.call("oracle.trace_components", L.oracle.trace_components, e)
            nullity, g = self._nullity(t, e)
            if not count == traced == nullity:
                raise L.errors.ConsistencyError(f"algebra {count}, oracle {traced}, laplacian {nullity}")
            return {"expr": t.call("expr.to_text", L.expr.to_text, e), "components": count}, g
        if kind == "eval":
            tr = t.call("algebra.trace", L.algebra.trace, e)
            annotated = t.call("algebra.annotated_text", L.algebra.annotated_text, e)
            return {"class": tr.value.cls.value, "loops": tr.value.loops,
                    "components": L.algebra.closure_count(tr.value), "marks": tr.marks,
                    "final": tr.final, "annotated": annotated}, None
        if kind == "opacity":
            report = t.call("algebra.opacity", L.algebra.opacity, e)
            leaves = t.call("expr.leaves", L.expr.leaves, e)
            with t.span("expr.to_text", len(leaves)):
                texts = [L.expr.to_text(leaf) for _, leaf in leaves]
            return {"components": report.components, "opaque": report.opaque, "leaves": texts}, None
        nullity, g = self._nullity(t, e)
        return {"nullity": nullity}, g

    def check(self, op, out):
        data, _g = out
        tree, expected = op["tree"], op["components"]
        kind = op["kind"]
        if kind == "verify":
            if data["components"] != expected:
                return f"components {data['components']} != {expected}"
            if data["expr"] != ref.render(tree, expand=True):
                return "to_text disagrees with the generated text"
        elif kind == "eval":
            marks, final, cls, loops = ref.trace_marks(tree)
            got = (data["components"], list(data["marks"]), data["final"], data["class"], data["loops"])
            if got != (expected, marks, final, cls, loops):
                return "trace disagrees with the reference algebra"
            if data["annotated"].count(">_") != len(marks) or not data["annotated"].endswith(f"|_{final}"):
                return "annotated text has the wrong marks"
        elif kind == "opacity":
            n = op["stats"]["leaves"]
            if data["components"] != expected or len(data["opaque"]) != n:
                return "opacity report has the wrong size or component count"
            values = list(ref.iter_leaf_values(tree))
            if data["leaves"] != [str(v) if v else "E" for v in values]:
                return "leaf texts disagree with the generated leaves"
            for i in _sample(self.check_rng, n, 8):
                if data["opaque"][i - 1] != ref.opaque(tree, i, expected):
                    return f"leaf {i} opacity disagrees with the reference algebra"
        elif data["nullity"] != expected:
            return f"nullity {data['nullity']} != {expected}"
        return None

    def items(self, op, out):
        return op["stats"]["leaves"]

    def count(self, ctr, op, out):
        _data, g = out
        kind, st = op["kind"], op["stats"]
        ctr["expr.parse_chars"] += len(op["text"])
        if kind in ("verify", "eval"):
            ctr["algebra.eval_leaves"] += st["leaves"]
        if kind == "opacity":
            ctr["algebra.opacity_leaves"] += st["leaves"]
        if kind == "verify":
            ctr["oracle.ports"] += st["ports"]
        if g is not None:
            ctr["graph.nodes"] += g.n
            ctr["graph.edges"] += len(g.edges)

    def probes(self):
        out = []
        for kind in ("verify", "eval", "opacity", "nullity"):
            for shape, size in (("cf", 350), ("cf", 600), ("cf", 1000), ("nest", 350), ("nest", 600), ("nest", 1000)):
                if kind == "opacity" and size > 350:
                    continue  # opacity is quadratic in the leaf count
                out.append(self.make((kind, shape, size)) | {"label": f"{kind} {shape} {size}"})
        return out


# ---------------------------------------------------------------------------


class RationalTable(Workload):
    name = "rational-table"
    ROUND = _spread(
        (6, ("query", 300)),
        (1, ("table", 8)),
        (1, ("table", 9)),
        (1, ("table", 10)),
        (1, ("table", 11)),
        (9, ("table", 12)),
        (1, ("table", 13)),
        (2, ("table", 14)),
        (2, ("table", 15)),
        (2, ("table", 16)),
        (2, ("table", 17)),
    )
    WARM = [("table", 8), ("query", 20)]

    def make(self, slot):
        kind, size = slot
        if kind == "table":
            return {"kind": kind, "n": size}
        digits = self.rng.randint(size * 2 // 3, size * 4 // 3)
        p, q = ref.big_fraction(self.rng, digits)
        if self.rng.random() < 0.5:
            q2 = pow(q, -1, p)  # Q Q' = 1 (mod P): the same link
        else:
            q2 = next(x for x in range(self.rng.randrange(1, p), p) if ref.gcd(x, p) == 1)
        return {"kind": kind, "p": p, "q": q, "q2": q2}

    def run(self, t, op):
        R, En = self.lib.rational, self.lib.enumeration
        if op["kind"] == "query":
            f = R.Frac(op["p"], op["q"])
            parity = t.call("rational.classify_fraction", R.classify_fraction, f)
            terms = t.call("rational.cf_of_fraction", R.cf_of_fraction, f)
            same = t.call("rational.schubert_equivalent", R.schubert_equivalent, f, R.Frac(op["p"], op["q2"]))
            return f, parity, terms, same
        if not t.on:
            return [(x.parts, x.fraction, x.parity, x.components) for x in En.rational_table(op["n"])]
        # rational_table replayed through its public stages.
        n = op["n"]
        comps = t.call("enumeration.compositions_with_big_ends", lambda: list(En.compositions_with_big_ends(n)))
        with t.span("enumeration.canonical", len(comps)):
            classes = sorted({En.canonical(c) for c in comps})
        with t.span("rational.cf_value", len(classes)):
            fractions = [R.cf_value(parts) for parts in classes]
        with t.span("rational.classify_fraction", len(classes)):
            parities = [R.classify_fraction(f) for f in fractions]
        with t.span("expr.continued_fraction", len(classes)):
            exprs = [self.lib.expr.continued_fraction(parts) for parts in classes]
        with t.span("algebra.closure_components", len(classes)):
            counts = [self.lib.algebra.closure_components(e) for e in exprs]
        rows = list(zip(classes, fractions, parities, counts))
        for parts, _f, parity, count in rows:
            if count != parity.components:
                raise self.lib.errors.ConsistencyError(f"classifiers disagree on {parts}")
        return rows

    def check(self, op, out):
        if op["kind"] == "query":
            f, parity, terms, same = out
            p, q = op["p"], op["q"]
            if parity.value != ref.parity_kind(p, q)[0]:
                return "parity class disagrees with P, Q parities"
            if self.lib.rational.cf_value(terms) != f or ref.cf_fraction(terms) != ref.Fraction(p, q):
                return "continued fraction does not evaluate back to P/Q"
            if same != ref.schubert(p, q, op["q2"]):
                return "schubert_equivalent disagrees with the congruence test"
            return None
        n, rows = op["n"], out
        if len(rows) != ref.count_reversal_classes(n):
            return f"{len(rows)} entries, expected {ref.count_reversal_classes(n)}"
        previous = ()
        for parts, *_ in rows:
            if not (previous < parts <= parts[::-1] and sum(parts) == n and parts[0] >= 2 and parts[-1] >= 2):
                return f"entry {parts} is not a sorted canonical big-ended composition of {n}"
            previous = parts
        for i in self.check_rng.sample(range(len(rows)), min(24, len(rows))):
            parts, frac, parity, count = rows[i]
            value = ref.cf_fraction(parts)
            kind, comps = ref.parity_kind(value.numerator, value.denominator)
            if (frac.p, frac.q) != (value.numerator, value.denominator) or parity.value != kind:
                return f"entry {parts} has the wrong fraction or class"
            if count != comps or count != ref.components(("CF", parts)):
                return f"entry {parts} has the wrong component count"
        return None

    def items(self, op, out):
        return len(out) if op["kind"] == "table" else 0

    def count(self, ctr, op, out):
        if op["kind"] == "table":
            ctr["enumeration.entries"] += len(out)
            ctr["enumeration.compositions"] += ref.count_big_ended(op["n"])


# ---------------------------------------------------------------------------

_MALFORMED = [
    (["eval", "<O O"], 2, "parse"),
    (["components", "O >"], 2, "parse"),
    (["bracket", "O ? U"], 2, "parse"),
    (["fraction", "3/x"], 2, "input"),
    (["cfval", "1,a,2"], 2, "input"),
    (["nullity", "[1,,2]"], 2, "parse"),
    (["enumerate", "seven"], 2, None),  # argparse usage error
]
_OVER_CAP = [
    (["bracket", "1000000"], 3, "capacity"),
    (["cube", "O " * 30], 3, "capacity"),
]


class Cli(Workload):
    """`python -m knotalg <command>`, one subprocess at a time."""

    name = "cli"
    setup_import = "knotalg.cli"
    COMMANDS = ("eval", "components", "verify", "fraction", "cf", "cfval", "enumerate",
                "bracket", "opacity", "cube", "nullity")
    ROUND = _spread(
        *[(1, (cmd, fmt)) for cmd in COMMANDS for fmt in ("text", "json")],
        (2, ("malformed", "json")),
        (len(_OVER_CAP), ("overcap", "json")),
        (1, ("longcf", "json")),
    )
    WARM = [("eval", "text")]

    def __init__(self, *args):
        super().__init__(*args)
        # Every run has each over-cap input: `bracket 1000000` peaks at more
        # than twice the memory of any other command.
        self.over_cap = itertools.cycle(_OVER_CAP)

    def make(self, slot):
        cmd, fmt = slot
        rng = self.rng
        op = {"kind": cmd, "fmt": fmt, "code": 0, "error": None}
        if cmd == "malformed":
            argv, op["code"], op["error"] = rng.choice(_MALFORMED)
        elif cmd == "overcap":
            argv, op["code"], op["error"] = next(self.over_cap)
        elif cmd == "longcf":
            op["tree"] = ref.cf_expr(rng, rng.randint(120, 220))
            argv = ["components", ref.render(op["tree"])]
            op["kind"] = "components"
        elif cmd in ("fraction", "cf"):
            p, q = ref.big_fraction(rng, rng.randint(2, 6))
            op["pq"] = (p, q)
            argv = [cmd, f"{p}/{q}"]
        elif cmd == "cfval":
            op["entries"] = [rng.randint(1, 9) for _ in range(rng.randint(2, 8))]
            argv = [cmd, ",".join(map(str, op["entries"]))]
        elif cmd == "enumerate":
            op["n"] = 9  # fixed sizes keep items_per_s comparable across seeds
            argv = [cmd, str(op["n"])]
        else:
            n = {"bracket": rng.randint(3, 8), "cube": 5}.get(cmd, rng.randint(3, 12))
            op["tree"] = ref.crossing_expr(rng, n)
            argv = ["components", ref.render(op["tree"]), "--verify"] if cmd == "verify" else [cmd, ref.render(op["tree"])]
        if fmt == "json":
            argv = argv + ["--format", "json"]
        op["argv"] = argv
        return op

    def run(self, t, op):
        with t.span("cli.process"):
            proc = self.spawn(["-m", "knotalg", *op["argv"]])
        if proc.returncode not in (0, 2, 3) or "Traceback" in proc.stderr:
            layer, kind = traceback_layer(proc.stderr)
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise CommandFailed(layer, kind, f"exit {proc.returncode}: {last[0]}")
        return proc

    def run_in_process(self, t, op):
        """cli.run on the same argv, outside the timed region (traced run only)."""
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                t.call("cli.run", self.lib.cli.run, op["argv"])
            except SystemExit:
                pass

    def check(self, op, proc):
        if op["kind"] == "probe":
            return None  # any defined outcome will do
        if proc.returncode != op["code"]:
            return f"exit {proc.returncode}, expected {op['code']}"
        if op["code"]:
            if op["error"] is None:
                return None
            try:
                kind = json.loads(proc.stderr)["error"]["kind"]
            except (ValueError, KeyError, TypeError):
                return "error payload is not JSON"
            return None if kind == op["error"] else f"error kind {kind}, expected {op['error']}"
        structured = op["fmt"] == "json" or op["kind"] == "cube"  # cube always prints JSON
        got = json.loads(proc.stdout) if structured else proc.stdout.rstrip("\n")
        want = self.expected(op)
        return None if got == want else f"{op['argv'][0]} output disagrees with the library"

    def expected(self, op):
        """The output the library route gives, shaped as the CLI prints it."""
        L = self.lib
        kind, js = op["kind"], op["fmt"] == "json"
        if kind in ("fraction", "cf"):
            f = L.rational.Frac(*op["pq"])
            if kind == "cf":
                terms = L.rational.cf_of_fraction(f)
                return terms if js else ",".join(map(str, terms))
            parity = L.rational.classify_fraction(f)
            if js:
                return {"fraction": str(f), "class": parity.value, "kind": parity.kind,
                        "components": parity.components}
            return f"{parity.kind} ({parity.value})"
        if kind == "cfval":
            return str(L.rational.cf_value(op["entries"]))
        if kind == "enumerate":
            table = L.enumeration.rational_table(op["n"])
            if len(table) != ref.count_reversal_classes(op["n"]):
                return None
            return L.enumeration.table_json(table) if js else L.enumeration.table_text(table)
        e = L.expr.parse(op["argv"][1])
        tree = op["tree"]
        if kind in ("components", "verify"):
            count = ref.components(tree)
            if js:
                data = {"expr": L.expr.to_text(e), "components": count}
                if kind == "verify":
                    data["verified"] = True
                return data
            return f"{count}  (verified)" if kind == "verify" else str(count)
        if kind == "eval":
            tr = L.algebra.trace(e)
            comps = L.algebra.closure_count(tr.value)
            if comps != ref.components(tree):
                return None
            annotated = L.algebra.annotated_text(e)
            if js:
                return {"class": tr.value.cls.value, "loops": tr.value.loops, "components": comps,
                        "marks": list(tr.marks), "final": tr.final, "annotated": annotated}
            return (f"class: {tr.value.cls.value}\nloops: {tr.value.loops}\n"
                    f"components: {comps}\ntrace: {annotated}")
        if kind == "bracket":
            poly = L.bracket.bracket(e)
            if poly.terms != ref.specialize(ref.raw_bracket_terms(tree)):
                return None
            return [list(p) for p in poly.to_pairs()] if js else str(poly)
        if kind == "opacity":
            report = L.algebra.opacity(e)
            rows = [(i, L.expr.to_text(leaf), "opaque" if o else "transparent")
                    for (i, leaf), o in zip(L.expr.leaves(e), report.opaque)]
            if js:
                return {"components": report.components,
                        "leaves": [{"index": i, "leaf": s, "status": st} for i, s, st in rows]}
            return "\n".join([f"components: {report.components}"]
                             + [f"{i:>3}  {s:<6} {st}" for i, s, st in rows])
        if kind == "cube":
            return L.tensor.build_cube(e).to_json_dict()
        value = L.graph.closure_nullity(e)
        if value != ref.components(tree):
            return None
        return {"nullity": value} if js else str(value)

    def items(self, op, proc):
        if op["code"] or op["kind"] not in ("enumerate", "cube"):
            return 0
        if op["kind"] == "cube":
            return len(json.loads(proc.stdout)["vertices"])
        return ref.count_reversal_classes(op["n"])

    def count(self, ctr, op, proc):
        pass

    def probes(self):
        rng = random.Random(self.rng.random())
        argvs = [
            ["components", ref.render(ref.cf_expr(rng, 320)), "--format", "json"],
            ["components", ref.render(ref.cf_expr(rng, 600))],
            ["eval", ref.render(ref.nest(rng, 600))],
            ["nullity", ref.render(ref.cf_expr(rng, 400))],
            ["opacity", ref.render(ref.nest(rng, 360))],
            ["bracket", ref.render(ref.nest(rng, 700))],
        ]
        return [{"kind": "probe", "fmt": "text", "argv": a, "code": None, "error": None,
                 "label": f"{a[0]} {len(a[1])} chars"} for a in argvs]


WORKLOADS = {w.name: w for w in (StateSum, BigDiagram, RationalTable, Cli)}
