"""knotalg: a crossing-algebra toolkit for arborescent knots and links.

Expressions over crossings, integral twists, mirror rotation and tangle
addition are evaluated to connectivity classes with loop counters, giving
component counts, rational knot/link classification and enumeration,
bracket state sums, state cubes with merge/split edges, and checkerboard
mod-2 Laplacian nullity, all cross-checkable against an independent
strand-tracing oracle.

The public names below resolve on first use: `knotalg.parse` imports
`knotalg.expr` and what it needs, not the whole package, so a program
(the CLI above all) pays start-up only for the modules it runs.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "ConnClass", "ConnValue", "EvalTrace", "OpacityReport", "annotated_text",
        "closure_components", "closure_count", "cross", "eval_conn", "eval_smoothed",
        "mul", "opacity", "trace",
    ),
    "bracket": (
        "LaurentPoly", "RawBracket", "bracket", "crossing_count", "expand_crossings",
        "raw_bracket",
    ),
    "enumeration": ("TableEntry", "canonical", "compositions_with_big_ends", "rational_table"),
    "errors": ("CapacityError", "ConsistencyError", "ExprSyntaxError"),
    "expr": (
        "Concat", "Cross", "CrossingNeg", "CrossingPos", "Expr", "IntTangle", "concat",
        "continued_fraction", "leaves", "mirror", "parse", "pretzel", "replace_leaf",
        "to_text",
    ),
    "graph": (
        "GF2Matrix", "PlaneGraph", "closure_nullity", "conductance", "dualize",
        "mod2_laplacian", "nullity_gf2", "sp_network", "to_multigraph",
    ),
    "oracle": ("Diagram", "build_diagram", "trace_components", "trace_state_loops"),
    "rational": (
        "Frac", "INF", "ParityClass", "cf_of_fraction", "cf_value", "classify_fraction",
        "parse_fraction", "schubert_equivalent",
    ),
    "tensor": (
        "DeltaTerm", "LoopStructure", "StateCube", "build_cube", "classify_site_by_toggle",
        "contract", "crossing_tensor", "smoothing_tensor", "state_structure",
    ),
}

#: Public name -> the submodule that defines it.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        # Not a public name: `from knotalg import cli` then imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it as a package attribute. `bracket` is
        # both a submodule and a public function, and the function must win
        # whichever was loaded first. The module stays reachable through
        # `from knotalg.bracket import ...` and importlib.import_module.
        if name == "bracket" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
