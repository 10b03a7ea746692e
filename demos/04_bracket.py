"""Bracket polynomials folded over the expression in the tangle basis.

Each crossing resolves into a horizontal (E) or vertical (V) smoothing
with label A or B.  Instead of visiting all 2^n states, the state sum of
every subtangle is kept as f.[E] + g.[V], with f and g polynomials in A,
B and the loop value d: a crossing O is (A, B), tangle addition gives
(f1 f2, f1 g2 + g1 f2 + d g1 g2), <...> swaps f and g, and the closure
is d^2 f + d g.  That is the raw three-variable sum; B = 1/A and
d = -A^2 - A^(-2) then give the bracket polynomial itself.
`knotalg bracket --verify` checks it against the explicit enumeration
of states.
"""

from knotalg import bracket, mirror, parse, raw_bracket, to_text

for name, text in [
    ("unknot with a curl", "O"),
    ("Hopf link        ", "O O"),
    ("trefoil          ", "O O O"),
    ("figure eight     ", "<O O> U U"),
]:
    e = parse(text)
    print(f"{name}  {text}")
    print("   raw bracket :", raw_bracket(e))
    print("   bracket     :", bracket(e))
print()

# Mirroring a diagram swaps O and U everywhere and inverts A in the
# bracket.  The figure eight is its own mirror image, so its polynomial
# is palindromic.
fig8 = parse("<O O> U U")
print("mirror of the figure eight:", to_text(mirror(fig8)))
print("bracket of the mirror     :", bracket(mirror(fig8)))
print("inverted original         :", bracket(fig8).inverted())
