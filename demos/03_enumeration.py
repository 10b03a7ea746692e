"""Enumerating all rational knots and links with a given crossing number.

Rational links with n crossings are compositions of n with both end parts
at least 2, identified with their reversals.  rational_table walks them
once, depth first, and keeps only each class's lex-least member; along
the way it carries the continued fraction's convergents and the
connectivity map of the prefix, so the algebra splits each table into
knots and links with no diagram drawing at all, and the parity of P/Q
confirms every split.
"""

from knotalg import compositions_with_big_ends, rational_table
from knotalg.enumeration import table_text

for n in range(2, 9):
    entries = rational_table(n)
    knots = sum(1 for e in entries if e.kind == "knot")
    links = len(entries) - knots
    raw = sum(1 for _ in compositions_with_big_ends(n))
    print(f"n = {n}: {raw:>3} compositions, {len(entries):>3} reversal classes "
          f"-> {knots} knots + {links} links")
print()

print("the full table for n = 7:")
print(table_text(rational_table(7)))
