"""The cube of smoothing states with merge/split edges.

Resolving each crossing both ways spans a hypercube of states.  Flipping
one A-smoothing to B either merges two loops or splits one, so every edge
of the cube carries a merge/split label; the delta-tensor engine also
reports, per state, which smoothing sites touch one loop and which touch
two.  The wiring between crossings is the same in every state, so the
cube contracts it once and per state only swaps in the n smoothing
pairings; state_structure contracts the full delta network for one state.
"""

import json

from knotalg import build_cube, classify_site_by_toggle, parse, state_structure

hopf = parse("O O")
cube = build_cube(hopf)
print("Hopf link state cube")
for bits, vertex in cube.vertices.items():
    kinds = ", ".join(f"site {s}: {k}" for s, k in sorted(vertex.structure.site_kinds().items()))
    print(f"  state {bits}: {vertex.loops} loops   ({kinds})")
for edge in cube.edges:
    print(f"  {edge.src} -> {edge.dst}  flip site {edge.site}: {edge.label}")
print()

# The same site classification falls out of a one-site toggle: replace the
# smoothing by a crossing pairing and watch whether the count moves.
print("toggle check on state AB:",
      [classify_site_by_toggle(hopf, "AB", site) for site in range(2)])
print()

# Loop structures list the sites each loop visits, in cyclic order.
structure = state_structure(parse("O O O"), "BAB")
print("trefoil state BAB:", structure.loop_count, "loops")
for loop in structure.loops:
    print("  loop through", loop if loop else "(no sites: a bare circle)")
print()

# Everything above serializes; this is the exchange format the CLI emits.
print(json.dumps(build_cube(parse("O")).to_json_dict(), indent=2))
