"""How insertion tableaux evolve going up the right weak order.

Along a cover v -> v*s_i between fully commutative permutations, the second
row of the insertion tableau can only gain entries.  Usually it gains
nothing; when it does grow while the support stays the same, the result is
always crowded, and the full witness data for that step can be extracted.

Run:  python3 demos/tableau_growth_along_covers.py
"""

from fcperm import Permutation, analyze_transition, classify, rsk

core = Permutation.from_text("41263785")
v = Permutation.from_text("41623785")
w = Permutation.from_text("41627385")

print("a chain core < v < w in the right weak order:")
for name, u in (("core", core), ("v", v), ("w", w)):
    p = rsk(u).p
    verdict = "uncrowded" if classify(u) is None else "crowded"
    print(f"  {name:5} {u.to_text(compact=True)}   P = {p.to_text():18} {verdict}")

print("\nP stays equal from core to v, then changes at the step v -> w = v*s_5.")
report = analyze_transition(v, 5)
print(f"prefix max / suffix min around the swap: {report.prefix_max}, {report.suffix_min}")
print(f"they straddle the swapped pair as a 3142 occurrence at positions {report.pattern_3142}")
print(f"value moved into row 2: {report.moved_value}")
print(f"window {list(report.interval)} now holds "
      f"{report.chain_length + 3} second-row entries, one too many")
print(f"witness window reported by classify: {list(classify(w).window)}")
