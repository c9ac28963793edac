"""Census of crowded permutations and the minimal ones, degree by degree.

Crowded permutations form an upward-closed set in the fully commutative
poset, so the minimal ones determine the whole crowded/uncrowded split.
This script counts both, builds the minimal ones block by block up to
degree 16 (no walk over S_n), and spells out the five-condition test on
each minimal element of S_8.

Run:  python3 demos/minimal_crowded_census.py
"""

from fcperm import classify, fc_elements, is_minimal_crowded_direct, minimal_crowded

for n in range(3, 17):
    label = f"S_{n}:"
    line = f"{label:5} {len(minimal_crowded(n)):3} minimal crowded"
    if n <= 8:
        elements = fc_elements(n)
        crowded = [w for w in elements if classify(w).crowded]
        line += f", {len(crowded):4} crowded, {len(elements):5} fully commutative"
    print(line)

print("\nthe minimal crowded elements of S_8, with their condition reports:")
for w in minimal_crowded(8):
    report = is_minimal_crowded_direct(w)
    flags = report.to_json_dict()["conditions"]
    row2 = list(classify(w).row2)
    print(f"  {w.to_text(compact=True)}  row2 = {row2}  {flags}")
