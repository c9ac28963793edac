"""Census of crowded permutations and the minimal ones, degree by degree.

Crowded permutations form an upward-closed set in the fully commutative
poset, so the minimal ones determine the whole crowded/uncrowded split.
This script counts both up to degree 16 with no walk over S_n: the
crowded count sums over the possible second rows of the insertion tableau
(``crowding_census``), and the minimal ones are built block by block.  It
then spells out the five-condition test on each minimal element of S_8.

Run:  python3 demos/minimal_crowded_census.py
"""

from fcperm import classify, crowding_census, is_minimal_crowded_direct, minimal_crowded

for n in range(3, 17):
    label = f"S_{n}:"
    uncrowded, crowded = crowding_census(n, bound=16)
    print(
        f"{label:5} {len(minimal_crowded(n)):3} minimal crowded, {crowded:10,} crowded,"
        f" {uncrowded + crowded:10,} fully commutative"
    )

print("\nthe minimal crowded elements of S_8, with their condition reports:")
for w in minimal_crowded(8):
    report = is_minimal_crowded_direct(w)
    flags = report.to_json_dict()["conditions"]
    row2 = list(classify(w).row2)
    print(f"  {w.to_text(compact=True)}  row2 = {row2}  {flags}")
