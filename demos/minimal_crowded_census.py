"""Census of crowded permutations and the minimal ones, degree by degree.

Crowded permutations form an upward-closed set in the fully commutative
poset, so the minimal ones determine the whole crowded/uncrowded split.
This script counts both up to degree 16 with no walk over S_n: the
uncrowded count sums over the possible second rows of the insertion
tableau, the crowded count is the rest of the Catalan number
(``crowding_census``), and the minimal ones are built block by block.  It
then spells out the five-condition test on each minimal element of S_8.

Run:  python3 demos/minimal_crowded_census.py
"""

from fcperm import crowding_census, is_minimal_crowded_direct, minimal_crowded, row2

CONDITIONS = (
    "descent_form", "descent_values_crowded", "fixed_outside", "pattern_consecutive",
    "window_patterns",
)

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
    flags = {key: getattr(report, key) for key in CONDITIONS}
    print(f"  {w.to_text(compact=True)}  row2 = {list(row2(w))}  {flags}")
