"""Emit Graphviz pictures: one heap diagram and one classified poset.

Writes heap.dot and fc_poset_6.dot to the current directory; render with
``dot -Tpng heap.dot -o heap.png`` if Graphviz is installed.

Run:  python3 demos/heap_and_poset_pictures.py
"""

from pathlib import Path

from fcperm import Permutation, heap_of, poset_to_dot

w = Permutation.from_text("345619278")
heap_dot = heap_of(w).to_dot()
Path("heap.dot").write_text(heap_dot + "\n")
print(f"wrote heap.dot ({heap_dot.count('->')} cover edges for {w.to_text(compact=True)})")

poset_dot = poset_to_dot(6)
Path("fc_poset_6.dot").write_text(poset_dot + "\n")
print(
    f"wrote fc_poset_6.dot ({poset_dot.count('fillcolor=')} nodes, {poset_dot.count('->')} edges; "
    "crowded nodes filled, minimal crowded outlined)"
)
