"""charrig: exact-arithmetic differential characters on finite simplicial
complexes.

The library computes integral, rational and Q/Z cohomology by Smith normal
form, realizes differential cohomology both as differential cocycle classes
and as characters on cycles, verifies the equivalence of the two models,
the product structure, and the supporting cycle-surgery constructions, all
in exact rational arithmetic.
"""

__version__ = "0.1.0"
