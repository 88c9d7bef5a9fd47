"""Exact stationary measures of the inhomogeneous TASEP on a ring.

Three independent routes to the same stationary probabilities:

* `chain` — exact solves of the Markov chain by one kernel per ring:
  Bareiss elimination over the integers at a point, expansion by minors
  over Z[x, y] for small rings;
* `formulas` — closed product formulas in Schubert polynomials for the
  pattern-avoiding states;
* `mlq` — multiline-queue weight sums at y = 0.

Supporting machinery lives in `perms`, `poly` and `schubert`; the CLI in
`ringtasep.cli`.  Importing the package loads no submodule; import the
ones you use, e.g. `from ringtasep import chain`.
"""

__all__ = ["chain", "formulas", "mlq", "perms", "poly", "schubert"]
__version__ = "0.1.0"
