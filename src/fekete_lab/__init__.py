"""Numerical laboratory for componentwise subadditive functions.

The library turns three families of statements into checkable
computations:

* subadditivity (joint, per-axis, mixed-term, set-union) is refuted by
  deterministic sampling with shrunken witnesses;
* directed limits of f(x)/prod(x) on the main orthant are bracketed
  from above, certified when per-axis subadditivity is trusted, with
  simultaneous, iterated, diagonal, and ray variants;
* level-set measures and subshift pattern counts supply the
  supporting inequalities with exact or error-bounded arithmetic.

Each public name is imported from the module that defines it and lists
it in its `__all__`: points, schedules and errors from `domain`,
oracles from `registry`, the sample budget from `sampling`, the checks
from `checks`, the limit estimators from `limits`, the level-set lemma
from `levelset` and pattern counts from `subshift`.  Importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
