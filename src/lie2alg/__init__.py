"""Lie 2-algebras by structure constants.

Finite-dimensional semistrict Lie 2-algebras over the rationals:
axiom validation, derivation Lie 2-algebras, automorphism 2-groups,
and the exponential maps connecting them.  All algebraic identities
are checked with exact rational arithmetic; truncated floating-point
series are used only for non-terminating exponentials.

The public API is stated once, in the modules, each documented by its
docstring: `linalg`, `core`, `derivations`, `automorphisms`,
`integration`, `fileio`, `fixtures` and `cli`.  Names are imported from
their module (`from lie2alg.core import validate_lie2`); importing the
package loads the first five.
"""

from . import automorphisms, core, derivations, integration, linalg
