"""Computational group theory for torus knot groups, J-groups, toric
reflection groups, and rank-3 Coxeter groups.

Subpackages by capability:

- :mod:`toricgroups.words` -- free-group words, generator maps, derivations
- :mod:`toricgroups.presentations` -- presentation families, their text form, Tietze moves
- :mod:`toricgroups.cosets` -- Todd-Coxeter coset enumeration and Cayley tables
- :mod:`toricgroups.schreier` -- Reidemeister-Schreier subgroup presentations
- :mod:`toricgroups.coxeter` -- minimal-root word problem for Coxeter systems
- :mod:`toricgroups.maps` -- the homomorphisms tying the families together
- :mod:`toricgroups.cyclo` / :mod:`toricgroups.reps` -- exact cyclotomic
  numbers and the rank-two pseudo-reflection representation
- :mod:`toricgroups.garside` -- Garside normal forms for torus knot groups
- :mod:`toricgroups.classify` -- the finite toric table and classification records
- :mod:`toricgroups.cli` -- command line front end
"""

__version__ = "0.1.0"
