"""Exact arithmetic for the rational cuspidal divisor class group C(N) of X0(N).

Subpackages:
  intarith    -- factorizations, divisor lattice, kappa, exponent-tuple index sets
  cusps       -- canonical cusp representatives and widths
  divisors    -- the lattices S1(N)/S2(N), tensor structure, degeneracy pullbacks
  etalinalg   -- the matrices Lambda(N)/Upsilon(N), Ligozat checks, eta q-expansions
  orderengine -- order algorithm and eta certificates
  generators  -- canonical generator constructions Z/Y and their predicted orders
  oracle      -- the SNF lattice oracle, independent of the generators
  structure   -- group assembly, certificate verification, crosscheck
  cli         -- command-line front end
"""

__version__ = "0.1.0"
