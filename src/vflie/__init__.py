"""Exact-arithmetic toolkit for graded Lie algebras of polynomial vector
fields, their tensor modules, spanning certificates, Hilbert series, and
Chevalley-Eilenberg homology.

Everything is computed over Q with no floating point: rationals are
fractions.Fraction at the edges, and elimination, determinants and series
run on integers.  Each name lives in its own module and is imported from
there (``from vflie.exact import Echelon``); this package namespace
re-exports nothing.
"""

__version__ = "0.1.0"
