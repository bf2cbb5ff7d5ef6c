"""Exact-arithmetic H^1 of logarithmic differential operators on blown-up P^1.

The package computes, over Z with no floating point in any result, the first
cohomology of the pushforward sheaves of (level-m) logarithmic differential
operators on the blow-up of the projective line over Z_p at its p+1 rational
special-fiber points: per-degree finite p-groups, their direct-sum table rows,
independent splitting verification, constructive lifts behind the splitting,
exponent/order bookkeeping identities, and level-lowering valuation
diagnostics.  The Python API is the modules (logdop.engine, logdop.lifting,
...); the package itself binds no names.
"""
