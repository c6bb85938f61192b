"""Exact reference implementations the parity tests pin production code to.

Every synthesis stage in ``repro`` has one production path: the batched /
word-parallel implementation.  The slow, obviously-correct algorithms it
replaced live here, outside the package, and serve only as test oracles --
a fast surrogate is trusted only while it reproduces the exact solve
bit for bit.

* :mod:`tests.oracles.optimize` -- per-node ``balance`` / ``rewrite`` and the
  ``resyn2rs`` flow driven by them;
* :mod:`tests.oracles.cuts` -- pure-Python priority-cut enumeration;
* :mod:`tests.oracles.matcher` -- the exhaustive permutation/phase matcher,
  the scalar support-projected match and an adapter that routes the mapper
  through it;
* :mod:`tests.oracles.mapper` -- the scalar mapping DP and the
  bit-at-a-time netlist verifier;
* :mod:`tests.oracles.activity` -- one-assignment-at-a-time signal
  probabilities;
* :mod:`tests.oracles.npn` -- brute-force NPN canonicalization.
"""
