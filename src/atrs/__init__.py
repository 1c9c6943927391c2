"""Uncurrying applicative rewrite systems and measuring their complexity.

The package turns systems built from constants and a binary application
symbol into ordinary first-order systems, rewrites under full, innermost,
and rightmost-innermost strategies, tabulates derivation heights, and
checks or searches triangular matrix interpretations as complexity
certificates.  Bundled oracles re-verify the simulation properties the
transformation relies on, at small scale, by exhaustive search.

Names are imported from the modules that define them: terms, parsing,
rewriting, complexity, uncurrying, tmi, oracles, systems and cli.
"""
