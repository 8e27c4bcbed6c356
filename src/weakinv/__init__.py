"""Numerics for Lindblad dynamics, weak invariants, and the discrete
auxiliary-operator action principle on small dense Hilbert spaces."""

__version__ = "0.1.0"
