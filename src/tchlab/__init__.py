"""Cavity-network quantum dynamics: coupled atom-cavity lattices, a timed
two-qubit conditional-sign gate on photonic qubits, single-photon walks that
emulate a free massive particle, and optical selection of dark atomic
states.  Each name is imported from the module that defines it."""

__version__ = "0.1.0"
