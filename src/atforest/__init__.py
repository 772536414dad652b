"""Forest-plus-orientation certificates for planar graphs.

Decomposes a near-triangulation into a spanning forest containing a
chosen boundary edge and an acyclic orientation of the rest with small
out-degrees, which bounds the Alon-Tarsi number of the remainder.  Also
ships the gadget constructions showing the bound is tight, exact
Alon-Tarsi computations for small graphs, list-coloring checks, seeded
generators, and a CLI tying it together.
"""
