"""Exact-arithmetic toolkit for sheaf-counting numerics on elliptic
Weierstrass Calabi-Yau threefolds over Fano surfaces.

Everything is computed over the rationals: lattice intersection theory on
the base and the threefold, slope/Gieseker comparisons for vertical torsion
sheaves, the relative Fourier-Mukai transform on numerical invariants,
stability thresholds and wall bounds for elliptic K3 pencils, and the
modular generating series packaging the counting invariants.

The package namespace holds only ``__version__``; callers import from the
submodules (``ellfm.cli``, ``ellfm.stability``, ``ellfm.modular``, ...).
"""

__version__ = "0.1.0"
