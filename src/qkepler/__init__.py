"""Exact spectra, degeneracies and radial wavefunctions for the twisted
quaternionic Kepler models, with numerical cross-checks of the defining
identities.

The package holds no names of its own: import a submodule by name
(``from qkepler import radial``).  ``import qkepler`` loads no submodule
and no numpy, and no command loads numpy: every check and command is
exact or samples on Python floats.  The array routes that remain (the
float ``qmul``, ``qconj`` and ``QMatrix`` of ``qlinalg``, the
finite-difference routes of ``radial``, and ``quadrature``) serve the
tests and the benchmark and load numpy themselves.
"""

__version__ = "0.1.0"
