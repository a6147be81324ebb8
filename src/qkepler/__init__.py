"""Exact spectra, degeneracies and radial wavefunctions for the twisted
quaternionic Kepler models, with numerical cross-checks of the defining
identities.

The package holds no names of its own: import a submodule by name
(``from qkepler import radial``).  ``import qkepler`` loads no submodule
and no numpy.  numpy loads only when an array route runs: the
eigensolvers, and ``geom`` and ``qlinalg``, which work on float arrays;
``import qkepler.radial`` does not load it.
"""

__version__ = "0.1.0"
