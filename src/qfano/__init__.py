"""Exact numerics for Q-Fano threefold hypersurface classification.

Submodules:

* ``series``       truncated integer power series and their product expansion
* ``wps``          weighted projective spaces and quasi-smooth hypersurfaces
* ``report``       the record ``wps.analyze`` returns, loaded by its first call
* ``riemann_roch`` orbifold Riemann-Roch, its convention checked by a series
* ``sarkisov``     Sarkisov-link Diophantine case analysis and transcripts
* ``normal_form``  weighted polynomial algebra and the degree-12 normal form
* ``fixtures``     the embedded shape corpus with expected invariants
* ``cli``          the ``qfano`` command-line front end
"""

__version__ = "0.1.0"

# checked named tuples' _make, and so _replace, builds through the class: a new field is checked
_checked_make = classmethod(lambda cls, fields: cls(*fields))
