"""Finite-field distance-set and Salem-set verification toolkit.

The package re-exports the field and point-set types; everything else is
imported from its module (`fqsalem.energy`, `fqsalem.ranges`, ...).
"""

from .field import FieldSpec, field_create
from .geometry import HyperplaneMultiset, PointSet

__version__ = "0.1.0"
