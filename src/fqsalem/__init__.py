"""Finite-field distance-set and Salem-set verification toolkit."""

from .field import FieldSpec, field_create
from .geometry import (HyperplaneMultiset, PointSet, dot, lift_to_paraboloid, norm,
                       paraboloid, read_pointset, sphere, write_pointset)
from .energy import energy_bruteforce, energy_convolution, salem_parameter
from .spectral import energy_identity_residual
from .distance import DistanceProfile, cs_lower_bound, distance_profile, second_moment
from .incidence import (count_incidences, dilate_hyperplanes, difference_family,
                        incidence_bounds, sphere_incidence_setup)
from .constructions import (bernoulli_thin, conjecture_witness,
                            isotropic_subspace, product_set, rotation_orbit,
                            subgroup_power, two_set_sharpness)
from .ranges import (conjectured_alpha, family_thresholds,
                     crossover_identities, energy_threshold, salem_s_ranges,
                     sphere_threshold, improved_threshold)

__version__ = "0.1.0"
