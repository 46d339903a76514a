"""Finite orbits of the extended modular group acting on SL2 trace coordinates.

Submodules:
  trig_field      exact arithmetic in the ring generated by 2cos(pi*q)
  sl2_monodromy   matrix-level action, trace invariants, reconstruction
  fricke_action   the induced action on C^3, equivalences, suborbits
  cosine_sums     rational vanishing sums of cosines
  orbit_search    dictionaries, generating configurations, exhaustive search
  orbit_graphs    3-colored orbit graphs and their statistics
  parameter_maps  theta parameters, Backlund transformations, the xi cubic
  cli             command-line front end
"""

__version__ = "0.1.0"
