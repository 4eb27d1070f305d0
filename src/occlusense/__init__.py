"""Occupancy mapping of occluded space from observed driver behavior.

The package infers what hidden parts of a scene contain by watching how
visible traffic behaves: a braking lead vehicle is evidence about the
crosswalk it is braking for.  Two inference heads share the machinery —
a cell-wise occupancy grid fused from scan data and learned
behavior-conditioned likelihoods, and a landmark posterior over a set of
candidate pedestrian positions.

The modules are the API; the package root holds only the version.
"""

__version__ = "0.1.0"
