"""Balanced words as optimizers, checked by brute force.

The package generates mechanical (Sturmian) words and verifies, testbed by
testbed, that they optimize five unrelated objectives: cyclic binary
products, the convex order on doubling-map orbit measures, admission-control
queue costs, max-plus heap growth rates, and spectral radii of matrix
products, plus the energy of electrons on a ring.  Every claim is backed by
an exhaustive or high-precision check at desk scale; ``sturmlab verify-all``
runs the whole battery.
"""

__version__ = "0.1.0"
