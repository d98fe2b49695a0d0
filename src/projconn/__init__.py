"""Exact symbolic tensor calculus for torsionfree holomorphic affine
connections: curvature, Ricci and trace curvatures, the Weyl projective
tensor for n >= 3, projective equivalence with explicit witnesses, volume
normalization, flatness classification of parametric families, and a numeric
geodesic cross-check.  All symbolic arithmetic is exact over Q(i)."""

__version__ = "0.1.0"
