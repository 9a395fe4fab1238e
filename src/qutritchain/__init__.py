"""Thermal entanglement, separability thresholds, and dense-coding capacity
for a pair of spin-1 sites with bilinear-biquadratic exchange in a
site-dependent magnetic field, plus a spin-1/2 XY pair used as a cross-check.
"""
