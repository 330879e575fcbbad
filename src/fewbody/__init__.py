"""Spectral laboratory for thresholds, resonances and spreading in 2- and 3-particle systems."""

__version__ = "0.1.0"
