"""Numerical information geometry for regular exponential families.

Finite-support measures with exact push-forward and convolution, exponential
families with three independent Fisher-information routes, derived IID /
natural-exponential families, and a machine-checkable suite for the
invariance properties that single out the Fisher metric up to scale.
"""

__version__ = "0.1.0"
