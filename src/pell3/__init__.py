"""Exact arithmetic for the three families of third-order Pell polynomials.

The families r, s, sigma all satisfy p_n = 2x*p_{n-1} + p_{n-3} and are
generated here three independent ways -- recurrence, closed-form binomial
sums, and Binet formulas evaluated in a quadratic extension field -- with
every cross-identity machine-verified in exact rational arithmetic.
"""

__version__ = "0.1.0"
