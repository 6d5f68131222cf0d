"""Exact divisor-sum arithmetic and perfect-polynomial search over GF(2)."""

from .gf2poly import NEG_INFINITY, ONE, X, XP1, ZERO, BudgetError, Poly, gcd, parse
from ._intmath import euler_phi
from .factor import Factorization, count_irreducibles, factorize, is_irreducible, is_primitive, is_squarefree
from .divisors import PerfectionReport, check, exact_power, sigma, sigma_star
from .mersenne import Catalog, MersennePrime, catalog, enumerate_mersenne_primes, in_delta, is_mersenne_prime, mersenne_poly, ord2, parse_named

__version__ = "0.1.0"
