"""Graph-theoretic structure of truncated mod-2 dual Steenrod algebras."""

from .algebra import (
    UNTRUNCATED,
    Level,
    Monomial,
    ParseError,
    Polynomial,
    alpha,
    enumerate_monomials,
    monomial_count,
    monomial_from_index,
    monomial_product,
    parse_monomial,
    random_monomials,
    truncate_monomial,
    truncate_polynomial,
)

__all__ = [
    "UNTRUNCATED",
    "Level",
    "Monomial",
    "ParseError",
    "Polynomial",
    "alpha",
    "enumerate_monomials",
    "monomial_count",
    "monomial_from_index",
    "monomial_product",
    "parse_monomial",
    "random_monomials",
    "truncate_monomial",
    "truncate_polynomial",
]

__version__ = "0.1.0"
