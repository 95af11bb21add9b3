"""Sparse linear combinations, the core under every term container.

A ``LinComb`` is a finite sum  sum_k c_k [k]  stored as the dict ``terms``
from key to coefficient, with no zero coefficient.  What a key means (a word
of modes, a state monomial, a power pair, a block payload) is up to the
subclass, which also adds the data its sums share (``base``): two sums are
equal when their bases and their terms are.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Optional


def accumulate(acc: Dict, terms: Dict, factor=1) -> None:
    """acc += factor * terms, in place.  Keys whose sum is zero stay in acc;
    the constructor of the sum built from it drops them."""
    get = acc.get
    for key, c in terms.items():
        acc[key] = get(key, 0) + factor * c


class LinComb:
    """Finite linear combination of hashable keys."""

    __slots__ = ("terms",)

    # exact containers cast the factor of scale() to Fraction
    exact = False

    def __init__(self, terms: Optional[Dict] = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    def base(self) -> tuple:
        """The data that == compares besides the terms."""
        return ()

    def _like(self, terms: Dict) -> "LinComb":
        """A sum over the same base with the given terms."""
        return type(self)(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "LinComb", factor) -> "LinComb":
        assert self.base() == other.base(), "incompatible base"
        out = dict(self.terms)
        accumulate(out, other.terms, factor)
        return self._like(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, factor):
        f = Fraction(factor) if self.exact else factor
        return self._like({k: f * c for k, c in self.terms.items()})

    def map_keys(self, fn: Callable[[Hashable], Hashable]):
        """The sum with every key k replaced by fn(k); the coefficients of
        keys with the same image add."""
        out: Dict = {}
        for key, c in self.terms.items():
            image = fn(key)
            out[image] = out.get(image, 0) + c
        return self._like(out)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.base() == other.base() and self.terms == other.terms

    def __hash__(self):
        return hash((self.base(), frozenset(self.terms.items())))
