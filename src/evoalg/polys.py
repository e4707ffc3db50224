"""Sparse multivariate polynomials with complex coefficients.

Monomials are exponent tuples over a fixed variable list.  Just enough
arithmetic for deriving and normalizing the Rota-Baxter polynomial systems;
no division, no symbolic solving.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Poly:
    """Map from exponent tuples to complex coefficients over `variables`."""

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def from_dict(variables, d) -> "Poly":
        items = tuple(sorted((m, complex(c)) for m, c in d.items() if c != 0))
        return Poly(tuple(variables), items)

    @staticmethod
    def const(variables, c) -> "Poly":
        if c == 0:
            return Poly(tuple(variables), ())
        return Poly.from_dict(variables, {(0,) * len(variables): complex(c)})

    @staticmethod
    def var(variables, name) -> "Poly":
        variables = tuple(variables)
        mono = tuple(1 if v == name else 0 for v in variables)
        if sum(mono) != 1:
            raise KeyError(f"unknown variable {name!r}")
        return Poly.from_dict(variables, {mono: 1.0})

    def _dict(self):
        return dict(self.terms)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        d = self._dict()
        for m, c in other.terms:
            d[m] = d.get(m, 0j) + c
        return Poly.from_dict(self.variables, d)

    def __neg__(self) -> "Poly":
        return Poly(self.variables, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        d: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                d[m] = d.get(m, 0j) + c1 * c2
        return Poly.from_dict(self.variables, d)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, e) -> "Poly":
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = Poly.const(self.variables, 1)
        for _ in range(e):
            out = out * self
        return out

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise ValueError("variable lists differ")
            return other
        return Poly.const(self.variables, other)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for _, c in self.terms)

    def sign_normalized(self, tol: float = 0.0) -> "Poly":
        """Flip the overall sign so the leading (lowest exponent-tuple)
        coefficient has (re, im) lexicographically positive.  Zero terms below
        tol are dropped first."""
        terms = tuple((m, c) for m, c in self.terms if abs(c) > tol)
        if not terms:
            return Poly(self.variables, ())
        lead = terms[0][1]
        if (lead.real, lead.imag) < (0.0, 0.0):
            terms = tuple((m, -c) for m, c in terms)
        return Poly(self.variables, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = []
            for name, e in zip(self.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = _fmt_coeff(coeff, bare=not factors)
            if cs:
                factors.insert(0, cs)
            parts.append("*".join(factors))
        return " + ".join(parts)


def _fmt_coeff(c: complex, bare: bool) -> str:
    def fmt_real(x: float) -> str:
        return repr(int(x)) if x == int(x) else repr(x)

    if c.imag == 0:
        if c.real == 1 and not bare:
            return ""
        return fmt_real(c.real)
    if c.real == 0:
        if c.imag == 1:
            return "i"
        return f"{fmt_real(c.imag)}*i"
    sign = "+" if c.imag > 0 else "-"
    return f"({fmt_real(c.real)}{sign}{fmt_real(abs(c.imag))}*i)"

