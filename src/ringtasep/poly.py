"""Exact sparse polynomials in x_1..x_n, y_1..y_n with integer coefficients.

A polynomial is a dict mapping exponent tuples of length 2n (x block then
y block) to nonzero Python ints.  All arithmetic is exact; there is no
floating point anywhere in this module.  Evaluation returns Fractions.

Canonical term order is graded lex on the concatenated exponent vector,
descending, so that text serialization is unique and text equality is
polynomial equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Exponent = tuple  # length 2n, x block then y block


class Poly:
    """Element of Z[x_1..x_n, y_1..y_n], stored sparsely."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, int] | None = None):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        self.n = n
        clean: dict[Exponent, int] = {}
        if terms:
            width = 2 * n
            for exp, coef in terms.items():
                if len(exp) != width:
                    raise ValueError(f"exponent width {len(exp)} != {width}")
                if coef:
                    clean[tuple(exp)] = int(coef)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: int) -> "Poly":
        return cls(n, {(0,) * (2 * n): c} if c else {})

    @classmethod
    def x(cls, n: int, i: int, power: int = 1) -> "Poly":
        """The variable x_i (1-indexed), optionally raised to a power."""
        if not 1 <= i <= n:
            raise ValueError(f"x index {i} out of range for n={n}")
        exp = [0] * (2 * n)
        exp[i - 1] = power
        return cls(n, {tuple(exp): 1})

    @classmethod
    def y(cls, n: int, i: int, power: int = 1) -> "Poly":
        """The variable y_i (1-indexed), optionally raised to a power."""
        if not 1 <= i <= n:
            raise ValueError(f"y index {i} out of range for n={n}")
        exp = [0] * (2 * n)
        exp[n + i - 1] = power
        return cls(n, {tuple(exp): 1})

    @classmethod
    def monomial(cls, n: int, xexp: Iterable[int], yexp: Iterable[int] = (),
                 coef: int = 1) -> "Poly":
        xe = tuple(xexp)
        ye = tuple(yexp)
        xe += (0,) * (n - len(xe))
        ye += (0,) * (n - len(ye))
        if len(xe) != n or len(ye) != n:
            raise ValueError("exponent vector longer than n")
        return cls(n, {xe + ye: coef})

    # -- ring structure ----------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            c = out.get(exp, 0) + coef
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return Poly(self.n, out)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(exp, 0) + c1 * c2
                if c:
                    out[exp] = c
                else:
                    del out[exp]
        return Poly(self.n, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c: int) -> "Poly":
        return Poly(self.n, {e: c * co for e, co in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and self.n == other.n
                and self.terms == other.terms)

    __hash__ = None  # mutable payload; not hashable

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self.to_text()!r})"

    def __len__(self) -> int:
        return len(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """Shared total degree of all terms, or None if inhomogeneous."""
        if not self.terms:
            return None
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def coefficient(self, xexp: Iterable[int], yexp: Iterable[int] = ()) -> int:
        xe = tuple(xexp)
        ye = tuple(yexp)
        xe += (0,) * (self.n - len(xe))
        ye += (0,) * (self.n - len(ye))
        return self.terms.get(xe + ye, 0)

    # -- substitutions and operators ---------------------------------------

    def swap_x(self, i: int) -> "Poly":
        """Exchange x_i and x_{i+1} (1-indexed)."""
        if not 1 <= i < self.n:
            raise ValueError(f"swap index {i} out of range")
        a, b = i - 1, i
        out: dict[Exponent, int] = {}
        for exp, coef in self.terms.items():
            e = list(exp)
            e[a], e[b] = e[b], e[a]
            out[tuple(e)] = coef
        return Poly(self.n, out)

    def divided_difference(self, i: int) -> "Poly":
        """Apply (P - s_i P) / (x_i - x_{i+1}), acting on the x variables.

        Computed term by term via
        (u^a v^b - u^b v^a)/(u - v) = sign * sum of u^s v^t over s+t = a+b-1
        with min(a,b) <= s,t < max(a,b), so no division machinery is needed
        and exactness holds by construction.
        """
        if not 1 <= i < self.n:
            raise ValueError(f"divided difference index {i} out of range")
        ia, ib = i - 1, i
        out: dict[Exponent, int] = {}
        for exp, coef in self.terms.items():
            a, b = exp[ia], exp[ib]
            if a == b:
                continue
            lo, hi = (b, a) if a > b else (a, b)
            c = coef if a > b else -coef
            e = list(exp)
            for s in range(lo, hi):
                e[ia] = s
                e[ib] = a + b - 1 - s
                key = tuple(e)
                nc = out.get(key, 0) + c
                if nc:
                    out[key] = nc
                else:
                    del out[key]
        return Poly(self.n, out)

    def substitute_y_zero(self) -> "Poly":
        """Set every y variable to 0."""
        n = self.n
        return Poly(n, {e: c for e, c in self.terms.items() if not any(e[n:])})

    def evaluate(self, xvals, yvals) -> Fraction:
        xvals = list(xvals)
        yvals = list(yvals)
        if len(xvals) != self.n or len(yvals) != self.n:
            raise ValueError("evaluation point length mismatch")
        vals = [Fraction(v) for v in xvals + yvals]
        total = Fraction(0)
        for exp, coef in self.terms.items():
            term = Fraction(coef)
            for v, e in zip(vals, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def embed(self, m: int) -> "Poly":
        """Reinterpret in the larger ring with m >= n variable pairs."""
        if m < self.n:
            raise ValueError("cannot embed into a smaller ring")
        if m == self.n:
            return self
        n = self.n
        pad = (0,) * (m - n)
        out = {exp[:n] + pad + exp[n:] + pad: c for exp, c in self.terms.items()}
        return Poly(m, out)

    def monomial_content(self) -> tuple[Exponent, "Poly"]:
        """Largest monomial dividing every term, and the cofactor.

        Returns (m, q) with self = x^y^m * q and q of unit monomial content.
        """
        if not self.terms:
            raise ValueError("zero polynomial has no monomial content")
        exps = iter(self.terms)
        content = list(next(exps))
        for exp in exps:
            for k, e in enumerate(exp):
                if e < content[k]:
                    content[k] = e
            if not any(content):
                break
        m = tuple(content)
        q = Poly(self.n, {tuple(e - c for e, c in zip(exp, m)): co
                          for exp, co in self.terms.items()})
        return m, q

    # -- serialization -----------------------------------------------------

    def _ordered_terms(self) -> Iterator[tuple[Exponent, int]]:
        # graded lex, descending
        return iter(sorted(self.terms.items(),
                           key=lambda t: (sum(t[0]), t[0]), reverse=True))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        n = self.n
        pieces = []
        for exp, coef in self._ordered_terms():
            factors = []
            for k, e in enumerate(exp):
                if not e:
                    continue
                name = f"x{k + 1}" if k < n else f"y{k - n + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(coef)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("- " if coef < 0 else "+ ") + body)
        first = pieces[0]
        head = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([head] + pieces[1:])

    @classmethod
    def from_text(cls, n: int, text: str) -> "Poly":
        out = cls.zero(n)
        text = text.strip()
        if text in ("", "0"):
            return out
        # split into signed chunks
        chunks: list[str] = []
        sign = 1
        buf = ""
        for tok in text.replace("-", " - ").replace("+", " + ").split():
            if tok in "+-":
                if buf:
                    chunks.append(buf)
                buf = tok
            else:
                buf += tok
                chunks.append(buf)
                buf = ""
        if buf:
            raise ValueError(f"dangling sign in {text!r}")
        for chunk in chunks:
            sign = -1 if chunk.startswith("-") else 1
            body = chunk.lstrip("+-")
            coef = sign
            exp = [0] * (2 * n)
            for factor in body.split("*"):
                if factor.isdigit():
                    coef *= int(factor)
                    continue
                name, _, pw = factor.partition("^")
                power = int(pw) if pw else 1
                idx = int(name[1:]) - 1
                if name[0] == "x":
                    pass
                elif name[0] == "y":
                    idx += n
                else:
                    raise ValueError(f"bad factor {factor!r}")
                if not 0 <= idx < 2 * n:
                    raise ValueError(f"variable out of range in {factor!r}")
                exp[idx] += power
            out = out + cls(n, {tuple(exp): coef})
        return out

    def to_json_terms(self) -> list[dict]:
        n = self.n
        return [{"coef": coef, "xexp": list(exp[:n]), "yexp": list(exp[n:])}
                for exp, coef in self._ordered_terms()]

    @classmethod
    def from_json_terms(cls, n: int, data: list[dict]) -> "Poly":
        terms: dict[Exponent, int] = {}
        for item in data:
            exp = tuple(item["xexp"]) + tuple(item["yexp"])
            terms[exp] = terms.get(exp, 0) + item["coef"]
        return cls(n, terms)


def product(polys: Iterable[Poly], n: int) -> Poly:
    """Product of an iterable of polynomials; empty product is 1."""
    out = Poly.const(n, 1)
    for p in polys:
        out = out * p
    return out
