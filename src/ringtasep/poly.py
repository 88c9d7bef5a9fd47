"""Exact sparse polynomials in x_1..x_n, y_1..y_n with integer coefficients.

A polynomial is a dict mapping packed exponent keys to nonzero Python ints:
the 2n exponents (x block then y block) as 8-bit fields of one int, x_1 in
the most significant byte (Monagan & Pearce, CASC 2007), so key order is lex
order and a monomial product is one integer addition.  An exponent outside
0..255, given or produced by a product, raises ValueError; it never wraps.
Exponent tuples appear only in constructors, queries and serialization.
All arithmetic is exact; there is no floating point anywhere in this module.
`evaluate` values each distinct x half and y half of the keys once, each
variable as num^e * den^(D - e) with D its largest exponent, sums c * Y[y]
per x half, weights each sum by X[x] and divides once by the product of
den^D.

Canonical term order is graded lex on the concatenated exponent vector,
descending, so that text serialization is unique and text equality is
polynomial equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from math import prod
from operator import gt, or_, sub
from typing import Iterable, Iterator, Mapping

Exponent = tuple  # length 2n, x block then y block

_FIELD_MAX = 255  # 8-bit exponent fields


def _pack(exp, width: int) -> int:
    """The packed key of an exponent vector; bytes() rejects a field
    outside 0..255 with ValueError."""
    if len(exp) != width:
        raise ValueError(f"exponent width {len(exp)} != {width}")
    return int.from_bytes(bytes(exp), "big")


def _half_values(halves, vals, width: int) -> tuple[dict[int, int], int]:
    """The integer value of each packed half at vals, each variable v taken
    as num^e * den^(top - e) with top its largest exponent over the halves,
    and the common denominator, the product of den^top."""
    rows = {h: h.to_bytes(width, "big") for h in halves}
    tables, den_total = [], 1
    for v, top in zip(map(Fraction, vals), map(max, zip(*rows.values()))):
        num, den = v.numerator, v.denominator
        tables.append([num ** e * den ** (top - e) for e in range(top + 1)])
        den_total *= den ** top
    return ({h: prod(map(list.__getitem__, tables, row))
             for h, row in rows.items()}, den_total)


class Poly:
    """Element of Z[x_1..x_n, y_1..y_n], stored sparsely."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, int] | None = None):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        self.n = n
        self.terms = {_pack(exp, 2 * n): int(coef)
                      for exp, coef in (terms or {}).items() if coef}

    @classmethod
    def _of_keys(cls, n: int, terms: dict[int, int]) -> "Poly":
        """Wrap packed keys with nonzero coefficients, unchecked."""
        out = object.__new__(cls)
        out.n, out.terms = n, terms
        return out

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
        return cls.monomial(n, (0,) * (i - 1) + (power,))

    @classmethod
    def y(cls, n: int, i: int, power: int = 1) -> "Poly":
        """The variable y_i (1-indexed), optionally raised to a power."""
        if not 1 <= i <= n:
            raise ValueError(f"y index {i} out of range for n={n}")
        return cls.monomial(n, (), (0,) * (i - 1) + (power,))

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

    def _field_bound(self) -> int:
        """An upper bound on every exponent field: the largest field of
        the OR of all keys, at most twice the largest exponent."""
        return max(reduce(or_, self.terms, 0).to_bytes(2 * self.n, "big"),
                   default=0)

    def _field_maxima(self) -> list[int]:
        """The largest exponent of each variable over the terms."""
        w = 2 * self.n
        return list(map(max, zip(*(k.to_bytes(w, "big") for k in self.terms))))

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            c = out.get(key, 0) + coef
            if c:
                out[key] = c
            else:
                del out[key]
        return Poly._of_keys(self.n, out)

    def __neg__(self) -> "Poly":
        return Poly._of_keys(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        if (self._field_bound() + other._field_bound() > _FIELD_MAX
                and any(p + q > _FIELD_MAX for p, q in
                        zip(self._field_maxima(), other._field_maxima()))):
            raise ValueError(f"product exponent exceeds {_FIELD_MAX}")
        # one pass over the longer operand per term of the shorter one; the
        # first pass cannot collide, and zero coefficients (from cancellation
        # or an empty shorter operand) are dropped at the end
        short, long_ = sorted((self.terms, other.terms), key=len)
        pairs = iter(short.items())
        k2, c2 = next(pairs, (0, 0))
        out = {k1 + k2: c1 * c2 for k1, c1 in long_.items()}
        get = out.get
        for k2, c2 in pairs:
            for k1, c1 in long_.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return Poly._of_keys(self.n, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        return product([self] * k, self.n)

    def __floordiv__(self, other: "Poly | int") -> "Poly":
        """The exact quotient by long division on other's largest key.
        Raises ZeroDivisionError for a zero divisor and ValueError unless
        other divides self, which a quotient field past
        deg_i(self) - deg_i(other) proves; within that bound no field wraps."""
        if isinstance(other, int):
            other = Poly.const(self.n, other)
        self._check_ring(other)
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        bound = list(map(sub, self._field_maxima(), other._field_maxima()))
        lead, lc = max(other.terms.items())
        rest = [(k - lead, c) for k, c in other.terms.items() if k != lead]
        rem, out = dict(self.terms), {}
        heap = sorted(-k for k in rem)  # a max-heap of the remainder's keys
        while heap:  # keys leave in decreasing order and never return
            key = -heappop(heap)
            q, r = divmod(rem.pop(key), lc)
            if not q and not r:
                continue
            qk = key - lead
            if r or qk < 0 or any(map(gt, qk.to_bytes(2 * self.n, "big"),
                                      bound)):
                raise ValueError("divisor does not divide exactly")
            out[qk] = q
            for off, c in rest:
                if key + off not in rem:
                    heappush(heap, -key - off)
                rem[key + off] = rem.get(key + off, 0) - q * c
        return Poly._of_keys(self.n, out)

    def scale(self, c: int) -> "Poly":
        return Poly._of_keys(self.n, {k: c * co for k, co in self.terms.items()}
                             if c else {})

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
        w = 2 * self.n
        degs = {sum(k.to_bytes(w, "big")) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def coefficient(self, xexp: Iterable[int], yexp: Iterable[int] = ()) -> int:
        try:
            key, = Poly.monomial(self.n, xexp, yexp).terms
        except ValueError:  # no term has that exponent
            return 0
        return self.terms.get(key, 0)

    # -- substitutions and operators ---------------------------------------

    def swap_x(self, i: int) -> "Poly":
        """Exchange x_i and x_{i+1} (1-indexed)."""
        if not 1 <= i < self.n:
            raise ValueError(f"swap index {i} out of range")
        sb = 8 * (2 * self.n - 1 - i)  # x_{i+1}'s field; x_i's is 8 bits up
        step = 255 << sb  # x_i up by one, x_{i+1} down by one
        return Poly._of_keys(self.n, {
            k + (((k >> sb) & 255) - ((k >> sb + 8) & 255)) * step: c
            for k, c in self.terms.items()})

    def divided_difference(self, i: int) -> "Poly":
        """Apply (P - s_i P) / (x_i - x_{i+1}), acting on the x variables.

        Computed term by term via
        (u^a v^b - u^b v^a)/(u - v) = sign * sum of u^s v^t over s+t = a+b-1
        with min(a,b) <= s,t < max(a,b), so no division machinery is needed
        and exactness holds by construction.
        """
        if not 1 <= i < self.n:
            raise ValueError(f"divided difference index {i} out of range")
        sb = 8 * (2 * self.n - 1 - i)  # x_{i+1}'s field; x_i's is 8 bits up
        step = 255 << sb  # x_i up by one, x_{i+1} down by one
        out: dict[int, int] = {}
        for key, coef in self.terms.items():
            a, b = (key >> sb + 8) & 255, (key >> sb) & 255
            if a == b:
                continue
            lo, hi = (b, a) if a > b else (a, b)
            c = coef if a > b else -coef
            # from fields (lo, hi - 1), each step moves one unit to x_i
            k = key + (lo - a) * (1 << sb + 8) + (hi - 1 - b) * (1 << sb)
            for _ in range(hi - lo):
                out[k] = out.get(k, 0) + c
                k += step
        return Poly._of_keys(self.n, {k: c for k, c in out.items() if c})

    def substitute_y_zero(self) -> "Poly":
        """Set every y variable to 0."""
        ymask = (1 << 8 * self.n) - 1
        return Poly._of_keys(self.n, {k: c for k, c in self.terms.items()
                                      if not k & ymask})

    def evaluate(self, xvals, yvals) -> Fraction:
        xvals, yvals, n = list(xvals), list(yvals), self.n
        if len(xvals) != n or len(yvals) != n:
            raise ValueError("evaluation point length mismatch")
        shift, mask = 8 * n, (1 << 8 * n) - 1
        xv, xden = _half_values({k >> shift for k in self.terms}, xvals, n)
        yv, yden = _half_values({k & mask for k in self.terms}, yvals, n)
        inner: dict[int, int] = {}
        get = inner.get
        for k, c in self.terms.items():
            kx = k >> shift
            inner[kx] = get(kx, 0) + c * yv[k & mask]
        return Fraction(sum(xv[kx] * s for kx, s in inner.items()),
                        xden * yden)

    def embed(self, m: int) -> "Poly":
        """Reinterpret in the larger ring with m >= n variable pairs."""
        if m < self.n:
            raise ValueError("cannot embed into a smaller ring")
        if m == self.n:
            return self
        n, pad = self.n, 8 * (m - self.n)
        return Poly._of_keys(m, {((k >> 8 * n) << 8 * m + pad)
                                 | ((k & (1 << 8 * n) - 1) << pad): c
                                 for k, c in self.terms.items()})

    def monomial_content(self) -> tuple[Exponent, "Poly"]:
        """Largest monomial dividing every term, and the cofactor.

        Returns (m, q) with self = x^y^m * q and q of unit monomial content.
        """
        if not self.terms:
            raise ValueError("zero polynomial has no monomial content")
        w = 2 * self.n
        m = tuple(map(min, zip(*(k.to_bytes(w, "big") for k in self.terms))))
        packed = _pack(m, w)
        return m, Poly._of_keys(self.n, {k - packed: c
                                         for k, c in self.terms.items()})

    # -- serialization -----------------------------------------------------

    def _ordered_terms(self) -> Iterator[tuple[bytes, int]]:
        # graded lex, descending; unpacked bytes compare as the keys do
        w = 2 * self.n
        return iter(sorted(((k.to_bytes(w, "big"), c)
                            for k, c in self.terms.items()),
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
        text = text.strip()
        if text in ("", "0"):
            return cls.zero(n)
        # split into signed chunks
        chunks: list[str] = []
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
        terms: dict[Exponent, int] = {}
        for chunk in chunks:
            coef = -1 if chunk.startswith("-") else 1
            body = chunk.lstrip("+-")
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
            exp = tuple(exp)
            terms[exp] = terms.get(exp, 0) + coef
        return cls(n, terms)

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
    return prod(polys, start=Poly.const(n, 1))
