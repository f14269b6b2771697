"""Formal power series in t with Element coefficients, truncated at a fixed degree.

Every Series carries its cutoff; binary operations refuse mismatched
cutoffs rather than truncating silently. The multiplication, exponential,
logarithm, and inverse all use the q-shuffle product on coefficients and
never assume coefficients commute.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from . import catalan
from .algebra import Element, Packed, UNIT, shuffle_sum
from .errors import CutoffMismatchError, InexactDivisionError
from .qlaurent import LaurentPoly, q_int


class Series:
    """coeffs[n] is the Element coefficient of t^n, for 0 <= n <= cutoff."""

    __slots__ = ("cutoff", "coeffs")

    def __init__(self, coeffs, cutoff=None):
        coeffs = list(coeffs)
        if cutoff is None:
            cutoff = len(coeffs) - 1
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        if len(coeffs) < cutoff + 1:
            coeffs += [Element.zero()] * (cutoff + 1 - len(coeffs))
        self.cutoff = cutoff
        self.coeffs = tuple(coeffs[: cutoff + 1])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cutoff: int) -> "Series":
        return Series([], cutoff)

    @staticmethod
    def unit(cutoff: int) -> "Series":
        return Series([UNIT], cutoff)

    # -- structure ----------------------------------------------------------

    def __getitem__(self, n: int) -> Element:
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.cutoff == other.cutoff and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Series<cutoff {self.cutoff}>"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _matches(self, other) -> bool:
        """Whether other is a Series; one of another cutoff is refused."""
        if not isinstance(other, Series):
            return False
        if self.cutoff != other.cutoff:
            raise CutoffMismatchError(
                f"cutoff {self.cutoff} vs {other.cutoff}; truncate explicitly first"
            )
        return True

    def truncate(self, cutoff: int) -> "Series":
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[: cutoff + 1], cutoff)

    # -- linear operations -----------------------------------------------------

    def __add__(self, other):
        if not self._matches(other):
            return NotImplemented
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], self.cutoff)

    def __sub__(self, other):
        if not self._matches(other):
            return NotImplemented
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], self.cutoff)

    def __neg__(self):
        return Series([-a for a in self.coeffs], self.cutoff)

    def scale(self, c) -> "Series":
        return Series([a.scale(c) for a in self.coeffs], self.cutoff)

    # -- multiplicative calculus -------------------------------------------------

    def star_mul(self, other: "Series") -> "Series":
        """Cauchy product with the q-shuffle on coefficients: one shuffle_sum
        per coefficient. Each coefficient of either operand is packed once
        per call (once in all when squaring) and used packed by every sum."""
        if not self._matches(other):
            raise TypeError(f"star_mul needs a Series, not {type(other).__name__}")
        a = [Packed.of(c) for c in self.coeffs]
        b = a if other is self else [Packed.of(c) for c in other.coeffs]
        return Series(
            [shuffle_sum((1, a[i], b[k - i]) for i in range(k + 1))
             for k in range(self.cutoff + 1)],
            self.cutoff,
        )

    def __matmul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.star_mul(other)

    def rescale_t(self, c) -> "Series":
        """Substitute t -> c t: the n-th coefficient picks up c^n."""
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.const(c)  # refuses a float
        out = []
        acc = LaurentPoly.one()
        for n, a in enumerate(self.coeffs):
            out.append(a.scale(acc) if n else a)
            acc = acc * c
        return Series(out, self.cutoff)

    def derivative(self) -> "Series":
        """d/dt; the cutoff drops by one."""
        if self.cutoff == 0:
            return Series.zero(0)
        return Series(
            [self.coeffs[n + 1].scale(n + 1) for n in range(self.cutoff)],
            self.cutoff - 1,
        )

    def divide_t(self) -> "Series":
        """t^-1 * self, requiring zero constant term; the cutoff drops by one."""
        if not self.coeffs[0].is_zero():
            raise InexactDivisionError("cannot divide by t: nonzero constant term", self.coeffs[0])
        if self.cutoff == 0:
            return Series.zero(0)
        return Series(list(self.coeffs[1:]), self.cutoff - 1)

    def _power_sum(self, c) -> "Series":
        """Σ_k c[k] A^k for this series A, whose constant term is zero.

        By Horner's rule: with L the lcm of the denominators of the c[k],
        H_k = L c[k] + A ⋆ H_(k+1) is kept below degree cutoff - k + 1 (A^k
        lifts the rest past the cutoff), and the sum is c[0] + (A ⋆ H_1) / L.
        Every level is one shuffle_sum per coefficient. A's coefficients are
        packed once, every level H_k stays packed (Packed.sum), and only the
        sum's own coefficients are decoded. The powers stay literal products
        A ⋆ (A ⋆ ...), which by associativity and central scalars sum to
        exactly Σ c[k] A^k; nothing about commutation of the coefficients is
        assumed.
        """
        n = self.cutoff
        a = [Packed.of(x) for x in self.coeffs]
        den = lcm(*(Fraction(ck).denominator for ck in c))
        h: list = []  # H_(n+1) = 0
        for k in range(n, 0, -1):
            h = [Packed.of(UNIT.scale(den * c[k]))] + [
                Packed.sum((1, a[i], h[d - i]) for i in range(1, d + 1))
                for d in range(1, n - k + 1)
            ]
        return Series(
            [UNIT.scale(c[0])] + [
                shuffle_sum((Fraction(1, den), a[i], h[d - i]) for i in range(1, d + 1))
                for d in range(1, n + 1)
            ],
            n,
        )

    def exp(self) -> "Series":
        """Shuffle exponential Σ A^k / k!; the argument must have zero
        constant term. Computed by Horner's rule (see _power_sum) from
        literal shuffle products, so nothing about commutation of the
        coefficients is assumed.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("exp needs a zero constant term")
        return self._power_sum([Fraction(1, factorial(k)) for k in range(self.cutoff + 1)])

    def log(self) -> "Series":
        """Shuffle logarithm Σ (-1)^(k+1) Z^k / k of Z = self - 1; the
        constant term must be the unit element."""
        if self.coeffs[0] != UNIT:
            raise ValueError("log needs unit constant term")
        z = Series((Element.zero(),) + self.coeffs[1:], self.cutoff)
        return z._power_sum(
            [0] + [Fraction(1 if k % 2 else -1, k) for k in range(1, self.cutoff + 1)]
        )

    def inverse(self) -> "Series":
        """Two-sided multiplicative inverse; constant term must be the unit.
        The coefficients are packed once, and inv_1 ... inv_N stay packed
        (Packed.sum) until each is decoded once, at the end."""
        if self.coeffs[0] != UNIT:
            raise ValueError("inverse needs unit constant term")
        s = [Packed.of(c) for c in self.coeffs]
        inv = [Packed.of(UNIT)]
        for n in range(1, self.cutoff + 1):
            inv.append(Packed.sum((-1, s[k], inv[n - k]) for k in range(1, n + 1)))
        return Series([UNIT] + [p.decoded() for p in inv[1:]], self.cutoff)

    def apply_y_inverse(self) -> "Series":
        return Series([a.y_inverse() for a in self.coeffs], self.cutoff)

    def apply_x_inverse(self) -> "Series":
        return Series([a.x_inverse() for a in self.coeffs], self.cutoff)

    def zeta(self) -> "Series":
        return Series([a.zeta() for a in self.coeffs], self.cutoff)

    def div_exact(self, p: LaurentPoly) -> "Series":
        return Series([a.div_exact(p) for a in self.coeffs], self.cutoff)

    # -- display / serialization ---------------------------------------------

    def __str__(self):
        from . import render  # imported on first use, off the import path of series

        return render.series_expanded(self)

    def to_json(self) -> dict:
        return {"cutoff": self.cutoff, "coeffs": [a.to_json() for a in self.coeffs]}


# -- named generating functions ------------------------------------------------


def family_series(family: str, m, cutoff: int, member=catalan.member) -> Series:
    """Sum of the members of a named family (see catalan.FAMILIES) times t^n,
    zero below the family's first index, priced up front (catalan.price).
    member(family, m, n) supplies each coefficient; the verification suite
    passes its cached, perturbable one."""
    first = catalan.price(family, m, cutoff)[2]
    return Series(
        [member(family, m, n) if n >= first else Element.zero() for n in range(cutoff + 1)],
        cutoff,
    )


def log_argument(m: int, cutoff: int, body: str = "xCny", member=catalan.member) -> Series:
    """Sum of ([mn]_q / n) B_n t^n, the exponent of the main formulas, where
    B_n is the free product x C_(n-1) y (body "xCny") or the reduced family
    member at m = 0 (body "nabla")."""
    if body not in ("xCny", "nabla"):
        raise ValueError(f"unknown log-argument body {body!r}")
    base = family_series(body, 0 if body == "nabla" else None, cutoff, member)
    coeffs = [c.scale(q_int(m * n)).scale(Fraction(1, n)) if n else c
              for n, c in enumerate(base.coeffs)]
    return Series(coeffs, cutoff)


# perfbench/worker.py builds its series workload from these four
def gtilde_series(cutoff: int) -> Series:
    """Sum of the alternating words (xy)^n t^n."""
    return family_series("Gtilde", None, cutoff)


def d_series(cutoff: int) -> Series:
    return family_series("D", None, cutoff)


def delta_series(m: int, cutoff: int) -> Series:
    return family_series("delta", m, cutoff)


def beck_log_argument(m: int, cutoff: int) -> Series:
    """Sum of ([mn]_q / n) x C_(n-1) y t^n, the exponent of the main formulas."""
    return log_argument(m, cutoff, "xCny")
