"""Small multivariate polynomial ring over Gaussian rationals: a fixed
variable list and the exact arithmetic the Cartan-bundle bracket reduction uses."""

from __future__ import annotations

from .gaussrat import GaussianRational

VARIABLES = ("b", "bbar", "mu", "mubar", "r", "X")


class MultiPoly:
    """Polynomial in the fixed indeterminates b, bbar, mu, mubar, r, X."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        if not isinstance(value, GaussianRational):
            value = GaussianRational(value)
        return cls({(0,) * len(VARIABLES): value})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        exps = [0] * len(VARIABLES)
        exps[VARIABLES.index(name)] = 1
        return cls({tuple(exps): GaussianRational(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            out[exps] = c if acc is None else acc + c
        return MultiPoly(out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            out[exps] = -c if acc is None else acc - c
        return MultiPoly(out)

    def __neg__(self):
        return MultiPoly({exps: -c for exps, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(exps)
                out[exps] = prod if acc is None else acc + prod
        return MultiPoly(out)

    __rmul__ = __mul__

    def __repr__(self):
        if self.is_zero:
            return "MultiPoly(0)"
        parts = []
        for exps, c in sorted(self.terms.items()):
            mon = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(VARIABLES, exps) if e)
            parts.append(f"({c})" + (f"*{mon}" if mon else ""))
        return "MultiPoly(" + " + ".join(parts) + ")"
