"""Registry of closed-form reset-length bounds, one entry per cataloged class.

Rational formulas are evaluated in exact rational arithmetic; the two
logarithmic ones are evaluated in double precision (compare with <= after
rounding up if a hard gate is needed); the leading-term-only cubic is
flagged asymptotic since its lower-order part is unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from synchro.core import DomainError


@dataclass(frozen=True)
class BoundEntry:
    id: str
    label: str
    kind: str          # "rational" | "float" | "asymptotic"
    scale: str         # "quadratic" entries dominate (n-1)^2; "family" ones sit below
    min_n: int
    params: tuple
    fn: object


def _floor_frac(x):
    return Fraction(math.floor(x))


_ENTRIES = [
    BoundEntry("cerny", "conjectured general bound (n-1)^2", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a1", "circular", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a2", "one-cluster, prime cycle", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a3", "orientable", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a4", "interval-respecting", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a5", "two-junction", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a6", "eulerian", "rational", "family", 1, (),
               lambda n: Fraction(n * n - 3 * n + 3)),
    BoundEntry("a7", "small-rank letter", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a8", "involution-free", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a9", "strongly connected restricted graph", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("a10", "binary with a simple idempotent", "rational", "quadratic", 1, (),
               lambda n: Fraction((n - 1) ** 2)),
    BoundEntry("b1", "zero state", "rational", "family", 1, (),
               lambda n: Fraction(n * (n - 1), 2)),
    BoundEntry("b2", "aperiodic", "rational", "family", 1, (),
               lambda n: Fraction(n * (n - 1), 2)),
    BoundEntry("b2sc", "aperiodic, strongly connected", "rational", "family", 1, (),
               lambda n: _floor_frac(Fraction(n * (n + 1), 6))),
    BoundEntry("b3", "transition monoid in the idempotent ideal class", "rational",
               "family", 1, (), lambda n: Fraction(n * (n - 1), 2)),
    BoundEntry("b4", "prefix code decoder", "rational", "family", 2, ("sigma",),
               lambda n, sigma: _prefix_code_bound(n, sigma)),
    BoundEntry("b5", "weakly monotonic", "rational", "family", 1, (),
               lambda n: Fraction(n * (n - 1), 2)),
    BoundEntry("b5bij", "weakly monotonic with a reversing bijection", "rational",
               "family", 2, (), lambda n: Fraction(2 * n - 3)),
    BoundEntry("b6", "zero-monotonic", "rational", "family", 2, (),
               lambda n: Fraction(n + n // 2 - 2)),
    BoundEntry("b7", "finitely generated reset ideal", "rational", "family", 2, (),
               lambda n: Fraction(3 * n - 5)),
    BoundEntry("c1", "monotonic", "rational", "family", 1, (),
               lambda n: Fraction(n - 1)),
    BoundEntry("c2", "generalized monotonic", "rational", "family", 1, (),
               lambda n: Fraction(n - 1)),
    BoundEntry("c3", "transition monoid in the regular ideal class", "rational",
               "family", 1, (), lambda n: Fraction(n - 1)),
    BoundEntry("c4", "binary idempotent", "rational", "family", 1, (),
               lambda n: Fraction(n - 1)),
    BoundEntry("c5", "media", "rational", "family", 1, (),
               lambda n: Fraction(n - 1)),
    BoundEntry("c6", "strongly semisimple", "rational", "family", 1, (),
               lambda n: Fraction(n - 1)),
    BoundEntry("c7", "simple idempotent letters", "rational", "family", 1, (),
               lambda n: Fraction(n - 1)),
    BoundEntry("d1", "one-cluster", "float", "quadratic", 2, (),
               lambda n: 2 * n * n - 4 * n + 1 - 2 * (n - 1) * math.log(n / 2)),
    BoundEntry("d1q", "quasi-one-cluster of degree d", "rational", "quadratic", 1, ("d",),
               lambda n, d: Fraction(2 ** d * (n - d + 1) * (2 * n - d - 2))),
    BoundEntry("d2", "completely reachable", "float", "quadratic", 3, (),
               lambda n: 2 * n * n - n * math.log(n) - 4 * n + 2),
    BoundEntry("d3", "quasi-eulerian of degree d", "rational", "quadratic", 1, ("d",),
               lambda n, d: Fraction(2 ** d * (n - d + 1) * (n - 1))),
    BoundEntry("d4", "regular", "rational", "quadratic", 1, (),
               lambda n: Fraction(2 * (n - 1) ** 2)),
    BoundEntry("d5", "coinciding cycles", "rational", "quadratic", 2, (),
               lambda n: Fraction(6 * n * n - 11 * n - 1)),
    BoundEntry("d6", "transitive permutation letters", "rational", "quadratic", 2, (),
               lambda n: Fraction(2 * n * n - 7 * n + 7)),
    BoundEntry("pin_frankl", "general cubic (n^3 - n)/6", "rational", "quadratic", 1, (),
               lambda n: Fraction(n ** 3 - n, 6)),
    BoundEntry("szykula", "general cubic, rational coefficients", "rational",
               "quadratic", 1, (),
               lambda n: Fraction(85059 * n ** 3 + 90024 * n ** 2 + 196504 * n - 10648,
                                  511104)),
    BoundEntry("shitov", "general cubic, leading term only", "asymptotic",
               "quadratic", 1, (),
               lambda n: float((Fraction(7, 48) + Fraction(15625, 798768)) * n ** 3)),
]

REGISTRY = {e.id: e for e in _ENTRIES}

ALIASES = {
    "kari_eulerian": "a6",
    "circular": "a1",
    "orientable": "a3",
    "eulerian": "a6",
    "zero": "b1",
    "aperiodic": "b2",
    "monotonic": "c1",
    "one_cluster": "d1",
    "completely_reachable": "d2",
    "quasi_one_cluster": "d1q",
    "quasi_eulerian": "d3",
    "regular": "d4",
}


def _prefix_code_bound(n, sigma):
    if sigma < 2:
        raise DomainError("needs an alphabet of at least two letters")
    # exact ceil(log_sigma(n)): least r with sigma^r >= n
    r, power = 0, 1
    while power < n:
        power *= sigma
        r += 1
    if r >= 4:
        return Fraction(2) + Fraction((n + r - 1) * (r ** 3 - r), 6)
    return Fraction(2 + (n + r - 1) * (r - 1) ** 2)


def bound_for_class(class_id, n, **params):
    """Evaluate one registry bound at n; extra parameters by keyword."""
    cid = ALIASES.get(class_id, class_id)
    entry = REGISTRY.get(cid)
    if entry is None:
        raise DomainError(f"unknown bound id {class_id!r}; see bounds.REGISTRY")
    if n < entry.min_n:
        raise DomainError(f"bound {cid!r} is stated for n >= {entry.min_n}")
    missing = [p for p in entry.params if p not in params]
    if missing:
        raise DomainError(f"bound {cid!r} needs parameters {list(entry.params)}")
    extra = set(params) - set(entry.params)
    if extra:
        raise DomainError(f"bound {cid!r} does not take {sorted(extra)}")
    if "d" in params and not 0 <= params["d"] <= n:
        raise DomainError(f"bound {cid!r} needs a degree 0 <= d <= n, got d={params['d']}")
    return entry.fn(n, **params)
