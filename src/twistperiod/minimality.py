"""Minimal models and the scaling factor of a minimal quadratic twist.

Two independent routes live here.

The general route is Laska-Kraus-Connell minimization: scale a rational model
to an integral one, strip the largest u with u^4 | c4, u^6 | c6, u^12 | delta
subject to Kraus's integrality conditions at 2 and 3, and rebuild the
canonical reduced model (a1, a3 in {0,1}, a2 in {-1,0,1}) from the reduced
(c4, c6) pair.

The twist-specific route is a prime-by-prime case table: starting from a
MINIMAL model m and a square-free d, the p-adic signature
(v_p(c4), v_p(c6), v_p(delta)) of m determines, for every prime p, the
p-part u_p of the scaling factor taking twist(m, d) to its minimal model.
The product utilde = prod_p u_p is a positive rational with 2*utilde
integral, and the minimizing coordinate change has scale exactly utilde, so
the minimal twist has v_p(delta) + 6*v_p(d) - 12*v_p(u_p) as its discriminant
valuation. minimal_model_of_twist runs both routes and cross-checks them.

Case labels: for odd p | d the gauge lambda = min{3*v_p(c4), 2*v_p(c6),
v_p(delta)} decides between "1a" (u_p = 1) and "1b" (u_p = p); odd p not
dividing d never changes anything; at p = 2 the label depends on d mod 4 and
the 2-adic signature ("2a", "2b-i".."2b-iii", "2c-i".."2c-iv").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exact import ExtendedValuation, factorize, odd_prime_divisors, vp
from .twisting import _twist
from .weierstrass import (
    PAdicSignature,
    Transformation,
    WeierstrassModel,
    padic_signature,
)

CASE_LABELS = (
    "1a",
    "1b",
    "odd-p-not-dividing-d",
    "2a",
    "2b-i",
    "2b-ii",
    "2b-iii",
    "2c-i",
    "2c-ii",
    "2c-iii",
    "2c-iv",
)

class ConsistencyError(RuntimeError):
    """Internal cross-check failure (table vs minimization disagreement)."""


@dataclass(frozen=True)
class MinimalModelResult:
    """A minimal model together with the exact coordinate change reaching it.

    map.apply(input) == minimal, with map.u > 0. The minimal model is the
    canonical reduced one, so c4, c6 and delta do not depend on arbitrary
    choices.
    """

    minimal: WeierstrassModel
    map: Transformation


@dataclass(frozen=True)
class UTildeResult:
    """Per-prime scaling factors of a minimal quadratic twist.

    per_prime maps each relevant prime (2 and the odd divisors of d) to its
    (u_p, case label) pair; utilde is the product of the u_p.
    """

    per_prime: Mapping[int, tuple[Fraction, str]]
    utilde: Fraction

    def case_labels(self) -> list[str]:
        return [self.per_prime[p][1] for p in sorted(self.per_prime)]

    def to_json_dict(self) -> dict:
        return {
            "per_prime": [
                {"p": p, "u_p": str(self.per_prime[p][0]), "case": self.per_prime[p][1]}
                for p in sorted(self.per_prime)
            ],
            "utilde": str(self.utilde),
        }


def signature_gauge(m: WeierstrassModel, p: int) -> ExtendedValuation:
    """min{3*v_p(c4), 2*v_p(c6), v_p(delta)}: decides the odd-prime cases."""
    sig = padic_signature(m, p)
    return min(3 * sig.vc4, 2 * sig.vc6, sig.vdelta)


def _shifted_residue(c6: Fraction, k: int, mult: int) -> int | None:
    """(c6 / 2^k * mult) mod 4, or None when 2^k does not divide c6 exactly."""
    if c6.denominator != 1:
        return None
    n = int(c6)
    if n % (1 << k):
        return None
    return (n >> k) * mult % 4


_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_TWO = Fraction(2)
_FOUR = Fraction(4)


def utilde_factor_at(m: WeierstrassModel, d: int, p: int) -> tuple[Fraction, str]:
    """(u_p, case label) at prime p for the minimal twist of the minimal
    model m by square-free d.

    m must be minimal for the answer to be meaningful. Exactly one label
    applies to every (m, d, p). Cheap per call: the 2-adic signature is kept
    on m, and for odd p | d, "1b" needs a gauge of at least 6, hence p | c4
    and p | c6: an integral m with p not dividing both is "1a" at once, and
    only the primes of gcd(c4, c6) take valuations.
    """
    if p == 2:
        return _classify_at_two(m, d)
    if d % p:
        return _ONE, "odd-p-not-dividing-d"
    inv = m.invariants
    c4, c6 = inv.c4, inv.c6
    integral = c4.denominator == 1 == c6.denominator
    if (
        (integral and (c4.numerator % p or c6.numerator % p))
        or signature_gauge(m, p) < 6
        or (p == 3 and vp(c6, p) == 5)
    ):
        return _ONE, "1a"
    return Fraction(p), "1b"


def _signature_at_two(m: WeierstrassModel) -> PAdicSignature:
    """padic_signature(m, 2), computed once per model instance and kept on it:
    it does not depend on d."""
    sig = m.__dict__.get("_signature_at_two")
    if sig is None:
        sig = padic_signature(m, 2)
        object.__setattr__(m, "_signature_at_two", sig)
    return sig


def _classify_at_two(m: WeierstrassModel, d: int) -> tuple[Fraction, str]:
    a, b, c = _signature_at_two(m)
    c6 = m.invariants.c6
    if d % 4 == 1:
        return _ONE, "2a"
    if d % 4 == 3:
        if (a == 0 and b == 0) or (b == 3 and c == 0 and a >= 4):
            return _HALF, "2b-i"
        if (a == 4 and b == 6 and c >= 12 and _shifted_residue(c6, 6, d) == 3) or (
            b == 9 and c == 12 and a >= 8 and _shifted_residue(c6, 9, d) == 1
        ):
            return _TWO, "2b-ii"
        return _ONE, "2b-iii"
    # d even: d = 2w with w odd since d is square-free.
    w = d // 2
    if a == 0 and b == 0:
        return _HALF, "2c-i"
    if a == 6 and b == 9 and c >= 18 and _shifted_residue(c6, 9, w) == 3:
        return _FOUR, "2c-ii"
    if (
        a in (4, 5)
        or b in (3, 5, 7)
        or (b == 6 and c == 6 and a >= 6 and _shifted_residue(c6, 6, w) == 3)
    ):
        return _ONE, "2c-iii"
    return _TWO, "2c-iv"


def compute_utilde(m: WeierstrassModel, d: int) -> UTildeResult:
    """The scaling factor utilde of the minimal twist of m by square-free d.

    m is minimized first, so the result always refers to the twist of the
    minimal model. The relevant primes are 2 and the odd primes dividing d;
    every other prime contributes u_p = 1. This is the table alone: the
    twist is not minimized, so nothing is cross-checked here;
    minimal_model_of_twist and verify_twist_period_relation check the table
    against minimization of the twist.
    """
    return _utilde_table(minimize(m).minimal, d)


def _utilde_table(
    mm: WeierstrassModel, d: int, odd_primes: list[int] | None = None
) -> UTildeResult:
    """compute_utilde for a model that is already minimal. `odd_primes`, when
    given, is odd_prime_divisors(d), so a caller with many curves factors each
    d once."""
    if odd_primes is None:
        odd_primes = odd_prime_divisors(d)
    primes = [2] + odd_primes
    per_prime = {p: utilde_factor_at(mm, d, p) for p in primes}
    num = den = 1
    for u_p, _ in per_prime.values():
        num *= u_p.numerator
        den *= u_p.denominator
    return UTildeResult(per_prime=per_prime, utilde=Fraction(num, den))


# ---------------------------------------------------------------------------
# Laska-Kraus-Connell minimization
# ---------------------------------------------------------------------------


def _kraus_at_3(c6: int) -> bool:
    return vp(c6, 3) != 2


def _kraus_at_2(c4: int, c6: int) -> bool:
    return c6 % 4 == 3 or (c4 % 16 == 0 and c6 % 32 in (0, 8))


def _candidate_primes(c4: int, c6: int) -> list[int]:
    """Primes that could divide the minimization scale u.

    Such p satisfy p^4 | c4 and p^6 | c6, so p divides gcd(c4, c6) when both
    are nonzero; only one of them can vanish.
    """
    if c4 != 0 and c6 != 0:
        base = math.gcd(abs(c4), abs(c6))
    else:
        base = abs(c6) if c4 == 0 else abs(c4)
    return sorted(factorize(base)) if base > 1 else []


def _reduction_exponent(p: int, c4: int, c6: int, delta: int) -> int:
    """Largest e with (c4/p^4e, c6/p^6e, delta/p^12e) still a valid integral
    invariant triple (Kraus conditions enforced at 2 and 3)."""
    bounds = [vp(delta, p) // 12]
    if c4 != 0:
        bounds.append(vp(c4, p) // 4)
    if c6 != 0:
        bounds.append(vp(c6, p) // 6)
    e = min(bounds)
    if p == 2:
        while e > 0 and not _kraus_at_2(c4 // 2 ** (4 * e), c6 // 2 ** (6 * e)):
            e -= 1
    elif p == 3:
        while e > 0 and not _kraus_at_3(c6 // 3 ** (6 * e)):
            e -= 1
    return e


def _model_from_c4c6(c4: int, c6: int) -> WeierstrassModel:
    """The canonical reduced integral model with the given invariants.

    b2 is the representative of -c6 mod 12 in {0, 1, 4, 5, -4, -3}, the set
    of residues with b2 === 0 or 1 mod 4 (equivalently b2^3 === b2 mod 12).
    """
    r = (-c6) % 12
    if r not in (0, 1, 4, 5, 8, 9):
        raise ConsistencyError(f"(c4, c6) = ({c4}, {c6}) admits no integral model")
    b2 = r if r <= 5 else r - 12
    num_b4 = b2 * b2 - c4
    num_b6 = -(b2**3) + 36 * b2 * (num_b4 // 24) - c6
    if num_b4 % 24 or num_b6 % 216:
        raise ConsistencyError(f"(c4, c6) = ({c4}, {c6}) admits no integral model")
    b4 = num_b4 // 24
    b6 = num_b6 // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    if (b4 - a1 * a3) % 2 or (b6 - a3) % 4:
        raise ConsistencyError(f"(c4, c6) = ({c4}, {c6}) admits no integral model")
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    model = WeierstrassModel(a1, a2, a3, a4, a6)
    inv = model.invariants
    if inv.c4 != c4 or inv.c6 != c6:
        raise ConsistencyError("reconstructed model does not match its invariants")
    return model


def _solve_transformation(
    source: WeierstrassModel, target: WeierstrassModel, u: Fraction
) -> Transformation:
    """The [u, r, s, t] with the given positive u taking source to target.

    Always solvable when the models are related by scale +-u: composing with
    the inversion automorphism [-1, 0, -a1, -a3] of the target flips the sign
    of u, so the positive choice works.
    """
    a1, a2, a3, _, _ = source.ainvs
    n1, n2, n3, _, _ = target.ainvs
    s = (u * n1 - a1) / 2
    r = (u * u * n2 - a2 + s * a1 + s * s) / 3
    t = (u**3 * n3 - a3 - r * a1) / 2
    candidate = Transformation(u, r, s, t)
    if candidate.apply(source) != target:
        raise ConsistencyError(
            f"no [u, r, s, t] with u = {u} takes {source} to {target}"
        )
    return candidate


def minimize(m: WeierstrassModel) -> MinimalModelResult:
    """The canonical minimal model of m and the exact map reaching it.

    Laska-Kraus-Connell: integralize by the lcm n of the denominators (the
    scale 1/n takes c4, c6, delta to c4*n^4, c6*n^6, delta*n^12), strip the
    largest admissible scale u prime by prime, rebuild the reduced model
    from the reduced (c4, c6). n need not be the least integralizing scale:
    the strip removes any excess, and the map's scale is u / n either way.
    Idempotent, and the map scale is 1 exactly when m is already minimal.
    """
    n = math.lcm(*(a.denominator for a in m.ainvs))
    inv = m.invariants
    c4, c6, delta = int(inv.c4 * n**4), int(inv.c6 * n**6), int(inv.delta * n**12)
    u_red = 1
    for p in _candidate_primes(c4, c6):
        e = _reduction_exponent(p, c4, c6, delta)
        if e:
            u_red *= p**e
    minimal = _model_from_c4c6(c4 // u_red**4, c6 // u_red**6)
    mapping = _solve_transformation(m, minimal, Fraction(u_red, n))
    return MinimalModelResult(minimal=minimal, map=mapping)


def minimal_model_of_twist(
    m: WeierstrassModel, d: int
) -> tuple[MinimalModelResult, UTildeResult]:
    """Minimize twist(minimize(m), d), cross-checking the case table.

    The scale of the minimizing map must equal utilde from the per-prime
    table, and delta(twist) / delta(minimal twist) must equal utilde^12
    exactly; ConsistencyError otherwise.
    """
    mm = minimize(m).minimal
    report = _utilde_table(mm, d)
    return _minimal_twist(mm, d, report), report


def _minimal_twist(
    mm: WeierstrassModel, d: int, report: UTildeResult
) -> MinimalModelResult:
    """Minimize twist(mm, d) for a minimal model mm, cross-checked against the
    table's report for (mm, d) as minimal_model_of_twist describes. The
    report's table has checked that d is square-free, so d is not factored
    again."""
    twisted = _twist(mm, d)
    result = minimize(twisted)
    if result.map.u != report.utilde:
        raise ConsistencyError(
            f"table utilde = {report.utilde} but minimization found scale "
            f"{result.map.u} for d = {d}, curve {mm}"
        )
    ratio = twisted.delta / result.minimal.delta
    if ratio != report.utilde**12:
        raise ConsistencyError(
            f"discriminant ratio {ratio} is not utilde^12 for d = {d}, curve {mm}"
        )
    return result
