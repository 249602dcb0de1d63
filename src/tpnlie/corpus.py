"""Verified instance families, seeded random systems, and the hunter.

The constructive families (truncated polynomial rings, their tensor products,
zero brackets) provide instances where every identity is expected to hold;
``random_system`` makes no promises at all and exists for fuzzing and for the
counterexample hunter, which probes whether the arity extension can break the
fundamental or transposed Leibniz identities when the strong condition fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .axioms import CheckReport, IdentityId, check_identity
from .construct import derivation_bracket, extend_bracket
from .core import (
    AlgebraSystem,
    DerivationMatrix,
    ElementVector,
    InputError,
    ProductTensor,
    SkewBracket,
    rat,
)

__all__ = [
    "make_truncated_poly",
    "formal_derivative",
    "poly_derivation",
    "make_tensor_trunc",
    "tensor_diagonal_derivation",
    "make_zero_bracket_system",
    "random_system",
    "Finding",
    "hunt_counterexample",
    "CorpusInstance",
    "binary_sweep_corpus",
    "ternary_sweep_corpus",
]

MAX_RANDOM_DIM = 12  # performance guard for random_system


def _monomial_label(exponents: list[tuple[str, int]]) -> str:
    parts = []
    for var, e in exponents:
        if e == 0:
            continue
        parts.append(var if e == 1 else f"{var}^{e}")
    return "*".join(parts) if parts else "1"


def make_truncated_poly(m: int) -> AlgebraSystem:
    """Q[t]/(t^m) with basis e_k = t^k, the Euler map t*d/dt, and its bracket.

    The bracket "b1" is the binary bootstrap from the Euler derivation
    "euler" (so [e_i, e_j] = (j - i) e_{i+j}, zero once i + j >= m).
    """
    if not isinstance(m, int) or m < 2:
        raise InputError(f"truncated polynomial ring needs integer m >= 2, got {m!r}")
    cube = [
        [[Fraction(1) if i + j == k else Fraction(0) for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    product = ProductTensor(m, cube)
    euler = poly_derivation(m, [1])
    labels = tuple(_monomial_label([("t", k)]) for k in range(m))
    return AlgebraSystem(
        m,
        product,
        brackets={"b1": derivation_bracket(product, euler)},
        derivations={"euler": euler},
        basis_labels=labels,
    )


def poly_derivation(m: int, coeffs) -> DerivationMatrix:
    """The derivation p(t)*d/dt of Q[t]/(t^m) for p = a_1 t + a_2 t^2 + ...

    ``coeffs`` lists a_1, a_2, ...; since p(0) = 0 the map preserves the
    truncation ideal, so every such matrix is a genuine derivation of the
    product.  D(e_j) = j * sum_r a_r e_{j-1+r}, truncated at degree m.
    """
    if not isinstance(m, int) or m < 2:
        raise InputError(f"truncated polynomial ring needs integer m >= 2, got {m!r}")
    a = [rat(c) for c in coeffs]
    cols = [[Fraction(0)] * m for _ in range(m)]
    for j in range(m):
        for r, ar in enumerate(a, start=1):
            k = j - 1 + r
            if ar and 0 <= k < m:
                cols[k][j] += j * ar
    return DerivationMatrix(m, cols)


def formal_derivative(m: int) -> DerivationMatrix:
    """The formal derivative d/dt on Q[t]/(t^m): D(e_k) = k e_{k-1}.

    This does NOT preserve the ideal (t^m), so it fails the product Leibniz
    rule; the first failing pair in lexicographic order is (1, m-1), where
    D(e_1 e_{m-1}) = D(0) = 0 but the Leibniz side gives m * e_{m-1}.
    Useful as a negative control.
    """
    if not isinstance(m, int) or m < 2:
        raise InputError(f"truncated polynomial ring needs integer m >= 2, got {m!r}")
    rows = [
        [Fraction(j) if k == j - 1 else Fraction(0) for j in range(m)]
        for k in range(m)
    ]
    return DerivationMatrix(m, rows)


def _tensor_index(i: int, j: int, a: int) -> int:
    # s-degree varies fastest: 1, s, s^2, .., then t, s*t, ...
    return j * a + i


def make_tensor_trunc(a: int, b: int) -> AlgebraSystem:
    """Q[s]/(s^a) tensor Q[t]/(t^b); basis monomials s^i t^j, s-degree fastest.

    Ships the two commuting diagonal derivations d1 = s*d/ds and
    d2 = t*d/dt, plus the binary bracket "b_d1" bootstrapped from d1.
    For a = b = 2 the basis is (1, s, t, s*t).
    """
    if not isinstance(a, int) or a < 2 or not isinstance(b, int) or b < 2:
        raise InputError(f"tensor truncation needs integers a, b >= 2, got {a!r}, {b!r}")
    d = a * b
    cube = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i1 in range(a):
        for j1 in range(b):
            for i2 in range(a):
                for j2 in range(b):
                    if i1 + i2 < a and j1 + j2 < b:
                        u = _tensor_index(i1, j1, a)
                        v = _tensor_index(i2, j2, a)
                        w = _tensor_index(i1 + i2, j1 + j2, a)
                        cube[u][v][w] = Fraction(1)
    product = ProductTensor(d, cube)
    d1 = tensor_diagonal_derivation(a, b, 1, 0)
    d2 = tensor_diagonal_derivation(a, b, 0, 1)
    labels = tuple(
        _monomial_label([("s", i), ("t", j)])
        for j in range(b)
        for i in range(a)
    )
    return AlgebraSystem(
        d,
        product,
        brackets={"b_d1": derivation_bracket(product, d1)},
        derivations={"d1": d1, "d2": d2},
        basis_labels=labels,
    )


def tensor_diagonal_derivation(a: int, b: int, alpha, beta) -> DerivationMatrix:
    """alpha*s*d/ds + beta*t*d/dt on the (a, b) tensor truncation (diagonal)."""
    alpha, beta = rat(alpha), rat(beta)
    d = a * b
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(a):
        for j in range(b):
            k = _tensor_index(i, j, a)
            rows[k][k] = alpha * i + beta * j
    return DerivationMatrix(d, rows)


def make_zero_bracket_system(product: ProductTensor, arity: int) -> AlgebraSystem:
    """The given product with the identically zero bracket "zero" of the arity.

    Legal for any arity >= 2, including arity > dim (the bracket has no
    strictly increasing tuples at all then).  Every bracket identity holds
    by inspection.
    """
    if not isinstance(arity, int) or arity < 2:
        raise InputError(f"bracket arity must be an integer >= 2, got {arity!r}")
    return AlgebraSystem(
        product.dim,
        product,
        brackets={"zero": SkewBracket.zero(product.dim, arity)},
    )


def random_system(dim: int, arity: int, density, seed: int) -> AlgebraSystem:
    """A seeded random system: symmetrized product, sparse skew bracket "b",
    and a candidate derivation "d".  Pure function of its arguments; makes no
    axiom promises whatsoever, callers filter through the checkers.

    Structure constants have numerators uniform in -3..3 and denominator 1.
    ``density`` (a rational in [0, 1]) is the probability that a given
    strictly increasing tuple carries a (random) bracket value.
    """
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"dimension must be a positive integer, got {dim!r}")
    if dim > MAX_RANDOM_DIM:
        raise InputError(f"random_system dimension {dim} exceeds the guard {MAX_RANDOM_DIM}")
    if not isinstance(arity, int) or arity < 2:
        raise InputError(f"bracket arity must be an integer >= 2, got {arity!r}")
    density = rat(density)
    if not 0 <= density <= 1:
        raise InputError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    cube = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            for k in range(dim):
                v = Fraction(rng.randint(-3, 3))
                cube[i][j][k] = v
                cube[j][i][k] = v
    threshold = float(density)
    entries = {}
    for key in combinations(range(dim), arity):
        if rng.random() < threshold:
            value = ElementVector(tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)))
            if not value.is_zero():
                entries[key] = value
    matrix = DerivationMatrix(
        dim,
        tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(dim)),
    )
    return AlgebraSystem(
        dim,
        ProductTensor(dim, cube),
        brackets={"b": SkewBracket(dim, arity, entries)},
        derivations={"d": matrix},
    )


# ---------------------------------------------------------------------------
# Counterexample hunting.

# Premises a candidate must satisfy before its extension is interesting:
# a genuine transposed Poisson n-Lie structure (commutative associative
# product included) whose map is a derivation of both operations, but where
# the strong condition FAILS.  Ordered cheapest first for early exit.
_PREMISES = (
    IdentityId.DER_MUL,
    IdentityId.COMM,
    IdentityId.DER_BRK,
    IdentityId.ASSOC,
    IdentityId.TP,
    IdentityId.NL,
)

_HUNT_DENSITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def _trial_seed(seed: int, trial: int) -> int:
    # splitmix-style mix so trial streams are decorrelated but reproducible
    return (seed * 6364136223846793005 + trial * 1442695040888963407 + 1) % 2**63


@dataclass(frozen=True)
class Finding:
    """A hunter hit: premises hold, strong fails, and the extension breaks.

    ``premise_reports`` are re-verified before the finding is returned;
    ``failure_reports`` are the NL/TP reports of the extended bracket that
    contain at least one failure.
    """

    trial: int
    seed: int
    system: AlgebraSystem
    bracket_name: str
    derivation_name: str
    strong_report: CheckReport
    extension: SkewBracket
    premise_reports: tuple[CheckReport, ...]
    failure_reports: tuple[CheckReport, ...]


def _premise_reports(system: AlgebraSystem) -> list[CheckReport]:
    p = system.product
    b = system.bracket("b")
    m = system.derivation("d")
    reports = []
    for ident in _PREMISES:
        r = check_identity(ident, product=p, bracket=b, derivation=m)
        reports.append(r)
        if not r.passed:
            break
    return reports


def hunt_counterexample(
    dim: int, arity: int, trials: int, seed: int
) -> Finding | None:
    """Search random systems for an extension that breaks NL or TP.

    Draws seeded random systems, keeps those that are honest transposed
    Poisson n-Lie algebras with a two-sided derivation but fail STRONG,
    extends them, and checks NL and TP at arity n+1.  Returns the first
    finding (smallest trial index) or None once the budget is exhausted;
    exhausting the budget is a normal outcome, not an error.

    Arity 2 is rejected: the strong condition holds automatically there, so
    the premise set is unsatisfiable.
    """
    if not isinstance(arity, int) or arity < 3:
        raise InputError(
            "hunting needs arity >= 3: at arity 2 the strong condition follows "
            "from the transposed Leibniz identity, so no candidate can exist"
        )
    for name, value in (("dim", dim), ("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"hunt {name} must be an integer, got {value!r}")
    if trials < 0:
        raise InputError(f"trial budget must be nonnegative, got {trials}")
    for trial in range(trials):
        child = _trial_seed(seed, trial)
        system = random_system(dim, arity, _HUNT_DENSITIES[trial % 4], child)
        reports = _premise_reports(system)
        if not all(r.passed for r in reports):
            continue
        p = system.product
        b = system.bracket("b")
        m = system.derivation("d")
        strong = check_identity(IdentityId.STRONG, product=p, bracket=b)
        if strong.passed:
            continue  # strong instances are the proven regime, not a probe
        extension = extend_bracket(p, b, m)
        failures = []
        for ident in (IdentityId.NL, IdentityId.TP):
            r = check_identity(ident, product=p, bracket=extension)
            if not r.passed:
                failures.append(r)
        if not failures:
            continue
        # Re-verify the premises from scratch before reporting.
        premises = _premise_reports(system)
        strong2 = check_identity(IdentityId.STRONG, product=p, bracket=b)
        if not all(r.passed for r in premises) or strong2.passed:
            continue
        return Finding(
            trial=trial,
            seed=child,
            system=system,
            bracket_name="b",
            derivation_name="d",
            strong_report=strong2,
            extension=extension,
            premise_reports=tuple(premises),
            failure_reports=tuple(failures),
        )
    return None


# ---------------------------------------------------------------------------
# Seeded sweep corpus: a deterministic mix of constructive families with
# randomized parameters plus genuinely random draws, used to exercise the
# implication properties on a hundred-plus instances.


@dataclass(frozen=True)
class CorpusInstance:
    label: str
    system: AlgebraSystem
    bracket_name: str
    derivation_name: str | None

    @property
    def bracket(self) -> SkewBracket:
        return self.system.bracket(self.bracket_name)

    @property
    def derivation(self) -> DerivationMatrix | None:
        if self.derivation_name is None:
            return None
        return self.system.derivation(self.derivation_name)


def _nonzero_rational(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-3, 3)
    return Fraction(num, rng.choice((1, 1, 2)))


def _trunc_instances(rng: random.Random):
    ms = (2, 3, 4, 5, 6, 7)
    k = 0
    while True:
        m = ms[k % len(ms)]
        k += 1
        width = min(3, m - 1)
        coeffs = [Fraction(0)] * width
        coeffs[rng.randrange(width)] = _nonzero_rational(rng)
        for r in range(width):
            if rng.random() < 0.4 and not coeffs[r]:
                coeffs[r] = Fraction(rng.randint(-3, 3))
        matrix = poly_derivation(m, coeffs)
        base = make_truncated_poly(m)
        system = AlgebraSystem(
            m,
            base.product,
            brackets={"b": derivation_bracket(base.product, matrix)},
            derivations={"d": matrix},
            basis_labels=base.basis_labels,
        )
        yield CorpusInstance(f"truncpoly(m={m})#{k}", system, "b", "d")


def _tensor_pair(rng: random.Random):
    alpha, beta = rng.randint(-2, 2), rng.randint(-2, 2)
    if alpha == 0 and beta == 0:
        alpha = 1
    return alpha, beta


def _tensor_instances(rng: random.Random):
    shapes = ((2, 2), (2, 3), (3, 2))
    k = 0
    while True:
        a, b = shapes[k % len(shapes)]
        k += 1
        base = make_tensor_trunc(a, b)
        alpha, beta = _tensor_pair(rng)
        gamma, delta = _tensor_pair(rng)
        builder = tensor_diagonal_derivation(a, b, alpha, beta)
        second = tensor_diagonal_derivation(a, b, gamma, delta)
        system = AlgebraSystem(
            a * b,
            base.product,
            brackets={"b": derivation_bracket(base.product, builder)},
            derivations={"d": second},  # commutes with the builder
            basis_labels=base.basis_labels,
        )
        yield CorpusInstance(f"tensor({a},{b})#{k}", system, "b", "d")


def _zero_instance(m: int, tag: str) -> CorpusInstance:
    base = make_truncated_poly(m)
    system = AlgebraSystem(
        m,
        base.product,
        brackets={"b": SkewBracket.zero(m, 2)},
        derivations={"d": base.derivations["euler"]},
        basis_labels=base.basis_labels,
    )
    return CorpusInstance(f"zero(m={m}){tag}", system, "b", "d")


def _passes(system: AlgebraSystem, idents) -> bool:
    p = system.product
    b = system.bracket("b")
    d = system.derivations.get("d")
    return all(
        check_identity(i, product=p, bracket=b, derivation=d).passed for i in idents
    )


_HYPOTHESES = (IdentityId.COMM, IdentityId.ASSOC, IdentityId.NL, IdentityId.TP)


def _misc_instances(rng: random.Random):
    # Zero brackets plus genuinely random draws kept only when they pass the
    # transposed Poisson hypotheses; failed draws fall back to a zero
    # instance so the stream stays deterministic and never stalls.
    k = 0
    while True:
        k += 1
        phase = k % 3
        if phase == 0:
            yield _zero_instance(2 + k % 4, f"#{k}")
            continue
        if phase == 1:
            # random skew bracket over a known-good product
            m = 2 + k % 3
            base = make_truncated_poly(m)
            found = None
            for _ in range(8):
                sub = random.Random(rng.getrandbits(32))
                entries = {}
                for key in combinations(range(m), 2):
                    if sub.random() < 0.5:
                        vec = ElementVector(
                            tuple(Fraction(sub.randint(-3, 3)) for _ in range(m))
                        )
                        if not vec.is_zero():
                            entries[key] = vec
                candidate = AlgebraSystem(
                    m,
                    base.product,
                    brackets={"b": SkewBracket(m, 2, entries)},
                    derivations={"d": base.derivations["euler"]},
                    basis_labels=base.basis_labels,
                )
                if _passes(candidate, (IdentityId.NL, IdentityId.TP)):
                    found = candidate
                    break
            if found is None:
                yield _zero_instance(2 + k % 3, f"#{k}")
                continue
            der = found.derivation("d")
            ok = check_identity(
                IdentityId.DER_BRK, bracket=found.bracket("b"), derivation=der
            ).passed
            yield CorpusInstance(f"randbracket(m={m})#{k}", found, "b", "d" if ok else None)
            continue
        # fully random system, hypothesis-filtered
        found = None
        for _ in range(8):
            candidate = random_system(2, 2, rng.choice((0, Fraction(1, 2))), rng.getrandbits(32))
            if _passes(candidate, _HYPOTHESES):
                found = candidate
                break
        if found is None:
            yield _zero_instance(2 + k % 4, f"#{k}")
            continue
        der = found.derivation("d")
        ok = all(
            check_identity(
                i, product=found.product, bracket=found.bracket("b"), derivation=der
            ).passed
            for i in (IdentityId.DER_MUL, IdentityId.DER_BRK)
        )
        yield CorpusInstance(f"random#{k}", found, "b", "d" if ok else None)


def binary_sweep_corpus(seed: int = 0, count: int = 108) -> list[CorpusInstance]:
    """Deterministic arity-2 instances: bootstrapped brackets on truncated
    polynomial rings and tensor truncations, zero brackets, and hypothesis-
    filtered random systems."""
    rng = random.Random(seed)
    gens = (_trunc_instances(rng), _tensor_instances(rng), _misc_instances(rng))
    schedule = (0, 1, 0, 1, 0, 2)
    out: list[CorpusInstance] = []
    k = 0
    while len(out) < count:
        out.append(next(gens[schedule[k % len(schedule)]]))
        k += 1
    return out


def ternary_sweep_corpus(seed: int = 0, count: int = 24) -> list[CorpusInstance]:
    """Deterministic arity-3 instances built by extending binary ones.

    Diagonal derivations on tensor truncations commute, so the extending map
    is a derivation of both the binary bracket and the extension; zero
    brackets and collapsed extensions are mixed in as degenerate cases.
    Shapes are kept small (mostly 2x2) so exhaustive NP2/NP3 sweeps stay fast.
    """
    rng = random.Random(seed)
    shapes = ((2, 2), (2, 2), (2, 2), (2, 3), (2, 2), (2, 2), (3, 2), (2, 2))
    out: list[CorpusInstance] = []
    k = 0
    while len(out) < count:
        k += 1
        which = k % (len(shapes) + 2)
        if which < len(shapes):
            a, b = shapes[which]
            base = make_tensor_trunc(a, b)
            alpha, beta = _tensor_pair(rng)
            gamma, delta = _tensor_pair(rng)
            builder = tensor_diagonal_derivation(a, b, alpha, beta)
            second = tensor_diagonal_derivation(a, b, gamma, delta)
            binary = derivation_bracket(base.product, builder)
            mu3 = extend_bracket(base.product, binary, second)
            system = AlgebraSystem(
                a * b,
                base.product,
                brackets={"b": mu3},
                derivations={"d": second},
                basis_labels=base.basis_labels,
            )
            out.append(CorpusInstance(f"tensor({a},{b})-ext#{k}", system, "b", "d"))
        elif which == len(shapes):
            m = 3 + k % 3
            base = make_truncated_poly(m)
            system = AlgebraSystem(
                m,
                base.product,
                brackets={"b": SkewBracket.zero(m, 3)},
                derivations={"d": base.derivations["euler"]},
                basis_labels=base.basis_labels,
            )
            out.append(CorpusInstance(f"zero3(m={m})#{k}", system, "b", "d"))
        else:
            # Extending the Euler bracket by Euler again cancels exactly,
            # giving a legal all-zero arity-3 instance.
            m = 3 + k % 3
            base = make_truncated_poly(m)
            euler = base.derivations["euler"]
            mu3 = extend_bracket(base.product, base.brackets["b1"], euler)
            system = AlgebraSystem(
                m,
                base.product,
                brackets={"b": mu3},
                derivations={"d": euler},
                basis_labels=base.basis_labels,
            )
            out.append(CorpusInstance(f"collapsed(m={m})#{k}", system, "b", "d"))
    return out
