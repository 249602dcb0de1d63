"""Verified instance families, seeded random systems, and the hunter.

The constructive families (truncated polynomial rings and their tensor
products, monomial quotients built by one rule; zero brackets) provide
instances where every identity is expected to hold, one shared immutable
system per family and argument tuple in a process, so a sweep's instances on
it share its product and the data checks keep on that; ``random_system``
makes no promises at all and exists for fuzzing and for the counterexample
hunter, which probes whether the arity extension can break the fundamental or
transposed Leibniz identities when the strong condition fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .axioms import CheckReport, IdentityId, check_identity
from .construct import derivation_bracket, extend_bracket
from .core import (
    AlgebraSystem,
    DerivationMatrix,
    InputError,
    MAX_ARITY,
    ProductTensor,
    SkewBracket,
    _components,
    _integer,
    _listed,
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
# The most basis elements (m, or a*b) of a shipped family: m = 100 builds in
# 1.0-1.1 s at 47 MB on a 2-core x86_64 VM; the d**3 product cube of m = 3000 fills memory.
MAX_FAMILY_DIM = 100


def _monomial_label(exponents: list[tuple[str, int]]) -> str:
    parts = []
    for var, e in exponents:
        if e == 0:
            continue
        parts.append(var if e == 1 else f"{var}^{e}")
    return "*".join(parts) if parts else "1"


def _monomial_family(names, monomials, weights, bracket: str) -> AlgebraSystem:
    """Q[names] modulo every monomial outside ``monomials`` (closed under division),
    with a diagonal map per ``weights`` item (name, w), ``bracket`` from the first."""
    d = len(monomials)
    index = {u: k for k, u in enumerate(monomials)}
    zero, one = Fraction(0), Fraction(1)  # shared by every cell
    cube = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for x, u in enumerate(monomials):
        for y, v in enumerate(monomials):
            k = index.get(tuple(i + j for i, j in zip(u, v)))  # e_u * e_v = e_{u+v}, or 0
            if k is not None:
                cube[x][y][k] = one
    product = ProductTensor(d, cube)
    maps = {name: _diagonal(monomials, w) for name, w in weights.items()}
    return AlgebraSystem(
        d,
        product,
        brackets={bracket: derivation_bracket(product, next(iter(maps.values())))},
        derivations=maps,
        basis_labels=[_monomial_label(list(zip(names, u))) for u in monomials],
    )


def _diagonal(monomials, weights) -> DerivationMatrix:
    # D(e_u) = (w.u) e_u, the derivation sum_i w_i x_i d/dx_i of a monomial quotient.
    rows = [[Fraction(0)] * len(monomials) for _ in monomials]
    for k, u in enumerate(monomials):
        rows[k][k] = sum(w * e for w, e in zip(weights, u))
    return DerivationMatrix(len(rows), rows)


# Typed, so (2, 2.0) misses the key (2, 2) and reaches the InputError.  A binary
# sweep pass uses 6 + 3 keys (m, then (a, b)), ternary_sweep_corpus 3 + 3.
@lru_cache(maxsize=8, typed=True)
def make_truncated_poly(m: int) -> AlgebraSystem:
    """Q[t]/(t^m) with basis e_k = t^k, the Euler map t*d/dt, and its bracket.

    The bracket "b1" is the binary bootstrap from the Euler derivation
    "euler" (so [e_i, e_j] = (j - i) e_{i+j}, zero once i + j >= m).
    """
    m = _integer(m, "truncation degree m", 2, MAX_FAMILY_DIM)
    return _monomial_family(("t",), [(k,) for k in range(m)], {"euler": (1,)}, "b1")


def poly_derivation(m: int, coeffs) -> DerivationMatrix:
    """The derivation p(t)*d/dt of Q[t]/(t^m) for p = a_1 t + a_2 t^2 + ...

    ``coeffs`` lists a_1, a_2, ...; since p(0) = 0 the map preserves the
    truncation ideal, so every such matrix is a genuine derivation of the
    product.  D(e_j) = j * sum_r a_r e_{j-1+r}, truncated at degree m.
    """
    m = _integer(m, "truncation degree m", 2, MAX_FAMILY_DIM)
    a = [rat(c) for c in _listed(coeffs, "coeffs")]
    cols = [[0] * m for _ in range(m)]
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
    m = _integer(m, "truncation degree m", 2, MAX_FAMILY_DIM)
    rows = [[j if k == j - 1 else 0 for j in range(m)] for k in range(m)]
    return DerivationMatrix(m, rows)


def _tensor_monomials(a: int, b: int) -> list[tuple[int, int]]:
    # (i, j) of each basis monomial s^i t^j, s-degree fastest: 1, s, s^2, .., t, s*t, ..
    a = _integer(a, "truncation degree a", 2, MAX_FAMILY_DIM // 2)
    b = _integer(b, "truncation degree b", 2, MAX_FAMILY_DIM // a)
    return [(i, j) for j in range(b) for i in range(a)]


@lru_cache(maxsize=4, typed=True)
def make_tensor_trunc(a: int, b: int) -> AlgebraSystem:
    """Q[s]/(s^a) tensor Q[t]/(t^b); basis monomials s^i t^j, s-degree fastest.

    Ships the two commuting diagonal derivations d1 = s*d/ds and
    d2 = t*d/dt, plus the binary bracket "b_d1" bootstrapped from d1.
    For a = b = 2 the basis is (1, s, t, s*t).
    """
    weights = {"d1": (1, 0), "d2": (0, 1)}
    return _monomial_family(("s", "t"), _tensor_monomials(a, b), weights, "b_d1")


def tensor_diagonal_derivation(a: int, b: int, alpha, beta) -> DerivationMatrix:
    """alpha*s*d/ds + beta*t*d/dt on the (a, b) tensor truncation (diagonal)."""
    return _diagonal(_tensor_monomials(a, b), (rat(alpha), rat(beta)))


def make_zero_bracket_system(product: ProductTensor, arity: int) -> AlgebraSystem:
    """The given product with the identically zero bracket "zero" of the arity.

    Legal for any arity >= 2, including arity > dim (the bracket has no
    strictly increasing tuples at all then).  Every bracket identity holds
    by inspection.
    """
    d = _components("make_zero_bracket_system", product, None, None, (True, False, False))
    return AlgebraSystem(d, product, brackets={"zero": SkewBracket.zero(d, arity)})


# rng.randint(-3, 3) as a shared Fraction: CPython's randint draws getrandbits(3), again on a 7.
_SMALL = tuple(Fraction(v) for v in range(-3, 4))


def _small(rng: random.Random) -> Fraction:
    r = rng.getrandbits(3)
    while r == 7:
        r = rng.getrandbits(3)
    return _SMALL[r]


def _random_entries(rng: random.Random, dim: int, arity: int, threshold: float) -> dict:
    # Per increasing tuple: one coin, then the dim numerators of a kept value.
    return {
        key: [_small(rng) for _ in range(dim)]
        for key in combinations(range(dim), arity)
        if rng.random() < threshold
    }


def _random_parts(dim: int, arity: int, density, seed: int):
    # random_system's product, bracket entries and derivation, drawn in that order.
    _integer(dim, "random_system dimension", 1, MAX_RANDOM_DIM)
    _integer(arity, "bracket arity", 2, MAX_ARITY)
    density = rat(density)
    if not 0 <= density <= 1:
        raise InputError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(_integer(seed, "seed", 0))
    upper = {(i, j): [_small(rng) for _ in range(dim)] for i in range(dim) for j in range(i, dim)}
    cube = [[upper[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    entries = _random_entries(rng, dim, arity, float(density))
    matrix = DerivationMatrix(dim, [[_small(rng) for _ in range(dim)] for _ in range(dim)])
    return ProductTensor(dim, cube), entries, matrix


def random_system(dim: int, arity: int, density, seed: int) -> AlgebraSystem:
    """A seeded random system: symmetrized product, sparse skew bracket "b",
    and a candidate derivation "d".  Pure function of its arguments; makes no
    axiom promises whatsoever, callers filter through the checkers.

    Structure constants have numerators uniform in -3..3 and denominator 1.
    ``density`` (a rational in [0, 1]) is the probability that a given
    strictly increasing tuple carries a (random) bracket value.  Seeds are >= 0.
    """
    product, entries, matrix = _random_parts(dim, arity, density, seed)
    bracket = SkewBracket(dim, arity, entries)
    return AlgebraSystem(dim, product, brackets={"b": bracket}, derivations={"d": matrix})


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

    ``premise_reports`` are re-run before the finding is returned;
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


def _reports(system: AlgebraSystem, idents) -> list[CheckReport]:
    """The reports of ``idents`` on the bracket "b" and the derivation "d" of
    ``system``, in order, up to and including the first failure: so the last
    one passed if and only if all of ``idents`` hold."""
    p, b, d = system.product, system.bracket("b"), system.derivations.get("d")
    reports = []
    for ident in idents:
        reports.append(check_identity(ident, product=p, bracket=b, derivation=d))
        if not reports[-1].passed:
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
    reason = "at arity 2 the strong condition follows from the transposed Leibniz identity"
    _integer(arity, f"hunt arity ({reason}, so no candidate can exist)", 3, MAX_ARITY)
    _integer(dim, "hunt dim", 1, MAX_RANDOM_DIM)
    _integer(trials, "hunt trials", 0)
    _integer(seed, "hunt seed")
    for trial in range(trials):
        child = _trial_seed(seed, trial)
        p, entries, m = _random_parts(dim, arity, _HUNT_DENSITIES[trial % 4], child)
        # DER_MUL reads only the product and D, so the bracket waits for it.
        if not check_identity(IdentityId.DER_MUL, product=p, derivation=m).passed:
            continue
        b = SkewBracket(dim, arity, entries)
        system = AlgebraSystem(dim, p, brackets={"b": b}, derivations={"d": m})
        if not _reports(system, _PREMISES[1:])[-1].passed:
            continue
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
        # Re-run the premise checks before reporting.
        premises = _reports(system, _PREMISES)
        strong2 = check_identity(IdentityId.STRONG, product=p, bracket=b)
        if not premises[-1].passed or strong2.passed:
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
    num = _small(rng)
    while not num:
        num = _small(rng)
    return num / rng.choice((1, 1, 2))


def _instance(
    label: str, base: AlgebraSystem, bracket: SkewBracket, derivation: DerivationMatrix
) -> CorpusInstance:
    # A family's product and labels with bracket "b" and derivation "d".
    system = AlgebraSystem(
        base.dim,
        base.product,
        brackets={"b": bracket},
        derivations={"d": derivation},
        basis_labels=base.basis_labels,
    )
    return CorpusInstance(label, system, "b", "d")


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
                coeffs[r] = _small(rng)
        matrix = poly_derivation(m, coeffs)
        base = make_truncated_poly(m)
        bracket = derivation_bracket(base.product, matrix)
        yield _instance(f"truncpoly(m={m})#{k}", base, bracket, matrix)


def _tensor_parts(rng: random.Random, a: int, b: int):
    """make_tensor_trunc(a, b), the bracket bootstrapped from one random
    diagonal derivation, and a second one, which commutes with the first."""
    base = make_tensor_trunc(a, b)
    maps = []
    for _ in range(2):
        alpha, beta = rng.randint(-2, 2), rng.randint(-2, 2)
        if alpha == 0 and beta == 0:
            alpha = 1
        maps.append(tensor_diagonal_derivation(a, b, alpha, beta))
    return base, derivation_bracket(base.product, maps[0]), maps[1]


def _tensor_instances(rng: random.Random):
    shapes = ((2, 2), (2, 3), (3, 2))
    k = 0
    while True:
        a, b = shapes[k % len(shapes)]
        k += 1
        base, bracket, second = _tensor_parts(rng, a, b)
        yield _instance(f"tensor({a},{b})#{k}", base, bracket, second)


def _zero_instance(m: int, k: int) -> CorpusInstance:
    base = make_truncated_poly(m)
    return _instance(f"zero(m={m})#{k}", base, SkewBracket.zero(m, 2), base.derivations["euler"])


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
            yield _zero_instance(2 + k % 4, k)
        elif phase == 1:
            # random skew bracket over a known-good product
            m = 2 + k % 3
            base = make_truncated_poly(m)
            euler = base.derivations["euler"]
            for _ in range(8):
                entries = _random_entries(random.Random(rng.getrandbits(32)), m, 2, 0.5)
                bracket = SkewBracket(m, 2, entries)
                inst = _instance(f"randbracket(m={m})#{k}", base, bracket, euler)
                if _reports(inst.system, (IdentityId.NL, IdentityId.TP))[-1].passed:
                    if not _reports(inst.system, (IdentityId.DER_BRK,))[-1].passed:
                        inst = replace(inst, derivation_name=None)
                    yield inst
                    break
            else:
                yield _zero_instance(2 + k % 3, k)
        else:
            # fully random system, hypothesis-filtered
            for _ in range(8):
                system = random_system(2, 2, rng.choice((0, Fraction(1, 2))), rng.getrandbits(32))
                if _reports(system, _HYPOTHESES)[-1].passed:
                    ok = _reports(system, (IdentityId.DER_MUL, IdentityId.DER_BRK))[-1].passed
                    yield CorpusInstance(f"random#{k}", system, "b", "d" if ok else None)
                    break
            else:
                yield _zero_instance(2 + k % 4, k)


def binary_sweep_corpus(seed: int = 0, count: int = 108) -> list[CorpusInstance]:
    """Deterministic arity-2 instances: bootstrapped brackets on truncated
    polynomial rings and tensor truncations, zero brackets, and hypothesis-
    filtered random systems."""
    _integer(count, "count", 0)
    rng = random.Random(_integer(seed, "seed", 0))
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
    _integer(count, "count", 0)
    rng = random.Random(_integer(seed, "seed", 0))
    shapes = ((2, 2), (2, 2), (2, 2), (2, 3), (2, 2), (2, 2), (3, 2), (2, 2))
    out: list[CorpusInstance] = []
    k = 0
    while len(out) < count:
        k += 1
        which = k % (len(shapes) + 2)
        if which < len(shapes):
            a, b = shapes[which]
            base, binary, second = _tensor_parts(rng, a, b)
            mu3 = extend_bracket(base.product, binary, second)
            out.append(_instance(f"tensor({a},{b})-ext#{k}", base, mu3, second))
            continue
        m = 3 + k % 3
        base = make_truncated_poly(m)
        euler = base.derivations["euler"]
        if which == len(shapes):
            out.append(_instance(f"zero3(m={m})#{k}", base, SkewBracket.zero(m, 3), euler))
        else:
            # Extending the Euler bracket by Euler again cancels exactly,
            # giving a legal all-zero arity-3 instance.
            mu3 = extend_bracket(base.product, base.brackets["b1"], euler)
            out.append(_instance(f"collapsed(m={m})#{k}", base, mu3, euler))
    return out
