"""Exterior algebra over a fixed space: wedge, pairing, contraction, splitting.

An `AlternatingTensor` is a sparse alternating k-vector or k-form: a map from
strictly increasing index tuples over ``{0..n}`` to nonzero field scalars.
The same representation carries both variances; "vector" tensors live in
Λ^k(V) and "form" tensors in Λ^k(V*), and only the pairing and contraction
mix the two.  All sign conventions are anchored to the determinant pairing

    <x_{i1}^...^x_{ik}, e_{j1}^...^e_{jk}> = det(<x_{i_s}, e_{j_t}>)

which equals the Kronecker delta on matching sorted index sets; contraction
is then *defined* by the adjunction <contract(f, v), w> = <f, v^w>, so every
other sign in the package is forced rather than chosen.

The reduced square of a bivector L halves the wedge square, L^L = 2·L^[2],
which keeps decomposability detection valid in characteristic 2; its
coefficients are the principal 4x4 Pfaffians of the skew coefficient matrix
of L.  `split_along_covector` realizes the decomposition omega = omega_x +
beta_x^x used throughout the rank analysis, with a deterministic pivot rule
for the auxiliary vector e (minimal index with x_i != 0, scaled so x(e)=1).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .exact_scalar import ConventionError, FieldSpec, Scalar

__all__ = [
    "SpaceContext",
    "AlternatingTensor",
    "pair",
    "wedge",
    "contract",
    "covector_contract",
    "reduced_square",
    "split_along_covector",
    "random_tensor",
    "pullback",
    "reduce_mod_p",
    "projective_points",
    "projective_point_count",
    "form_to_document",
    "form_from_document",
    "derive_seed",
]

IndexSet = tuple[int, ...]


@dataclass(frozen=True)
class SpaceContext:
    """An (n+1)-dimensional vector space over a fixed field, n >= 3 projective."""

    n: int
    field: FieldSpec

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"projective dimension must be >= 3, got {self.n}")

    @property
    def dim(self) -> int:
        return self.n + 1

    def index_sets(self, k: int) -> Iterable[IndexSet]:
        return itertools.combinations(range(self.dim), k)

    def basis_vector(self, i: int) -> "AlternatingTensor":
        return AlternatingTensor.make(self, 1, "vector", {(i,): 1})

    def basis_covector(self, i: int) -> "AlternatingTensor":
        return AlternatingTensor.make(self, 1, "form", {(i,): 1})

    def zero_tensor(self, degree: int, variance: str) -> "AlternatingTensor":
        return AlternatingTensor.make(self, degree, variance, {})

    def vector_from_coords(self, coords: Sequence[Scalar]) -> "AlternatingTensor":
        return AlternatingTensor.make(
            self, 1, "vector", {(i,): c for i, c in enumerate(coords)}
        )

    def covector_from_coords(self, coords: Sequence[Scalar]) -> "AlternatingTensor":
        return AlternatingTensor.make(
            self, 1, "form", {(i,): c for i, c in enumerate(coords)}
        )

    def tensor_from_coords(
        self, k: int, variance: str, coords: Sequence[Scalar]
    ) -> "AlternatingTensor":
        """Inverse of AlternatingTensor.coords(): dense vector over the
        lexicographic index sets back to a sparse tensor."""
        keys = list(self.index_sets(k))
        if len(coords) != len(keys):
            raise ValueError(
                f"need {len(keys)} coordinates for degree {k}, got {len(coords)}"
            )
        return AlternatingTensor.make(
            self, k, variance, dict(zip(keys, coords))
        )


def _sort_with_sign(indices: Sequence[int]) -> tuple[IndexSet | None, int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Repeated indices make the alternating term vanish; flagged by (None, 0).
    """
    idx = list(indices)
    swaps = 0
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            swaps += 1
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), (-1 if swaps % 2 else 1)


def _merge_sign(left: IndexSet, right: IndexSet) -> int:
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = 0
    for r in right:
        for l in left:
            if l > r:
                inversions += 1
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class AlternatingTensor:
    """Sparse alternating tensor: sorted index sets mapped to nonzero scalars."""

    ctx: SpaceContext
    degree: int
    variance: str
    terms: tuple[tuple[IndexSet, Scalar], ...]

    def __post_init__(self) -> None:
        if self.variance not in ("vector", "form"):
            raise ValueError(f"variance must be vector|form, got {self.variance!r}")
        if not (0 <= self.degree <= self.ctx.dim):
            raise ValueError(f"degree {self.degree} out of range for n={self.ctx.n}")
        field = self.ctx.field
        previous: IndexSet | None = None
        for key, value in self.terms:
            if len(key) != self.degree:
                raise ValueError(f"index set {key} has wrong size")
            if any(not (0 <= i <= self.ctx.n) for i in key):
                raise ValueError(f"index set {key} out of range")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"index set {key} not strictly increasing")
            if field.is_zero(value):
                raise ValueError("stored zero coefficient (use make)")
            if previous is not None and key <= previous:
                raise ValueError("terms not sorted by index set")
            previous = key

    @staticmethod
    def make(
        ctx: SpaceContext,
        degree: int,
        variance: str,
        coeffs: Mapping[Sequence[int], Scalar | str]
        | Iterable[tuple[Sequence[int], Scalar | str]],
    ) -> "AlternatingTensor":
        """Canonicalize arbitrary (indices, coeff) data: sort indices with sign,
        accumulate duplicates, coerce scalars, drop zeros."""
        field = ctx.field
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[IndexSet, Scalar] = {}
        for raw_key, raw_val in items:
            key, sign = _sort_with_sign(tuple(raw_key))
            if key is None:
                continue
            value = field.coerce(raw_val)
            if sign < 0:
                value = field.neg(value)
            if key in acc:
                value = field.add(acc[key], value)
            acc[key] = value
        cleaned = tuple(
            sorted((k, v) for k, v in acc.items() if not field.is_zero(v))
        )
        return AlternatingTensor(ctx, degree, variance, cleaned)

    # -- inspection ------------------------------------------------------------

    def coeff_map(self) -> dict[IndexSet, Scalar]:
        return dict(self.terms)

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        key, sign = _sort_with_sign(tuple(indices))
        if key is None:
            return self.ctx.field.zero()
        for k, v in self.terms:
            if k == key:
                return v if sign > 0 else self.ctx.field.neg(v)
        return self.ctx.field.zero()

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for key, _ in self.terms:
            seen.update(key)
        return tuple(sorted(seen))

    def coords(self) -> tuple[Scalar, ...]:
        """Dense coefficient vector over all sorted index sets, lexicographic."""
        cmap = self.coeff_map()
        zero = self.ctx.field.zero()
        return tuple(
            cmap.get(key, zero) for key in self.ctx.index_sets(self.degree)
        )

    # -- linear structure --------------------------------------------------------

    def _check_same_space(self, other: "AlternatingTensor") -> None:
        if self.ctx != other.ctx:
            raise ValueError("tensors live in different spaces")

    def add(self, other: "AlternatingTensor") -> "AlternatingTensor":
        self._check_same_space(other)
        if (self.degree, self.variance) != (other.degree, other.variance):
            raise ValueError("degree/variance mismatch in addition")
        merged: list[tuple[Sequence[int], Scalar]] = list(self.terms)
        merged.extend(other.terms)
        return AlternatingTensor.make(self.ctx, self.degree, self.variance, merged)

    def neg(self) -> "AlternatingTensor":
        field = self.ctx.field
        return AlternatingTensor(
            self.ctx,
            self.degree,
            self.variance,
            tuple((k, field.neg(v)) for k, v in self.terms),
        )

    def sub(self, other: "AlternatingTensor") -> "AlternatingTensor":
        return self.add(other.neg())

    def scale(self, c: Scalar | str) -> "AlternatingTensor":
        field = self.ctx.field
        c = field.coerce(c)
        if field.is_zero(c):
            return AlternatingTensor(self.ctx, self.degree, self.variance, ())
        return AlternatingTensor(
            self.ctx,
            self.degree,
            self.variance,
            tuple((k, field.mul(c, v)) for k, v in self.terms),
        )


def pair(f: AlternatingTensor, v: AlternatingTensor) -> Scalar:
    """Determinant pairing of a k-form against a k-vector (delta on index sets)."""
    if f.ctx != v.ctx:
        raise ValueError("pairing across different spaces")
    if f.variance != "form" or v.variance != "vector":
        raise ValueError("pair expects (form, vector)")
    if f.degree != v.degree:
        raise ValueError("pairing degrees differ")
    field = f.ctx.field
    vmap = v.coeff_map()
    acc = field.zero()
    for key, a in f.terms:
        b = vmap.get(key)
        if b is not None:
            acc = field.add(acc, field.mul(a, b))
    return acc


def wedge(a: AlternatingTensor, b: AlternatingTensor) -> AlternatingTensor:
    """Alternating product with shuffle signs; graded-commutative."""
    a._check_same_space(b)
    if a.variance != b.variance:
        raise ValueError("wedge requires matching variance")
    if a.degree + b.degree > a.ctx.dim:
        raise ValueError("wedge degree exceeds space dimension")
    field = a.ctx.field
    acc: dict[IndexSet, Scalar] = {}
    for ka, va in a.terms:
        sa = set(ka)
        for kb, vb in b.terms:
            if sa.intersection(kb):
                continue
            sign = _merge_sign(ka, kb)
            key = tuple(sorted(ka + kb))
            term = field.mul(va, vb)
            if sign < 0:
                term = field.neg(term)
            if key in acc:
                acc[key] = field.add(acc[key], term)
            else:
                acc[key] = term
    cleaned = tuple(sorted((k, v) for k, v in acc.items() if not field.is_zero(v)))
    return AlternatingTensor(a.ctx, a.degree + b.degree, a.variance, cleaned)


def contract(f: AlternatingTensor, v: AlternatingTensor) -> AlternatingTensor:
    """Interior product defined by <contract(f, v), w> = <f, v^w>."""
    if f.ctx != v.ctx:
        raise ValueError("contraction across different spaces")
    if f.variance != "form" or v.variance != "vector":
        raise ValueError("contract expects (form, vector)")
    if v.degree > f.degree:
        raise ValueError("cannot contract by a higher degree")
    field = f.ctx.field
    acc: dict[IndexSet, Scalar] = {}
    for kf, cf in f.terms:
        sf = set(kf)
        for kv, cv in v.terms:
            if not sf.issuperset(kv):
                continue
            rest = tuple(i for i in kf if i not in kv)
            sign = _merge_sign(kv, rest)
            term = field.mul(cv, cf)
            if sign < 0:
                term = field.neg(term)
            if rest in acc:
                acc[rest] = field.add(acc[rest], term)
            else:
                acc[rest] = term
    cleaned = tuple(sorted((k, v) for k, v in acc.items() if not field.is_zero(v)))
    return AlternatingTensor(f.ctx, f.degree - v.degree, "form", cleaned)


def covector_contract(f: AlternatingTensor, v: AlternatingTensor) -> AlternatingTensor:
    """Contraction on the vector side: <g, covector_contract(f, v)> = <f^g, v>
    for every form g of the complementary degree.  Returns a vector of degree
    v.degree - f.degree."""
    if f.ctx != v.ctx:
        raise ValueError("contraction across different spaces")
    if f.variance != "form" or v.variance != "vector":
        raise ValueError("covector_contract expects (form, vector)")
    if f.degree > v.degree:
        raise ValueError("cannot contract by a higher degree")
    field = f.ctx.field
    acc: dict[IndexSet, Scalar] = {}
    for kv, cv in v.terms:
        sv = set(kv)
        for kf, cf in f.terms:
            if not sv.issuperset(kf):
                continue
            rest = tuple(i for i in kv if i not in kf)
            sign = _merge_sign(kf, rest)
            term = field.mul(cf, cv)
            if sign < 0:
                term = field.neg(term)
            if rest in acc:
                acc[rest] = field.add(acc[rest], term)
            else:
                acc[rest] = term
    cleaned = tuple(sorted((k, v2) for k, v2 in acc.items() if not field.is_zero(v2)))
    return AlternatingTensor(f.ctx, v.degree - f.degree, "vector", cleaned)


def projective_point_count(p: int, length: int) -> int:
    """Number of points of projective (length-1)-space over F_p."""
    return (p**length - 1) // (p - 1)


def projective_points(field: FieldSpec, length: int) -> Iterable[tuple[int, ...]]:
    """All points of P^(length-1) over a prime field, normalized so the first
    nonzero coordinate is 1; deterministic lexicographic order."""
    if field.kind != "prime":
        raise ValueError("projective enumeration needs a finite field")
    p: int = field.p  # type: ignore[assignment]
    for pivot in range(length):
        tail_len = length - pivot - 1
        for tail_code in range(p**tail_len):
            tail = []
            code = tail_code
            for _ in range(tail_len):
                code, digit = divmod(code, p)
                tail.append(digit)
            yield (0,) * pivot + (1,) + tuple(tail)


def reduced_square(L: AlternatingTensor) -> AlternatingTensor:
    """Half the wedge square of a bivector: the 4-vector of principal 4x4
    Pfaffians of its skew coefficient matrix.  Zero iff L is decomposable,
    in every characteristic (including 2, where L^L itself is uninformative).
    """
    if L.variance != "vector" or L.degree != 2:
        raise ValueError("reduced_square expects a degree-2 vector")
    field = L.ctx.field
    cmap = L.coeff_map()

    def entry(i: int, j: int) -> Scalar:
        if i < j:
            return cmap.get((i, j), field.zero())
        if i > j:
            return field.neg(cmap.get((j, i), field.zero()))
        return field.zero()

    acc: dict[IndexSet, Scalar] = {}
    support = L.support()
    for quad in itertools.combinations(support, 4):
        i, j, h, k = quad
        # principal 4x4 Pfaffian: a_ij a_hk - a_ih a_jk + a_ik a_jh
        value = field.add(
            field.sub(
                field.mul(entry(i, j), entry(h, k)),
                field.mul(entry(i, h), entry(j, k)),
            ),
            field.mul(entry(i, k), entry(j, h)),
        )
        if not field.is_zero(value):
            acc[quad] = value
    cleaned = tuple(sorted(acc.items()))
    return AlternatingTensor(L.ctx, 4, "vector", cleaned)


def split_along_covector(
    omega: AlternatingTensor, x: AlternatingTensor
) -> tuple[AlternatingTensor, AlternatingTensor, AlternatingTensor]:
    """Split a 3-form as omega = omega_x + beta_x^x with both parts killed by e.

    The auxiliary vector e is pinned by a deterministic pivot rule: the minimal
    index i with x_i != 0, scaled so that x(e) = 1.  Returns (omega_x, beta_x, e);
    contract(omega_x, e) = contract(beta_x, e) = 0 and the sum reassembles omega.
    """
    if omega.variance != "form" or omega.degree != 3:
        raise ValueError("split expects a 3-form")
    if x.variance != "form" or x.degree != 1:
        raise ValueError("split expects a 1-form direction")
    if x.is_zero():
        raise ValueError("cannot split along the zero covector")
    if omega.ctx != x.ctx:
        raise ValueError("tensors live in different spaces")
    field = omega.ctx.field
    pivot, coeff = x.terms[0]  # terms sorted, so this is the minimal nonzero index
    e = AlternatingTensor.make(
        omega.ctx, 1, "vector", {pivot: field.inv(coeff)}
    )
    beta = contract(omega, e)
    omega_x = omega.sub(wedge(beta, x))
    return omega_x, beta, e


def derive_seed(*parts: object) -> int:
    """Deterministic integer sub-seed from a tuple of labels (stable across runs)."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def random_tensor(
    ctx: SpaceContext, k: int, variance: str, seed: int
) -> AlternatingTensor:
    """Seed-deterministic random tensor: uniform coefficients over a prime
    field, small integers in [-10, 10] over the rationals."""
    if not (0 <= k <= ctx.dim):
        raise ValueError(f"degree {k} out of range")
    rng = random.Random(derive_seed("tensor", ctx.n, ctx.field, k, variance, seed))
    coeffs: dict[IndexSet, Scalar] = {}
    for key in ctx.index_sets(k):
        if ctx.field.kind == "prime":
            value = rng.randrange(ctx.field.p)  # type: ignore[arg-type]
        else:
            value = rng.randint(-10, 10)
        coeffs[key] = value
    return AlternatingTensor.make(ctx, k, variance, coeffs)


def pullback(
    form: AlternatingTensor, basis: Sequence[AlternatingTensor]
) -> AlternatingTensor:
    """Restrict a k-form to the subspace spanned by the given vectors.

    The result lives in a fresh SpaceContext of the subspace's dimension; its
    coefficient at (i1 < ... < ik) is the form evaluated on b_{i1}^...^b_{ik}.
    """
    if form.variance != "form":
        raise ValueError("pullback expects a form")
    if any(b.variance != "vector" or b.degree != 1 for b in basis):
        raise ValueError("basis must consist of degree-1 vectors")
    sub_ctx = SpaceContext(len(basis) - 1, form.ctx.field)
    k = form.degree
    coeffs: dict[IndexSet, Scalar] = {}
    for key in itertools.combinations(range(len(basis)), k):
        vec = basis[key[0]]
        blade = vec
        for i in key[1:]:
            blade = wedge(blade, basis[i])
        value = pair(form, blade)
        coeffs[key] = value
    return AlternatingTensor.make(sub_ctx, k, "form", coeffs)


def reduce_mod_p(tensor: AlternatingTensor, p: int) -> AlternatingTensor:
    """The same tensor with its coefficients reduced into F_p.

    A tensor over F_p is returned as it is; one over another prime field
    raises `ConventionError`.
    """
    field = FieldSpec.prime(p)
    source = tensor.ctx.field
    if source.kind == "prime":
        if source.p != p:
            raise ConventionError("tensor already lives over a different prime field")
        return tensor
    ctx = SpaceContext(n=tensor.ctx.n, field=field)
    mapping = {key: field.coerce(value) for key, value in tensor.terms}
    return AlternatingTensor.make(ctx, tensor.degree, tensor.variance, mapping)


# -- form file format ---------------------------------------------------------


def form_to_document(t: AlternatingTensor) -> dict:
    """Serialize a form to the JSON-able document consumed by the CLI."""
    field_doc = (
        {"kind": "rational"}
        if t.ctx.field.kind == "rational"
        else {"kind": "prime", "p": t.ctx.field.p}
    )
    return {
        "n": t.ctx.n,
        "field": field_doc,
        "terms": [
            {"indices": list(key), "coeff": str(value)} for key, value in t.terms
        ],
    }


def form_from_document(doc: Mapping, degree: int = 3) -> AlternatingTensor:
    """Parse the JSON form document; indices must be strictly increasing."""
    try:
        n = int(doc["n"])
        field_doc = doc["field"]
        kind = field_doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed form document: missing {exc}") from exc
    if kind == "rational":
        field = FieldSpec.rationals()
    elif kind == "prime":
        field = FieldSpec.prime(int(field_doc["p"]))
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    ctx = SpaceContext(n, field)
    coeffs: list[tuple[Sequence[int], Scalar | str]] = []
    for term in doc.get("terms", []):
        indices = tuple(int(i) for i in term["indices"])
        if len(indices) != degree:
            raise ValueError(f"term {indices} does not have degree {degree}")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError(f"indices {indices} not strictly increasing")
        coeffs.append((indices, str(term["coeff"])))
    return AlternatingTensor.make(ctx, degree, "form", coeffs)
