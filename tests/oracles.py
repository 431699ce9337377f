"""Reference implementations that several test modules compare the package
against; test modules import this file by name, since pytest puts the
tests directory on the import path."""

from __future__ import annotations

from typing import Sequence

from triwedge.exact_scalar import Matrix, Scalar
from triwedge.exterior_core import AlternatingTensor
from triwedge.form_analysis import LinearSubspace, QuadricAnalysis, SkewLinearMatrix


def entry_form(M: SkewLinearMatrix, i: int, j: int) -> AlternatingTensor:
    """The (i, j) entry of a skew matrix of linear forms as a 1-form, read
    directly from its pair table."""
    terms = dict(M.pairs).get((min(i, j), max(i, j)), ())
    form = AlternatingTensor.make(M.ctx, 1, "form", [((k,), c) for k, c in terms])
    return form if i < j else form.neg()


def transpose(m: Matrix) -> Matrix:
    """The transpose, entry by entry."""
    flat = tuple(
        m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)
    )
    return Matrix(m.field, m.cols, m.rows, flat)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product of two matrices over one field, entry by entry."""
    f = a.field
    flat = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero()
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a.entry(i, k), b.entry(k, j)))
            flat.append(acc)
    return Matrix(f, a.rows, b.cols, tuple(flat))


def matvec_reference(m: Matrix, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """The product with a column vector by field operations, one term at a
    time."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    f = m.field
    out = []
    for i in range(m.rows):
        acc = f.zero()
        for a, b in zip(m.row(i), vec):
            if a != 0 and b != 0:
                acc = f.add(acc, f.mul(a, b))
        out.append(acc)
    return tuple(out)


def triangle_rows_reference(kind: str, depth: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..depth-1 of the a, b or c triangle, entry by entry:
    entry(i, j) = entry(i, j-1) + entry(i-1, j), out-of-range entries 0."""
    first_column = {
        "a": lambda i: 1 if i % 2 == 0 else 0,
        "b": lambda i: 1,
        "c": lambda i: 0 if i % 2 == 0 else 1,
    }[kind]
    rows: list[list[int]] = []
    for i in range(depth):
        row = [first_column(i)]
        for j in range(1, i + 1):
            above = rows[i - 1][j] if j <= i - 1 else 0
            row.append(row[j - 1] + above)
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def same_subspace(a: LinearSubspace, b: LinearSubspace) -> bool:
    """Whether two subspaces of one ambient space are equal: one contains
    the other and their dimensions agree."""
    return a.linear_dim == b.linear_dim and a.contains_subspace(b)


def singular_locus(quadric: QuadricAnalysis) -> LinearSubspace:
    """The singular subspace of a quadric: the kernel of its polar matrix."""
    return LinearSubspace.from_kernel(quadric.rho, "bivectors", quadric.eta.ctx)


def quadric_contains_subspace(quadric: QuadricAnalysis, space: LinearSubspace) -> bool:
    """Whether a quadric vanishes identically on a linear space of bivectors:
    q = 0 on a basis and the polar pairing vanishes pairwise (sufficient in
    every characteristic, including 2)."""
    fld = quadric.eta.ctx.field
    vectors = space.basis_tensors()
    for i, u in enumerate(vectors):
        if not fld.is_zero(quadric.value(u)):
            return False
        for v in vectors[i + 1 :]:
            if not fld.is_zero(quadric.polar_pairing(u, v)):
                return False
    return True
