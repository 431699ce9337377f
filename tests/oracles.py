"""Reference implementations that several test modules compare the package
against; test modules import this file by name, since pytest puts the
tests directory on the import path."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from triwedge.degeneracy import (
    build_M,
    directions_through,
    line_gcd,
    random_points,
    split_decomposable,
)
from triwedge.exact_scalar import (
    ConventionError,
    FieldSpec,
    Matrix,
    Scalar,
    UniPoly,
    matrix_rank,
    packed_skew_mod_p,
    randbelow_many,
    rank_kernel,
    skew_slot_width,
)
from triwedge.exterior_core import (
    _BELOW,
    _MASKS,
    AlternatingTensor,
    SpaceContext,
    _position_subsets,
    _settle,
    _trusted,
    contract,
    covector_contract,
    derive_seed,
    pair,
    projective_points,
    pullback,
    wedge,
)
from triwedge.form_analysis import (
    LinearSubspace,
    QuadricAnalysis,
    SkewLinearMatrix,
    SpanLattice,
    point_coords,
)
from triwedge.residual import _PLANE_SCAN_ROUNDS, ResidualHandle


def entry_form(M: SkewLinearMatrix, i: int, j: int) -> AlternatingTensor:
    """The (i, j) entry of a skew matrix of linear forms as a 1-form, read
    directly from its pair table."""
    terms = dict(M.pairs).get((min(i, j), max(i, j)), ())
    form = AlternatingTensor.make(M.ctx, 1, "form", [((k,), c) for k, c in terms])
    return form if i < j else form.neg()


def evaluate_reference(M: SkewLinearMatrix, coords: Sequence[Scalar]) -> Matrix:
    """The skew matrix of linear forms at a point, entry by entry with field
    operations."""
    fld = M.ctx.field
    coords = [fld.coerce(value) for value in coords]
    dim = M.size
    rows = [[fld.zero()] * dim for _ in range(dim)]
    for (i, j), terms in M.pairs:
        acc = fld.zero()
        for k, coeff in terms:
            acc = fld.add(acc, fld.mul(coeff, coords[k]))
        rows[i][j] = acc
        rows[j][i] = fld.neg(acc)
    return Matrix(fld, dim, dim, tuple(value for row in rows for value in row))


def projective_points_reference(field: FieldSpec, length: int):
    """The points of P^(length-1) over F_p with first nonzero coordinate 1,
    by pivot, each tail decoded from a counter by `divmod` digits, lowest
    digit first."""
    p = field.p
    for pivot in range(length):
        tail_len = length - pivot - 1
        for tail_code in range(p**tail_len):
            tail = []
            code = tail_code
            for _ in range(tail_len):
                code, digit = divmod(code, p)
                tail.append(digit)
            yield (0,) * pivot + (1,) + tuple(tail)


def packed_rows_reference(M: SkewLinearMatrix, coords: Sequence[int]) -> tuple[list[int], int]:
    """The packed rows of M over F_p from one table per row: for each row a,
    the pairs (k, R) whose slot b holds the coefficient of x_k in the (a, b)
    entry as a residue, summed as P_k * R; coordinates outside [0, p) are
    coerced first."""
    p = M.ctx.field.p
    dim = M.size
    if min(coords) < 0 or max(coords) >= p:
        coords = point_coords(M.ctx, coords)
    width = skew_slot_width(p, dim, dim * (p - 1) ** 2)
    table: list[dict[int, int]] = [{} for _ in range(dim)]
    for (i, j), terms in M.pairs:
        merged: dict[int, int] = {}
        for k, c in terms:
            merged[k] = merged.get(k, 0) + c
        for k, c in merged.items():
            c %= p
            if c:
                table[i][k] = table[i].get(k, 0) + (c << j * width)
                table[j][k] = table[j].get(k, 0) + ((p - c) << i * width)
    rows = [sum(coords[k] * packed for k, packed in row.items()) for row in table]
    return rows, width


def point_ranks_reference(M: SkewLinearMatrix, points) -> Iterator[int]:
    """The rank of M at each of ``points``, one point at a time, as
    `point_ranks` took them before it ranked blocks on byte lanes.  Over F_p
    each point is coerced (`point_coords`) and ranked by `packed_skew_mod_p`
    on `SkewLinearMatrix.packed_rows_at`, leaving out the last index k with
    P_k != 0 when M(x)·x = 0 holds identically (0 at the zero point); over
    the rationals the rank is `matrix_rank` of the rows of `M.evaluate`."""
    p = M.ctx.field.p
    if p is None:
        for point in points:
            yield matrix_rank(M.ctx.field, row_lists(M.evaluate(point)))
        return
    in_kernel = M.point_in_kernel
    for point in points:
        coords = point_coords(M.ctx, point)
        rows, width = M.packed_rows_at(coords)
        if not in_kernel:
            yield packed_skew_mod_p(p, rows, width)[0]
            continue
        last = len(rows) - 1
        while last >= 0 and not coords[last]:
            last -= 1
        if last < 0:
            yield 0
        else:
            indices = [*range(last), *range(last + 1, len(rows))]
            yield packed_skew_mod_p(p, rows, width, indices)[0]


def point_contraction_rank_reference(M: SkewLinearMatrix, coords) -> int:
    """The rank of M at one point: `point_ranks_reference` of that point."""
    return next(point_ranks_reference(M, [coords]))


def first_rank_at_most_two_reference(M: SkewLinearMatrix, points):
    """The first (index, point) of ``points`` at which every 4x4 principal
    Pfaffian of `M.quartets` vanishes, each summed term by term (reduced
    mod p over F_p), or None."""
    p = M.ctx.field.p
    for index, point in enumerate(points):
        coords = point if p is not None else point_coords(M.ctx, point)
        for quartet in M.quartets:
            acc = 0
            for first, second, sign in quartet:
                u = sum(c * coords[k] for k, c in first)
                v = sum(c * coords[k] for k, c in second)
                acc += sign * u * v
            if p is not None:
                acc %= p
            if acc:
                break
        else:
            return index, point
    return None


def point_in_kernel_reference(M: SkewLinearMatrix) -> bool:
    """Whether M(x)·x = 0 identically, from evaluated matrices: row i of
    M(x)·x is a quadratic form q, and q(e_j) and
    q(e_j + e_k) - q(e_j) - q(e_k) are its coefficients, in every
    characteristic."""
    fld = M.ctx.field
    dim = M.size

    def image(point: list) -> tuple:
        return evaluate_reference(M, point).matvec(point)

    units = [[int(i == j) for i in range(dim)] for j in range(dim)]
    values = [image(e) for e in units]
    if any(any(v) for v in values):
        return False
    for j, k in itertools.combinations(range(dim), 2):
        point = [a + b for a, b in zip(units[j], units[k])]
        if any(fld.sub(v, fld.add(a, b)) for v, a, b in zip(image(point), values[j], values[k])):
            return False
    return True


def matrix_from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> Matrix:
    """The matrix with the given rows, each value coerced into the field; a
    ragged row raises `ValueError`."""
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    flat = tuple(field.coerce(v) for row in rows for v in row)
    return Matrix(field, len(rows), ncols, flat)


def matrix_from_columns(field: FieldSpec, nrows: int, columns: Sequence[Sequence]) -> Matrix:
    """The ``nrows x len(columns)`` matrix with the given columns of field
    elements, uncoerced."""
    flat = tuple(v for row in zip(*columns) for v in row) if nrows else ()
    return Matrix(field, nrows, len(columns), flat)


def row_lists(m: Matrix) -> list[list]:
    """The rows of a matrix as fresh lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def evaluated_rank(M: SkewLinearMatrix, point) -> int:
    """The rank of M at a point: `rank_kernel` on the rows of `M.evaluate`."""
    m = M.evaluate(point)
    return rank_kernel(m.field, row_lists(m), m.cols)[0]


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


def rref_reference(field: FieldSpec, a: list[list], cols: int) -> list[int]:
    """Field-generic Gauss-Jordan through `FieldSpec` arithmetic, one entry
    at a time, in place; returns the pivot columns.  Row ``r`` of ``a`` ends
    holding reduced row ``r`` as field elements, zero below the rank."""
    pivots: list[int] = []
    pivot_row = 0
    nrows = len(a)
    for col in range(cols):
        src = next(
            (r for r in range(pivot_row, nrows) if not field.is_zero(a[r][col])), None
        )
        if src is None:
            continue
        a[pivot_row], a[src] = a[src], a[pivot_row]
        inv_p = field.inv(a[pivot_row][col])
        row = a[pivot_row]
        for c in range(col, cols):
            row[c] = field.mul(row[c], inv_p)
        for r in range(nrows):
            if r == pivot_row:
                continue
            factor = a[r][col]
            if field.is_zero(factor):
                continue
            target = a[r]
            for c in range(col, cols):
                target[c] = field.sub(target[c], field.mul(factor, row[c]))
        pivots.append(col)
        pivot_row += 1
        if pivot_row == nrows:
            break
    return pivots


def rank_kernel_reference(
    field: FieldSpec, rows: Sequence[Sequence], cols: int
) -> tuple[int, tuple[tuple, ...]]:
    """Rank and kernel basis of the rows, with each kernel entry read off
    the reduced rows of `rref_reference`."""
    a = [list(row) for row in rows]
    pivots = rref_reference(field, a, cols)
    free = [c for c in range(cols) if c not in pivots]
    zero, one = field.zero(), field.one()
    kernel = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(a[r][fc])
        kernel.append(tuple(vec))
    return len(pivots), tuple(kernel)


def det_reference(m: Matrix) -> Scalar:
    """Determinant by Gaussian elimination with field operations, one entry
    at a time, over either field."""
    f = m.field
    a = row_lists(m)
    size = m.rows
    det = f.one()
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if not f.is_zero(a[r][col])), None
        )
        if pivot_row is None:
            return f.zero()
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = f.neg(det)
        pivot = a[col][col]
        det = f.mul(det, pivot)
        inv_p = f.inv(pivot)
        for r in range(col + 1, size):
            factor = f.mul(a[r][col], inv_p)
            if f.is_zero(factor):
                continue
            for c in range(col, size):
                a[r][c] = f.sub(a[r][c], f.mul(factor, a[col][c]))
    return det


def line_system_reference(handle: ResidualHandle, point) -> Matrix:
    """The matrix of the residual line system at a point, built from tensors:
    column j is contract(omega, P^e_j) reduced modulo x and y, kept off their
    pivots, followed by (x^y)(P^e_j)."""
    ctx = handle.ctx
    field = ctx.field
    coords = point_coords(ctx, point)
    quotient = [list(handle.x.coords()), list(handle.y.coords())]
    pivots = rref_reference(field, quotient, ctx.dim)
    keep = [i for i in range(ctx.dim) if i not in pivots]
    xy = wedge(handle.x, handle.y)
    anchor = ctx.vector_from_coords(coords)
    columns: list[list[Scalar]] = []
    for j in range(ctx.dim):
        blade = wedge(anchor, ctx.basis_vector(j))
        g = list(contract(handle.omega, blade).coords())
        for piv, row in zip(pivots, quotient):
            factor = g[piv]
            if not field.is_zero(factor):
                g = [field.sub(a, field.mul(factor, b)) for a, b in zip(g, row)]
        column = [g[i] for i in keep]
        column.append(pair(xy, blade))
        columns.append(column)
    return matrix_from_columns(field, ctx.dim - 1, columns)


def pencil_member_reference(
    handle: ResidualHandle, a: Scalar, b: Scalar
) -> tuple[list[list[Scalar]], AlternatingTensor]:
    """The pencil member {a*x + b*y = 0} as the residual sampler first built
    it: the basis vectors of the annihilator of z = a*x + b*y
    (`LinearSubspace.annihilator`, one `rank_kernel`) as tensors, their
    coordinate lists, and the form pulled back along them (`pullback`, one
    recursive contraction per basis vector)."""
    z = handle.x.scale(a).add(handle.y.scale(b))
    basis = LinearSubspace.annihilator(handle.ctx, [z]).basis_tensors()
    return [list(v.coords()) for v in basis], pullback(handle.omega, basis)


def all_minor_gcd(
    handle: ResidualHandle, first: Sequence[Scalar], second: Sequence[Scalar]
) -> Optional[UniPoly]:
    """Monic gcd of all maximal minors of the residual line system along
    first + t*second, each by `det_reference` on `line_system_reference`,
    folded by `line_gcd`; None when every minor vanishes on the line."""
    ctx = handle.ctx
    rows = list(range(ctx.dim - 1))
    maximal = [[c for c in range(ctx.dim) if c != j] for j in range(ctx.dim)]

    def maximal_minors(coords: list[Scalar]) -> list[Scalar]:
        matrix = line_system_reference(handle, coords)
        return [det_reference(matrix.submatrix(rows, keep)) for keep in maximal]

    return line_gcd(ctx.field, first, second, ctx.n, maximal_minors)


# -- exterior kernels, one field operation per product ------------------------


def pair_reference(f: AlternatingTensor, v: AlternatingTensor) -> Scalar:
    """The determinant pairing of a k-form and a k-vector, summed on field
    elements (Fractions over the rationals)."""
    field = f.ctx.field
    vmap = v.coeff_map()
    acc = field.zero()
    for key, a in f.terms:
        b = vmap.get(key)
        if b is not None:
            acc += a * b
    return acc if field.p is None else acc % field.p


def wedge_reference(a: AlternatingTensor, b: AlternatingTensor) -> AlternatingTensor:
    """The wedge product with every product and sum taken on field elements."""
    masks, below = _MASKS, _BELOW
    right = []
    for kb, vb in b.terms:
        mb = masks[kb]
        right.append((mb, below[mb], vb))
    acc: dict = {}
    get = acc.get
    for ka, va in a.terms:
        ma = masks[ka]
        for mb, pb, vb in right:
            if ma & mb:
                continue
            m = ma | mb
            if (ma & pb).bit_count() & 1:
                acc[m] = get(m, 0) - va * vb
            else:
                acc[m] = get(m, 0) + va * vb
    terms = _settle(acc, a.ctx.field.p)
    return _trusted(a.ctx, a.degree + b.degree, a.variance, terms)


def contract_terms_reference(big: AlternatingTensor, small: AlternatingTensor) -> tuple:
    """The terms of the contraction of ``big`` by ``small``, with every
    product and sum taken on field elements."""
    masks = _MASKS
    lookup = {key: (masks[key], c) for key, c in small.terms}.get
    subsets = _position_subsets(big.degree, small.degree)
    acc: dict = {}
    get = acc.get
    for key, cb in big.terms:
        mb = masks[key]
        for pick, odd in subsets:
            hit = lookup(pick(key))
            if hit is None:
                continue
            ms, cs = hit
            rest = mb ^ ms
            if odd:
                acc[rest] = get(rest, 0) - cs * cb
            else:
                acc[rest] = get(rest, 0) + cs * cb
    return _settle(acc, big.ctx.field.p)


def pullback_reference(
    form: AlternatingTensor, basis: Sequence[AlternatingTensor]
) -> AlternatingTensor:
    """The restriction of a k-form to the span of the basis: the coefficient
    at (i1 < ... < ik) is `pair` of the form with the blade
    b_{i1}^...^b_{ik}, built by k - 1 wedges, and the result goes through
    `AlternatingTensor.make`."""
    if form.variance != "form":
        raise ValueError("pullback expects a form")
    if any(b.variance != "vector" or b.degree != 1 for b in basis):
        raise ValueError("basis must consist of degree-1 vectors")
    sub_ctx = SpaceContext(len(basis) - 1, form.ctx.field)
    k = form.degree
    coeffs: dict = {}
    for key in itertools.combinations(range(len(basis)), k):
        blade = basis[key[0]]
        for i in key[1:]:
            blade = wedge(blade, basis[i])
        coeffs[key] = pair(form, blade)
    return AlternatingTensor.make(sub_ctx, k, "form", coeffs)


def random_tensor_reference(
    ctx: SpaceContext, k: int, variance: str, seed: int
) -> AlternatingTensor:
    """`random_tensor` through `AlternatingTensor.make`: the same draws, with
    every key canonicalised and every value coerced and reduced."""
    if not (0 <= k <= ctx.dim):
        raise ValueError(f"degree {k} out of range")
    rng = random.Random(derive_seed("tensor", ctx.n, ctx.field, k, variance, seed))
    keys = list(ctx.index_sets(k))
    if ctx.field.kind == "prime":
        values = randbelow_many(rng, ctx.field.p, len(keys))
    else:
        values = [rng.randint(-10, 10) for _ in keys]
    return AlternatingTensor.make(ctx, k, variance, dict(zip(keys, values)))


def reduced_square_reference(L: AlternatingTensor) -> AlternatingTensor:
    """Half the wedge square of a bivector, with every product and sum taken
    on field elements."""
    masks, below = _MASKS, _BELOW
    items = []
    for key, value in L.terms:
        m = masks[key]
        items.append((m, below[m], value))
    acc: dict = {}
    get = acc.get
    for start, (ma, _, va) in enumerate(items, 1):
        for mb, pb, vb in items[start:]:
            if ma & mb:
                continue
            m = ma | mb
            if (ma & pb).bit_count() & 1:
                acc[m] = get(m, 0) - va * vb
            else:
                acc[m] = get(m, 0) + va * vb
    return _trusted(L.ctx, 4, "vector", _settle(acc, L.ctx.field.p))


def polar_matrix_reference(eta: AlternatingTensor) -> Matrix:
    """The polar matrix rho of a 4-form by the position loop: each term
    eta_ijhk (i < j < h < k) writes itself at ((ij), (hk)), its negative at
    ((ih), (jk)) and itself at ((ik), (jh)), and each of these at the
    transposed place, into a zero matrix over the lexicographic pairs."""
    fld = eta.ctx.field
    position = {pr: idx for idx, pr in enumerate(eta.ctx.index_sets(2))}
    size = len(position)
    entries = [fld.zero()] * (size * size)
    for (i, j, h, k), coeff in eta.terms:
        minus = fld.neg(coeff)
        for a, b, value in (
            (position[i, j], position[h, k], coeff),
            (position[i, h], position[j, k], minus),
            (position[i, k], position[j, h], coeff),
        ):
            entries[a * size + b] = entries[b * size + a] = value
    return Matrix(fld, size, size, tuple(entries))


def pfaffian_expansion(m: Matrix) -> Scalar:
    """The Pfaffian by memoized recursive expansion along the first row,
    with the checks and messages of `exact_scalar.pfaffian`."""
    if m.rows != m.cols:
        raise ConventionError("pfaffian requires a square matrix")
    if m.rows % 2 != 0:
        raise ConventionError(
            "pfaffian requires even size; pass an even-size principal submatrix"
        )
    if not m.is_skew_symmetric():
        raise ConventionError("pfaffian requires a skew-symmetric matrix")
    field = m.field
    memo: dict[tuple[int, ...], Scalar] = {(): field.one()}

    def pf(indices: tuple[int, ...]) -> Scalar:
        cached = memo.get(indices)
        if cached is not None:
            return cached
        i0, rest = indices[0], indices[1:]
        acc = field.zero()
        for pos, j in enumerate(rest):
            a = m.entry(i0, j)
            if field.is_zero(a):
                continue
            term = field.mul(a, pf(rest[:pos] + rest[pos + 1 :]))
            acc = field.add(acc, term) if pos % 2 == 0 else field.sub(acc, term)
        memo[indices] = acc
        return acc

    return pf(tuple(range(m.rows)))


def interpolate_reference(
    field: FieldSpec, points: Sequence[tuple[Scalar, Scalar]]
) -> UniPoly:
    """Lagrange interpolation with `UniPoly` arithmetic over any field."""
    xs = [field.coerce(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    result = UniPoly.zero(field)
    for i, (_, yi) in enumerate(points):
        yi = field.coerce(yi)
        if field.is_zero(yi):
            continue
        basis = UniPoly.one(field)
        denom = field.one()
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis.mul(UniPoly.from_coeffs(field, [field.neg(xj), field.one()]))
            denom = field.mul(denom, field.sub(xs[i], xj))
        result = result.add(basis.scale(field.div(yi, denom)))
    return result


def roots_scan_reference(poly: UniPoly, p: int) -> list[int]:
    """The roots of a polynomial in F_p by evaluating it at every element,
    in increasing order: the brute-force reference for `poly_roots_mod_p`."""
    return [t for t in range(p) if poly.field.is_zero(poly.eval(t))]


def resultant_reference(f: Sequence[int], g: Sequence[int], p: int) -> int:
    """The determinant of the Sylvester matrix of f and g at the formal
    degrees ``len(f) - 1`` and ``len(g) - 1``, coefficients lowest first."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    if size == 0:
        return 1
    rows = [[0] * i + list(f[::-1]) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g[::-1]) + [0] * (m - 1 - i) for i in range(m)]
    field = FieldSpec.prime(p)
    return det_reference(matrix_from_rows(field, [[v % p for v in row] for row in rows]))


def ternary_zeros_reference(forms, p: int) -> list[tuple[int, ...]]:
    """The common zeros in P^2(F_p) of ternary forms {(a, b, c): coefficient}
    by evaluation at every point, in `projective_points` order."""
    return [
        point
        for point in projective_points(FieldSpec.prime(p), 3)
        if all(
            sum(v * point[0] ** a * point[1] ** b * point[2] ** c for (a, b, c), v in form.items())
            % p
            == 0
            for form in forms
        )
    ]


def all_subpfaffian_gcd(
    M: SkewLinearMatrix, first: Sequence[Scalar], second: Sequence[Scalar]
) -> Optional[UniPoly]:
    """Monic gcd of all principal sub-Pfaffians along first + t*second, each
    by `pfaffian_expansion`; None when every one vanishes on the line."""
    dim = M.size
    principal = [[k for k in range(dim) if k != i] for i in range(dim)]

    def subpfaffians(coords: list[Scalar]) -> list[Scalar]:
        evaluated = M.evaluate(coords)
        return [pfaffian_expansion(evaluated.submatrix(keep, keep)) for keep in principal]

    return line_gcd(M.ctx.field, first, second, (dim - 1) // 2, subpfaffians)


def secant_pencil_reference(omega: AlternatingTensor, line: AlternatingTensor) -> UniPoly:
    """The polynomial of `degeneracy.secant_pencil` along a congruence line,
    by the add-and-scale pencil: on the indices completing the line's plane,
    the member at t of M(base) + t·M(direction) is built entry by entry with
    field operations, its Pfaffian taken by `pfaffian_expansion` at t = 0,
    ..., (n-1)/2 and interpolated by `interpolate_reference`."""
    field = omega.ctx.field
    base, direction = split_decomposable(line)
    M = build_M(omega)
    first, second = M.evaluate(base), M.evaluate(direction)
    pivots = rref_reference(field, [list(base.coords()), list(direction.coords())], M.size)
    complement = [k for k in range(M.size) if k not in pivots]
    points = []
    for t in range((omega.ctx.n - 1) // 2 + 1):
        t = field.coerce(t)
        entries = [
            field.add(first.entry(i, j), field.mul(t, second.entry(i, j)))
            for i in complement
            for j in complement
        ]
        member = Matrix(field, len(complement), len(complement), tuple(entries))
        points.append((t, pfaffian_expansion(member)))
    return interpolate_reference(field, points)


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


def contains_subspace_reference(a: LinearSubspace, b: LinearSubspace) -> bool:
    """Whether ``a`` contains ``b``, by one `matrix_rank`: stacking b's basis
    under a's leaves the rank at a's dimension."""
    if (a.ambient, a.ctx) != (b.ambient, b.ctx):
        raise ValueError("subspaces of different ambient spaces")
    return matrix_rank(a.ctx.field, a.basis + b.basis) == len(a.basis)


def same_subspace(a: LinearSubspace, b: LinearSubspace) -> bool:
    """Whether two subspaces of one ambient space are equal: one contains
    the other (`contains_subspace_reference`) and their dimensions agree."""
    return a.linear_dim == b.linear_dim and contains_subspace_reference(a, b)


def contraction_matrix_reference(f: AlternatingTensor, j: int) -> list[tuple[Scalar, ...]]:
    """The columns of the contraction map of a form on j-vectors, one
    `contract` per basis j-vector, in the lexicographic order of the j-index
    sets."""
    ctx = f.ctx
    return [
        contract(f, AlternatingTensor.make(ctx, j, "vector", {key: 1})).coords()
        for key in ctx.index_sets(j)
    ]


def singular_locus(quadric: QuadricAnalysis) -> LinearSubspace:
    """The singular subspace of a quadric: the kernel of its polar matrix."""
    return LinearSubspace.from_kernel(row_lists(quadric.rho), "bivectors", quadric.eta.ctx)


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


def _stacked_kernel(ctx: SpaceContext, columns: list[tuple]) -> LinearSubspace:
    return LinearSubspace.from_kernel(list(zip(*columns)), "bivectors", ctx)


def span_lattice_reference(
    omega: AlternatingTensor, x: AlternatingTensor, y: AlternatingTensor
) -> SpanLattice:
    """The five bivector subspaces of (omega, x, y), each the kernel of its
    stacked wedge system: per basis bivector, contract(omega, L), its wedge
    with x and with x^y, and the contractions of x and of x^y with L."""
    ctx = omega.ctx
    xy = wedge(x, y)
    full, mod_x, mod_xy, iota_x, iota_xy = [], [], [], [], []
    for key in ctx.index_sets(2):
        blade = AlternatingTensor.make(ctx, 2, "vector", {key: 1})
        g = contract(omega, blade)
        full.append(g.coords())
        mod_x.append(wedge(g, x).coords())
        mod_xy.append(wedge(g, xy).coords())
        iota_x.append(covector_contract(x, blade).coords())
        iota_xy.append(covector_contract(xy, blade).coords())
    return SpanLattice(
        full=_stacked_kernel(ctx, full),
        modulo_x=_stacked_kernel(ctx, mod_x),
        modulo_xy=_stacked_kernel(ctx, mod_xy),
        split_at_x=_stacked_kernel(ctx, [a + b for a, b in zip(iota_x, mod_x)]),
        pencil_at_xy=_stacked_kernel(ctx, [a + b for a, b in zip(iota_xy, mod_xy)]),
    )


def relaxed_span_reference(
    omega: AlternatingTensor, x: AlternatingTensor
) -> LinearSubspace:
    """Bivectors whose contraction against the form is a multiple of x, as
    the kernel of L -> contract(omega, L) ^ x."""
    ctx = omega.ctx
    columns = []
    for key in ctx.index_sets(2):
        blade = AlternatingTensor.make(ctx, 2, "vector", {key: 1})
        columns.append(wedge(contract(omega, blade), x).coords())
    return _stacked_kernel(ctx, columns)


def lift_bivector_reference(
    ctx: SpaceContext, wedges: dict, line: AlternatingTensor
) -> AlternatingTensor:
    """A bivector of a sub-context pushed into the ambient in one `make`,
    through ``wedges``, the wedges of its basis pairs
    (`residual._basis_wedges`)."""
    field = ctx.field
    return AlternatingTensor.make(
        ctx,
        2,
        "vector",
        [(k, field.mul(c, v)) for key, c in line.terms for k, v in wedges[key].terms],
    )


def plane_scan_reference(
    handle: ResidualHandle,
    ctx_pi: SpaceContext,
    basis: list[AlternatingTensor],
    lifted: dict,
    rng: random.Random,
) -> Optional[AlternatingTensor]:
    """`residual._decomposable_by_plane_scan` by tensors at every point: the
    star of each point of the plane through `directions_through`, and for a
    star of one direction the line P^f, its lift and its contraction with
    the form."""
    field = ctx_pi.field
    matrix = build_M(pullback(handle.omega, basis))
    dim = ctx_pi.dim
    for _ in range(_PLANE_SCAN_ROUNDS):
        anchors = list(random_points(field, dim, rng, 3))
        plane = matrix_from_columns(field, dim, anchors)
        if len(rref_reference(field, row_lists(plane), 3)) != 3:
            continue
        for coeffs in projective_points(field, 3):
            point = plane.matvec(coeffs)
            star = directions_through(matrix, point)
            if star.linear_dim != 1:
                continue
            line_sub = wedge(
                ctx_pi.vector_from_coords(point),
                ctx_pi.vector_from_coords(star.basis[0]),
            )
            candidate = lift_bivector_reference(handle.ctx, lifted, line_sub)
            if contract(handle.omega, candidate).is_zero():
                return line_sub
    return None
