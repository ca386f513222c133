"""Points, hyperplanes, and dense linear algebra over both scalar modes.

A float Vec is a coordinate tuple of floats (plain ints allowed).  An
exact Vec is an ExactVec: a tuple X of ints and one int D > 0 with
gcd(X, D) = 1, the point X / D; its coords, one Rat per entry, are
built only when read.

Matrices are lists of row lists, small enough (dimension <= 4 plus a
handful of unknowns) that no clever numerics are needed, with one
elimination per scalar mode.  Exact rows are scaled to integers and
reduced fraction-free (bareiss) for every solve, rank and determinant;
float rows run partial-pivoting Gauss-Jordan with the package
tolerances (_float_eliminate).  The smooth search's Newton steps in 2
and 3 dimensions run their square solves unrolled, to the same bits
(_square_solve).
"""

from __future__ import annotations

import math
from operator import add, mul, neg, sub
from typing import Iterable, Optional, Sequence

from .config import EPS_ABS, EPS_REL
from .errors import DegenerateInputError, DimensionError, MixedModeError
from .scalars import EXACT, FLOAT, Rat, is_exact, is_float, join_modes, mode_of


class Vec:
    """Immutable coordinate tuple, used for points and vectors alike.

    A Vec is exact when no coordinate is a float and float otherwise;
    rationals and floats may not appear together.  Vec(coords) returns
    an ExactVec for exact coordinates; a plain Vec is the float lane,
    whose coords may hold plain ints beside its floats.
    """

    __slots__ = ("coords",)
    mode = FLOAT

    def __new__(cls, coords: Iterable):
        coords = tuple(coords)
        if not coords:
            raise DimensionError("empty coordinate tuple")
        has_rat = False
        has_float = False
        for c in coords:
            if is_float(c):
                has_float = True
            elif is_exact(c):
                if not isinstance(c, int):
                    has_rat = True
            else:
                raise TypeError(f"bad coordinate {c!r}")
        if has_rat and has_float:
            raise MixedModeError("mixed rational/float coordinates")
        if not has_float:
            return ExactVec.of_ratios([(c.numerator, c.denominator) for c in coords])
        return Vec._of(coords)

    @classmethod
    def _of(cls, coords: tuple) -> "Vec":
        """Float Vec of a coordinate tuple that passed the mode checks
        already: the result of arithmetic on float Vecs and scalars, so
        the coordinates are not inspected again."""
        v = object.__new__(Vec)
        object.__setattr__(v, "coords", coords)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check(self, other: "Vec") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch {self.dim} vs {other.dim}")
        join_modes(self.mode, other.mode)

    # _check passes only for a float Vec of the same length: test that first
    def __add__(self, other: "Vec") -> "Vec":
        if other.__class__ is not Vec or len(other.coords) != len(self.coords):
            self._check(other)
        return Vec._of(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "Vec") -> "Vec":
        if other.__class__ is not Vec or len(other.coords) != len(self.coords):
            self._check(other)
        return Vec._of(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "Vec":
        return Vec._of(tuple(map(neg, self.coords)))

    def scale(self, s) -> "Vec":
        if not isinstance(s, int):
            join_modes(FLOAT, mode_of(s))
        return Vec._of(tuple(s * a for a in self.coords))

    __mul__ = __rmul__ = scale

    def __truediv__(self, s) -> "Vec":
        if not isinstance(s, int):
            join_modes(FLOAT, mode_of(s))
        if s == 0:
            raise ZeroDivisionError("division of Vec by zero")
        return Vec._of(tuple(a / s for a in self.coords))

    def dot(self, other: "Vec"):
        self._check(other)
        return sum(map(mul, self.coords, other.coords))

    def to_float(self) -> "Vec":
        return Vec(float(a) for a in self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def key(self) -> tuple:
        """Sort/dedup key; exact coords compare exactly."""
        return self.coords

    def __eq__(self, other) -> bool:
        return type(other) is Vec and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return f"Vec({', '.join(str(c) for c in self.coords)})"


def ratio(s) -> tuple:
    """(p, q) with s = p / q, q > 0, of an exact scalar; a float raises
    MixedModeError."""
    if isinstance(s, int):
        return s, 1
    join_modes(EXACT, mode_of(s))
    return s.numerator, s.denominator


class ExactVec(Vec):
    """Exact Vec in homogeneous integer form: the point X / D for a
    tuple X of ints and an int D > 0 with gcd(X, D) = 1, so == and hash
    compare ints.  Arithmetic runs on X and D and divides by one gcd at
    the end (the fraction-free idea of Bareiss 1968, applied to
    vectors).  coords is filled on first read, one Rat per entry."""

    __slots__ = ("X", "D")
    mode = EXACT

    @classmethod
    def of_ints(cls, X, D: int) -> "ExactVec":
        """The point X / D for ints X and D > 0, in lowest terms."""
        return _reduced(tuple(X), D)

    @classmethod
    def of_ratios(cls, pairs: Sequence[tuple]) -> "ExactVec":
        """The point whose coordinates are p / q for the int pairs (p, q),
        q > 0."""
        D = math.lcm(*(q for _, q in pairs))
        return _reduced(tuple(p * (D // q) for p, q in pairs), D)

    def __getattr__(self, name):
        if name != "coords":
            raise AttributeError(name)
        D = self.D
        coords = tuple(Rat(x, D) for x in self.X)
        object.__setattr__(self, "coords", coords)
        return coords

    @property
    def dim(self) -> int:
        return len(self.X)

    def _check(self, other: Vec) -> None:
        if other.__class__ is not ExactVec:
            join_modes(EXACT, other.mode)
        if len(self.X) != len(other.X):
            raise DimensionError(f"dimension mismatch {self.dim} vs {other.dim}")

    def _combine(self, other: Vec, op) -> "ExactVec":
        """X / D op Y / E over the lcm of D and E."""
        self._check(other)
        D, E = self.D, other.D
        if D == E:
            return _reduced(tuple(map(op, self.X, other.X)), D)
        g = math.gcd(D, E)
        d, e = D // g, E // g
        return _reduced(tuple(op(x * e, y * d) for x, y in zip(self.X, other.X)), D * e)

    def __add__(self, other: Vec) -> "ExactVec":
        return self._combine(other, add)

    def __sub__(self, other: Vec) -> "ExactVec":
        return self._combine(other, sub)

    def __neg__(self) -> "ExactVec":
        return _exact(tuple(map(neg, self.X)), self.D)

    def scale(self, s) -> "ExactVec":
        p, q = ratio(s)
        return _reduced(tuple(p * x for x in self.X), q * self.D)

    __mul__ = __rmul__ = scale

    def __truediv__(self, s) -> "ExactVec":
        p, q = ratio(s)
        if p == 0:
            raise ZeroDivisionError("division of Vec by zero")
        q = q if p > 0 else -q
        return _reduced(tuple(q * x for x in self.X), abs(p) * self.D)

    def dot(self, other: Vec):
        self._check(other)
        return Rat(sum(map(mul, self.X, other.X)), self.D * other.D)

    def to_float(self) -> Vec:
        D = self.D
        return Vec._of(tuple(x / D for x in self.X))

    def is_zero(self) -> bool:
        return not any(self.X)

    def __eq__(self, other) -> bool:
        return other.__class__ is ExactVec and self.D == other.D and self.X == other.X

    def __hash__(self) -> int:
        return hash((self.X, self.D))

    def __len__(self) -> int:
        return len(self.X)


def _exact(X: tuple, D: int) -> ExactVec:
    """ExactVec of an int tuple X and an int D > 0 with gcd(X, D) = 1."""
    v = object.__new__(ExactVec)
    _SET_X(v, X)
    _SET_D(v, D)
    return v


def _reduced(X: tuple, D: int) -> ExactVec:
    """ExactVec of an int tuple X and an int D > 0, divided by their gcd."""
    if D != 1:
        g = math.gcd(D, *X)
        if g != 1:
            X, D = tuple(x // g for x in X), D // g
    return _exact(X, D)


_SET_X = ExactVec.X.__set__
_SET_D = ExactVec.D.__set__


def zero_vec(dim: int) -> ExactVec:
    return _exact((0,) * dim, 1)


def unit_vec(dim: int, i: int) -> ExactVec:
    return _exact(tuple(int(k == i) for k in range(dim)), 1)


def cross2(u: Vec, v: Vec):
    """Planar cross product u_x v_y - u_y v_x."""
    if u.dim != 2 or v.dim != 2:
        raise DimensionError("cross2 needs planar vectors")
    return u[0] * v[1] - u[1] * v[0]


class Hyperplane:
    """Oriented hyperplane {x : <normal, x> = offset}.

    (a, b) and (l*a, l*b) with l > 0 describe the same oriented
    hyperplane and compare equal; negating both flips orientation but
    keeps the point set, which unoriented_key() quotients out.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Vec, offset):
        if normal.is_zero():
            raise DegenerateInputError("hyperplane normal must be nonzero")
        if not isinstance(offset, int):
            join_modes(normal.mode, mode_of(offset))
        self.normal = normal
        self.offset = offset

    @property
    def mode(self) -> str:
        return self.normal.mode

    @property
    def dim(self) -> int:
        return self.normal.dim

    def eval(self, p: Vec):
        """<normal, p> - offset; sign tells the side."""
        return self.normal.dot(p) - self.offset

    def canonical(self) -> tuple:
        """Orientation-preserving canonical coefficient tuple."""
        if self.mode == EXACT:
            n = self.normal
            p, q = ratio(self.offset)
            ints = (*(x * q for x in n.X), p * n.D)
            g = math.gcd(*ints)
            return tuple(v // g for v in ints)
        coeffs = (*self.normal.coords, self.offset)
        scale = math.hypot(*map(float, self.normal.coords))
        return tuple(round(float(c) / scale, 12) for c in coeffs)

    def unoriented_key(self) -> tuple:
        """Canonical tuple of the hyperplane as an unoriented point set."""
        c = self.canonical()
        lead = next((v for v in c if v != 0), None)
        if lead is not None and lead < 0:
            c = tuple(-v for v in c)
        return c

    def flip(self) -> "Hyperplane":
        return Hyperplane(-self.normal, -self.offset)

    def __eq__(self, other) -> bool:
        return isinstance(other, Hyperplane) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def same_set(self, other: "Hyperplane") -> bool:
        return self.unoriented_key() == other.unoriented_key()

    def __repr__(self) -> str:
        return f"Hyperplane({self.normal!r}, {self.offset})"


class LinearSolution:
    """Outcome of solve_linear: 'unique', 'affine', or 'infeasible'.

    For 'affine', point is one solution and basis spans the solution
    space directions; for 'unique' basis is empty.
    """

    __slots__ = ("status", "point", "basis")

    def __init__(self, status: str, point: Optional[tuple] = None, basis: tuple = ()):
        self.status, self.point, self.basis = status, point, basis

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (self.status, self.point, self.basis) == (
            other.status, other.point, other.basis)

    @property
    def dim(self) -> Optional[int]:
        if self.status == "infeasible":
            return None
        return len(self.basis)


def _rows_mode(rows: Sequence[Sequence], rhs: Sequence) -> str:
    mode = EXACT
    for row in rows:
        for c in row:
            if is_float(c):
                return FLOAT
    for c in rhs:
        if is_float(c):
            return FLOAT
    return mode


def integer_rows(rows: Sequence[Sequence]) -> tuple:
    """Each exact row times the lcm of its denominators, as Python ints,
    and the product of those positive multipliers."""
    out = []
    total = 1
    for row in rows:
        lcm = math.lcm(*(c.denominator for c in row))
        out.append([c.numerator * (lcm // c.denominator) for c in row])
        total *= lcm
    return out, total


def integer_points(points: Sequence[ExactVec]) -> tuple:
    """Exact points times the lcm of all their denominators, as int
    tuples, and that common multiplier."""
    scale = math.lcm(*(p.D for p in points))
    ints = [p.X if p.D == scale else tuple(x * (scale // p.D) for x in p.X) for p in points]
    return ints, scale


def bareiss(rows: Sequence[Sequence[int]]) -> tuple:
    """Fraction-free forward elimination of an integer matrix (Bareiss
    1968), the exact lane's one elimination: every entry after step k
    is a (k+1)-minor of the row-permuted input, so each division is
    exact and no entry leaves the integers.  Returns (rank, signed last
    pivot, echelon rows, pivot columns); for a square matrix of full
    rank the second value is the determinant.  Echelon row k holds its
    minors from its pivot column on."""
    a = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    prev, sign, r, cols = 1, 1, 0, []
    for col in range(n):
        for best in range(r, m):
            if a[best][col]:
                break
        else:
            continue
        if best != r:
            a[r], a[best] = a[best], a[r]
            sign = -sign
        pivot_row = a[r]
        piv = pivot_row[col]
        for i in range(r + 1, m):
            row = a[i]
            f = row[col]
            for j in range(col + 1, n):
                row[j] = (piv * row[j] - f * pivot_row[j]) // prev
        prev = piv
        cols.append(col)
        r += 1
        if r == m:
            break
    return r, sign * prev, a, cols


def _float_eliminate(aug: list, n: int) -> tuple:
    """Gauss-Jordan with partial pivoting on the first n columns of the
    float rows aug, in place: the float lane's one elimination.  Entries
    within EPS_REL of the largest |coefficient| (EPS_ABS at least) count
    as zero, so a large right-hand side cannot zero a pivot.  Rows are
    swapped and replaced, never changed in place, and no row is divided
    by its pivot.  Returns the pivots as (row, col, value at pivot time)
    and the swap sign."""
    m = len(aug)
    scale = max([abs(c) for row in aug for c in row[:n]], default=1.0) or 1.0
    tol = max(EPS_ABS, EPS_REL * scale)
    pivots, sign = [], 1
    for col in range(n):
        r = len(pivots)
        best = None
        for i in range(r, m):
            v = abs(aug[i][col])
            if not v <= tol and (best is None or v > top):
                best, top = i, v
        if best is None:
            continue
        if best != r:
            aug[r], aug[best] = aug[best], aug[r]
            sign = -sign
        piv = aug[r][col]
        for i in range(m):
            if i != r and not abs(aug[i][col]) <= tol:
                f = aug[i][col] / piv
                aug[i] = [v - f * w if w else v for v, w in zip(aug[i], aug[r])]
        pivots.append((r, col, piv))
        if r + 1 == m:
            break
    return pivots, sign


def _square_solve(aug: list, n: int) -> Optional[tuple]:
    """The point of the n x n float rows aug ([coeffs | rhs] tuples,
    n = 2 or 3) when every column gets a pivot, else None; aug is left
    as it is.  The same operations as _float_eliminate, op for op, with
    the row width unrolled: the same scale and tolerance, the same pivot
    choice, every other row updated on every column, and each coordinate
    the right-hand side over its pivot entry as it stands.  So the point
    has the general path's bits."""
    if n == 3:
        a, b, c = aug
        scale = max(abs(a[0]), abs(a[1]), abs(a[2]), abs(b[0]), abs(b[1]), abs(b[2]),
                    abs(c[0]), abs(c[1]), abs(c[2]))
    else:
        a, b = aug
        scale = max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
    tol = max(EPS_ABS, EPS_REL * (scale or 1.0))
    rows = aug[:]
    for col in range(n):
        best = None
        for i in range(col, n):
            v = abs(rows[i][col])
            if not v <= tol and (best is None or v > top):
                best, top = i, v
        if best is None:
            return None
        prow = rows[best]
        if best != col:
            rows[best] = rows[col]
            rows[col] = prow
        piv = prow[col]
        for i in range(n):
            if i != col:
                row = rows[i]
                v = row[col]
                if not abs(v) <= tol:
                    f = v / piv
                    if n == 3:
                        v0, v1, v2, v3 = row
                        w0, w1, w2, w3 = prow
                        rows[i] = (v0 - f * w0 if w0 else v0, v1 - f * w1 if w1 else v1,
                                   v2 - f * w2 if w2 else v2, v3 - f * w3 if w3 else v3)
                    else:
                        v0, v1, v2 = row
                        w0, w1, w2 = prow
                        rows[i] = (v0 - f * w0 if w0 else v0, v1 - f * w1 if w1 else v1,
                                   v2 - f * w2 if w2 else v2)
    if n == 3:
        a, b, c = rows
        return (a[3] / a[0], b[3] / b[1], c[3] / c[2])
    a, b = rows
    return (a[2] / a[0], b[2] / b[1])


def integer_solve(aug: Sequence[Sequence[int]], n: int) -> Optional[tuple]:
    """Fraction-free solve of the integer rows [coeffs | rhs] over n
    unknowns, reduced by bareiss over every column; a pivot in the
    right-hand side means infeasible (None).  Otherwise returns (P,
    point, basis) as ints, with P the last pivot (1 for no pivot):
    point / P is one solution, 0 on the free columns (and 0 with no
    back substitution when every right-hand side is 0), and basis[c] / P
    the direction that is 1 on the c-th free column and 0 on the others."""
    r, _, a, cols = bareiss(aug)
    if r and cols[-1] == n:
        return None
    last = a[r - 1][cols[-1]] if r else 1
    point = [0] * n
    # a homogeneous system keeps its zero right-hand side through bareiss
    if any(row[n] for row in a[:r]):
        back_substitute(a, cols, point, n, last)
    free = [c for c in range(n) if c not in cols]
    basis = [back_substitute(a, cols, [last * (j == c) for j in range(n)], n, 0) for c in free]
    return last, point, basis


def back_substitute(a: list, cols: list, y: list, rhs: int, weight: int) -> list:
    """Fill in y, which holds P * x on the free columns, with P * x on
    the pivot columns cols of bareiss's echelon rows a, whose column rhs
    is the right-hand side taken weight times (P for a point, 0 for a
    direction); P * x is integral (Cramer's rule), so each division is
    exact."""
    n = len(y)
    for row, c in zip(reversed(a[:len(cols)]), reversed(cols)):
        acc = weight * row[rhs]
        for j in range(c + 1, n):
            if y[j]:
                acc -= row[j] * y[j]
        y[c] = acc // row[c]
    return y


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> LinearSolution:
    """Solve rows . x = rhs: unique point, affine subspace (particular
    point + direction basis), or infeasible.

    Exact systems are scaled to integers and solved by integer_solve;
    only x = (P * x) / P is rational.  Float systems run _float_eliminate,
    and only the entries that are read (the point's and the basis's) are
    divided by their pivot row's pivot entry, once, at the end.
    """
    m = len(rows)
    if m != len(rhs):
        raise DimensionError("row/rhs count mismatch")
    if m == 0:
        raise DimensionError("empty system")
    n = len(rows[0])
    if _rows_mode(rows, rhs) == EXACT:
        sol = integer_solve(integer_rows([[*row, b] for row, b in zip(rows, rhs)])[0], n)
        if sol is None:
            return LinearSolution("infeasible")
        last, point, basis = sol
        basis = tuple(tuple(Rat(v, last) for v in y) for y in basis)
        return LinearSolution(
            "affine" if basis else "unique", tuple(Rat(v, last) for v in point), basis
        )

    aug = [(*map(float, row), float(b)) for row, b in zip(rows, rhs)]
    given = aug[:]  # _float_eliminate replaces rows, so given keeps them
    pivots, _ = _float_eliminate(aug, n)
    if len(pivots) < m:
        # leftover rows are judged against the right-hand side as given too
        tol = max(EPS_ABS, EPS_REL * (max([abs(c) for row in given for c in row]) or 1.0))
        if any(not abs(aug[i][n]) <= tol for i in range(len(pivots), m)):
            return LinearSolution("infeasible")
    # each pivot row over its pivot entry as it stands (eliminating above
    # it may have nudged it), read only where it is used
    point = [0.0] * n
    for row, col, _ in pivots:
        point[col] = aug[row][n] / aug[row][col]
    basis = []
    for fc in sorted(set(range(n)) - {col for _, col, _ in pivots}):
        direction = [0.0] * n
        direction[fc] = 1.0
        for row, col, _ in pivots:
            direction[col] = -(aug[row][fc] / aug[row][col])
        basis.append(tuple(direction))
    return LinearSolution("affine" if basis else "unique", tuple(point), tuple(basis))


def det(rows: Sequence[Sequence]):
    """Determinant.  Exact rows are scaled to integers, reduced by
    bareiss and divided back; float rows give the product of
    _float_eliminate's pivots times the sign of its row swaps."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("det needs a square matrix")
    if _rows_mode(rows, ()) == EXACT:
        ints, scale = integer_rows(rows)
        r, value, _, _ = bareiss(ints)
        return Rat(value if r == n else 0, scale)
    pivots, sign = _float_eliminate([[float(c) for c in row] for row in rows], n)
    return sign * math.prod(piv for _, _, piv in pivots) if len(pivots) == n else 0.0


def rank(rows: Sequence[Sequence]) -> int:
    """Number of pivots of the rows' elimination in their lane."""
    if not rows:
        return 0
    if _rows_mode(rows, ()) == EXACT:
        return bareiss(integer_rows(rows)[0])[0]
    return len(_float_eliminate([[float(c) for c in row] for row in rows], len(rows[0]))[0])


def nullspace(rows: Sequence[Sequence]) -> list:
    """Basis of {x : rows . x = 0} as coordinate tuples."""
    if not rows:
        raise DimensionError("nullspace of empty system")
    sol = solve_linear(rows, [0] * len(rows))
    return list(sol.basis)


def affine_rank(points: Sequence) -> int:
    """Dimension of the affine hull of the points (Vecs or coordinate
    tuples of one mode)."""
    pts = list(points)
    if not pts:
        return -1
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    return rank(diffs) if diffs else 0


def general_position(points: Sequence[Vec]) -> bool:
    """True when d+1 points in R^d span a nondegenerate simplex.

    Exact points: nonzero determinant of the homogenized matrix.  Float
    points: the edges A_k - A_0, each divided by its Euclidean length,
    must have |det| > EPS_REL.  The points are first divided by their
    largest |coordinate|, so no difference overflows; with unit edges
    the verdict depends on neither the simplex's size nor its place.
    """
    pts = list(points)
    d = pts[0].dim
    if len(pts) != d + 1:
        raise DimensionError(f"expected {d + 1} points in R^{d}, got {len(pts)}")
    if pts[0].mode == EXACT:
        return det([[*p.coords, 1] for p in pts]) != 0
    big = max(abs(float(c)) for p in pts for c in p.coords) or 1.0
    scaled = [[float(c) / big for c in p.coords] for p in pts]
    edges = [[a - b for a, b in zip(p, scaled[0])] for p in scaled[1:]]
    lengths = [math.hypot(*e) for e in edges]
    if not all(lengths):
        return False
    return abs(det([[c / s for c in e] for e, s in zip(edges, lengths)])) > EPS_REL
