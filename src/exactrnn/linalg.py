"""Dense exact-rational vectors and matrices, plus relaxed permutations.

Storage is raw: parallel lists of canonical ints (nums, dens), matrices flat
row-major. Elementwise access materializes ``Rational`` objects; bulk
operations go through :mod:`exactrnn.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .rational import Rational, as_rational


class RVector:
    __slots__ = ("nums", "dens")

    def __init__(self, values):
        vals = [as_rational(v) for v in values]
        self.nums = [v.num for v in vals]
        self.dens = [v.den for v in vals]

    @classmethod
    def _raw(cls, nums, dens):
        self = object.__new__(cls)
        self.nums = nums
        self.dens = dens
        return self

    @classmethod
    def zeros(cls, d: int) -> "RVector":
        return cls._raw([0] * d, [1] * d)

    @classmethod
    def basis(cls, i: int, d: int) -> "RVector":
        nums = [0] * d
        nums[i] = 1
        return cls._raw(nums, [1] * d)

    @classmethod
    def from_support(cls, support, d: int) -> "RVector":
        """The length-d vector whose nonzeros ``support`` lists as
        ``(index, num, den)`` (see ``kernels.nonzeros``)."""
        nums = [0] * d
        dens = [1] * d
        for i, n, den in support:
            nums[i] = n
            dens[i] = den
        return cls._raw(nums, dens)

    @classmethod
    def ones(cls, d: int) -> "RVector":
        return cls._raw([1] * d, [1] * d)

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, i) -> Rational:
        return Rational._make(self.nums[i], self.dens[i])

    def __iter__(self):
        for n, d in zip(self.nums, self.dens):
            yield Rational._make(n, d)

    def __eq__(self, other):
        return (
            isinstance(other, RVector)
            and self.nums == other.nums
            and self.dens == other.dens
        )

    def __hash__(self):
        return hash((tuple(self.nums), tuple(self.dens)))

    def __add__(self, other: "RVector") -> "RVector":
        if len(self) != len(other):
            raise ValueError("vector length mismatch")
        return RVector([a + b for a, b in zip(self, other)])

    def __sub__(self, other: "RVector") -> "RVector":
        if len(self) != len(other):
            raise ValueError("vector length mismatch")
        return RVector([a - b for a, b in zip(self, other)])

    def scaled(self, c) -> "RVector":
        c = as_rational(c)
        return RVector([c * v for v in self])

    def dot(self, other: "RVector") -> Rational:
        if len(self) != len(other):
            raise ValueError("vector length mismatch")
        n, d = kernels.vdot(self.nums, self.dens, other.nums, other.dens)
        return Rational._make(n, d)

    def hadamard(self, other: "RVector") -> "RVector":
        if len(self) != len(other):
            raise ValueError("vector length mismatch")
        return RVector([a * b for a, b in zip(self, other)])

    def concat(self, other: "RVector") -> "RVector":
        return RVector._raw(self.nums + other.nums, self.dens + other.dens)

    def copy(self) -> "RVector":
        return RVector._raw(list(self.nums), list(self.dens))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self) + ")"

    __repr__ = __str__


class RMatrix:
    __slots__ = ("rows", "cols", "nums", "dens")

    def __init__(self, rows_of_values):
        rows = [[as_rational(v) for v in row] for row in rows_of_values]
        if not rows:
            raise ValueError("matrix needs at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = cols
        self.nums = [v.num for row in rows for v in row]
        self.dens = [v.den for row in rows for v in row]

    @classmethod
    def _raw(cls, rows, cols, nums, dens):
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.nums = nums
        self.dens = dens
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "RMatrix":
        cols = rows if cols is None else cols
        return cls._raw(rows, cols, [0] * (rows * cols), [1] * (rows * cols))

    @classmethod
    def identity(cls, d: int) -> "RMatrix":
        m = cls.zeros(d, d)
        for i in range(d):
            m.nums[i * d + i] = 1
        return m

    @classmethod
    def diag(cls, values) -> "RMatrix":
        vals = [as_rational(v) for v in values]
        d = len(vals)
        m = cls.zeros(d, d)
        for i, v in enumerate(vals):
            m.nums[i * d + i] = v.num
            m.dens[i * d + i] = v.den
        return m

    @classmethod
    def outer(cls, u: RVector, v: RVector) -> "RMatrix":
        return cls([[a * b for b in v] for a in u])

    def __getitem__(self, key) -> Rational:
        i, j = key
        k = i * self.cols + j
        return Rational._make(self.nums[k], self.dens[k])

    def row(self, i: int) -> RVector:
        lo, hi = i * self.cols, (i + 1) * self.cols
        return RVector._raw(self.nums[lo:hi], self.dens[lo:hi])

    def col(self, j: int) -> RVector:
        idx = range(j, self.rows * self.cols, self.cols)
        return RVector._raw([self.nums[k] for k in idx], [self.dens[k] for k in idx])

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nums == other.nums
            and self.dens == other.dens
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.nums), tuple(self.dens)))

    def __add__(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        nums, dens = [], []
        for i in range(len(self.nums)):
            n, d = kernels.radd(self.nums[i], self.dens[i], other.nums[i], other.dens[i])
            nums.append(n)
            dens.append(d)
        return RMatrix._raw(self.rows, self.cols, nums, dens)

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        return self + other.scaled(Rational(-1))

    def scaled(self, c) -> "RMatrix":
        c = as_rational(c)
        nums, dens = [], []
        for i in range(len(self.nums)):
            n, d = kernels.rmul(self.nums[i], self.dens[i], c.num, c.den)
            nums.append(n)
            dens.append(d)
        return RMatrix._raw(self.rows, self.cols, nums, dens)

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimensions disagree: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        nums, dens = kernels.mat_mul(
            self.nums, self.dens, self.rows, self.cols, other.nums, other.dens, other.cols
        )
        return RMatrix._raw(self.rows, other.cols, nums, dens)

    def apply_col(self, v: RVector) -> RVector:
        """Matrix times column vector."""
        if self.cols != len(v):
            raise ValueError("matrix/vector dimension mismatch")
        n, d = kernels.mat_vec(self.nums, self.dens, self.rows, self.cols, v.nums, v.dens)
        return RVector._raw(n, d)

    def transpose(self) -> "RMatrix":
        nums = [0] * (self.rows * self.cols)
        dens = [1] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                nums[j * self.rows + i] = self.nums[i * self.cols + j]
                dens[j * self.rows + i] = self.dens[i * self.cols + j]
        return RMatrix._raw(self.cols, self.rows, nums, dens)

    def entries(self):
        for n, d in zip(self.nums, self.dens):
            yield Rational._make(n, d)

    def tolists(self):
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def __str__(self):
        return "[" + "; ".join(str(self.row(i)) for i in range(self.rows)) + "]"

    __repr__ = __str__


def row_apply(r: RVector, m: RMatrix) -> RVector:
    """Row vector times matrix."""
    if len(r) != m.rows:
        raise ValueError("row/matrix dimension mismatch")
    n, d = kernels.vec_mat(r.nums, r.dens, m.nums, m.dens, m.rows, m.cols)
    return RVector._raw(n, d)


@dataclass(frozen=True)
class RelaxedPermutation:
    """A function on coordinates 0..d-1, not necessarily injective.

    ``target[j]`` is the image of j. As a column-one-hot 0-1 matrix this is
    the matrix with a 1 at (target[j], j) for every column j.
    """

    target: tuple

    def __post_init__(self):
        d = len(self.target)
        if any(not (0 <= t < d) for t in self.target):
            raise ValueError("target index out of range")

    @classmethod
    def identity(cls, d: int) -> "RelaxedPermutation":
        return cls(tuple(range(d)))

    @property
    def dim(self) -> int:
        return len(self.target)

    def to_matrix(self) -> RMatrix:
        d = self.dim
        m = RMatrix.zeros(d, d)
        for j, t in enumerate(self.target):
            m.nums[t * d + j] = 1
        return m


def perm_compose(p: RelaxedPermutation, q: RelaxedPermutation) -> RelaxedPermutation:
    """Composition matching matrix product: P(p) @ P(q) = P(perm_compose(p, q))."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    return RelaxedPermutation(tuple(p.target[t] for t in q.target))


def perm_apply_diag(p: RelaxedPermutation, diag: RVector) -> RVector:
    """Permute diagonal entries: out[j] = diag[target[j]].

    Matches the swap identity diag(d) @ P = P @ diag(perm_apply_diag(p, d))
    for the column-one-hot matrix P of p.
    """
    if p.dim != len(diag):
        raise ValueError("dimension mismatch")
    return RVector._raw(
        [diag.nums[t] for t in p.target], [diag.dens[t] for t in p.target]
    )
