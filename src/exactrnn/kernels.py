"""Rational kernels, in pure Python.

All rational arithmetic in the package funnels through this module,
``Rational``'s included (``rnorm``, ``radd``, ``rmul``). Vectors and
matrices are passed as parallel lists of Python ints: ``nums[i] /
dens[i]``, matrices flat row-major. Every function returns canonical
entries: gcd(|num|, den) = 1 and den > 0, with zero represented as 0/1,
except the fraction-free kernels:
``common_den`` puts a vector over one shared denominator, and
``int_mat_vec`` and ``int_mat_mul`` multiply integer rows by an integer
column or columns, so that a running product over one denominator is
normalized only where a caller needs a canonical value (Bareiss 1968).

``compile_int_affine`` turns an all-integer ``sparse_affine`` program into
generated straight-line Python, one line per op, for callers that run it
once per step on integer inputs; the same code counts the value bits of
chosen registers.
"""

from math import gcd, lcm
from operator import mul

BACKEND = "python"


def rnorm(n, d):
    """Canonicalize a single num/den pair."""
    if n == 0:
        return 0, 1
    if d < 0:
        n, d = -n, -d
    if d == 1:
        return n, d
    g = gcd(n, d)
    if g > 1:
        return n // g, d // g
    return n, d


def radd(an, ad, bn, bd):
    if ad == 1 and bd == 1:
        return an + bn, 1
    return rnorm(an * bd + bn * ad, ad * bd)


def rmul(an, ad, bn, bd):
    if ad == 1 and bd == 1:
        return an * bn, 1
    return rnorm(an * bn, ad * bd)


def vdot(an, ad, bn, bd):
    """Dot product of two rational vectors given as parallel int lists."""
    sn, sd = 0, 1
    for i in range(len(an)):
        p = an[i] * bn[i]
        if p == 0:
            continue
        q = ad[i] * bd[i]
        if q == 1:
            if sd == 1:
                sn += p
            else:
                sn += p * sd
        else:
            if sd == 1:
                sn = sn * q + p
            else:
                sn = sn * q + p * sd
            sd *= q
    return rnorm(sn, sd)


def common_den(nums, dens):
    """The rationals ``nums[i] / dens[i]`` as ints over one denominator:
    ``(ints, den)`` with den the lcm of ``dens`` and ints[i] / den equal to
    entry i. Not canonical: the ints and den may share a factor."""
    den = lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


def int_mat_vec(rows, col) -> list:
    """Integer matrix (a list of rows) times one integer column, as a list:
    entry i is rows[i] . col. No denominators and no normalization (see
    ``common_den``)."""
    return [sum(map(mul, row, col)) for row in rows]


def int_mat_mul(rows, cols) -> list:
    """Product of integer matrices given as a list of rows and a list of
    columns, as a list of rows: entry (i, j) is rows[i] . cols[j], one
    ``int_mat_vec`` per row."""
    return [int_mat_vec(cols, row) for row in rows]


def nonzeros(nums, dens) -> tuple:
    """Support of a rational vector: ``(index, num, den)`` for each nonzero
    entry, in index order."""
    return tuple((i, n, dens[i]) for i, n in enumerate(nums) if n != 0)


def sdot(support, xn, xd):
    """Dot product of a vector given as parallel int lists with a sparse
    vector given by its support (see ``nonzeros``); only the support's
    indices are read."""
    sn, sd = 0, 1
    for i, bn, bd in support:
        p = xn[i] * bn
        if p == 0:
            continue
        q = xd[i] * bd
        if q == 1:
            if sd == 1:
                sn += p
            else:
                sn += p * sd
        else:
            if sd == 1:
                sn = sn * q + p
            else:
                sn = sn * q + p * sd
            sd *= q
    return rnorm(sn, sd)


def vec_rows(xn, xd, rows_n, rows_d, cols, stride=0):
    """Row vector (len rows) times a rows x cols matrix: the combination of
    the matrix's rows weighted by the vector's entries. Row i starts at
    offset i * stride of its lists ``rows_n[i]`` (nums) and ``rows_d[i]``
    (dens): stride 0 for rows held as lists of their own, stride cols for
    a flat row-major matrix given as the same list for every row."""
    outn = [0] * cols
    outd = [1] * cols
    rows = range(len(rows_n))
    for j in range(cols):
        sn, sd = 0, 1
        k = j
        for i in rows:
            p = xn[i] * rows_n[i][k]
            if p != 0:
                q = xd[i] * rows_d[i][k]
                if q == 1:
                    sn = sn + p if sd == 1 else sn + p * sd
                else:
                    sn = sn * q + (p if sd == 1 else p * sd)
                    sd *= q
            k += stride
        outn[j], outd[j] = rnorm(sn, sd)
    return outn, outd


def vec_mat(xn, xd, mn, md, rows, cols):
    """Row vector (len rows) times flat row-major matrix (rows x cols)."""
    return vec_rows(xn, xd, [mn] * rows, [md] * rows, cols, cols)


def mat_vec(mn, md, rows, cols, xn, xd):
    """Flat row-major matrix (rows x cols) times column vector (len cols):
    one ``vdot`` per row."""
    outn = [0] * rows
    outd = [1] * rows
    for i in range(rows):
        lo = i * cols
        outn[i], outd[i] = vdot(mn[lo : lo + cols], md[lo : lo + cols], xn, xd)
    return outn, outd


def mat_mul(an, ad, ar, ac, bn, bd, bc):
    """Product of flat row-major matrices (ar x ac) @ (ac x bc): one
    ``vec_mat`` per row of the left factor."""
    outn, outd = [], []
    for i in range(ar):
        lo = i * ac
        rown, rowd = vec_mat(an[lo : lo + ac], ad[lo : lo + ac], bn, bd, ac, bc)
        outn += rown
        outd += rowd
    return outn, outd


def mat3_chain(nums, dens):
    """Product of the 3x3 matrices stored nine row-major entries each in
    the parallel int lists ``nums``/``dens``, oldest first (the identity
    when they are empty); equal to folding ``mat_mul`` from the identity.

    The matrices before the first one holding a den other than 1 (all of
    them, when every den is 1) are multiplied on the ints alone, unrolled,
    with no normalization; an integer product is already canonical, so
    folding ``mat_mul`` on from there gives the same entries. ``ValueError``
    if the lists do not hold whole matrices.
    """
    if len(nums) % 9 or len(dens) != len(nums):
        raise ValueError(f"{len(nums)} entries do not make whole 3x3 matrices")
    stop = len(nums)
    if dens.count(1) != stop:
        first = next(k for k, d in enumerate(dens) if d != 1)
        stop = first - first % 9
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = 1, 0, 0, 0, 1, 0, 0, 0, 1
    it = iter(nums[:stop])
    for b0, b1, b2, b3, b4, b5, b6, b7, b8 in zip(it, it, it, it, it, it, it, it, it):
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = (
            a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
        )
    outn, outd = [a0, a1, a2, a3, a4, a5, a6, a7, a8], [1] * 9
    for k in range(stop, len(nums), 9):
        outn, outd = mat_mul(outn, outd, 3, 3, nums[k : k + 9], dens[k : k + 9], 3)
    return outn, outd


def run_overwrites(ops, start, stop, nums, dens):
    """Run the coordinate overwrites ``ops[start:stop]`` in place on one
    row held as parallel int lists; returns nothing.

    Op ``(dst, support)`` sets ``row[dst]`` to the dot product of the row
    with the coefficient vector whose nonzeros ``support`` lists as
    ``(index, num, den)`` (see ``nonzeros``); the vector is zero at dst.
    """
    for dst, support in ops[start:stop]:
        sn, sd = 0, 1
        for i, bn, bd in support:
            p = nums[i] * bn
            if p == 0:
                continue
            q = dens[i] * bd
            if q == 1:
                sn = sn + p if sd == 1 else sn + p * sd
            else:
                sn = sn * q + (p if sd == 1 else p * sd)
                sd *= q
        if sn == 0:
            nums[dst] = 0
            dens[dst] = 1
        elif sd == 1:
            nums[dst] = sn
            dens[dst] = 1
        else:
            g = gcd(sn, sd)
            nums[dst] = sn // g
            dens[dst] = sd // g


def run_overwrite_cols(ops, start, stop, nums, dens):
    """Run the column actions of the coordinate overwrites
    ``ops[start:stop]``, in that order, in place on one column held as
    parallel int lists; returns nothing. Op ``(dst, support)`` (see
    ``run_overwrites``) makes the column col + col[dst] (c - e_dst), which
    writes only the support and dst.
    """
    for dst, support in ops[start:stop]:
        un = nums[dst]
        if un == 0:
            continue
        ud = dens[dst]
        nums[dst] = 0
        dens[dst] = 1
        for i, cn, cd in support:
            pd = ud * cd
            ad = dens[i]
            if pd == 1 and ad == 1:
                nums[i] += un * cn
                continue
            # canonical, and 0/1 when the sum is zero: gcd(0, rd) = rd
            rn = nums[i] * pd + un * cn * ad
            rd = ad * pd
            g = gcd(rn, rd)
            nums[i] = rn // g
            dens[i] = rd // g


def run_hsteps(ops, start, stop, nums, dens):
    """Run the symmetric steps ``ops[start:stop]`` in place on one row held
    as parallel int lists; returns nothing.

    Op ``(beta_num, beta_den, support)`` is I - beta k k^T, with the
    nonzeros of k listed in ``support`` as ``(index, num, den)``: the row
    becomes row - beta (row . k) k^T, which reads and writes only the
    support. The step is symmetric, so this is its column action too.
    """
    for bn, bd, support in ops[start:stop]:
        if bn == 0:
            continue
        sn, sd = 0, 1
        for i, kn, kd in support:
            p = nums[i] * kn
            if p == 0:
                continue
            q = dens[i] * kd
            if q == 1:
                sn = sn + p if sd == 1 else sn + p * sd
            else:
                sn = sn * q + (p if sd == 1 else p * sd)
                sd *= q
        if sn == 0:
            continue
        # f = beta (row . k), canonical
        fn = bn * sn
        fd = bd * sd
        if fd != 1:
            g = gcd(fn, fd)
            if g > 1:
                fn //= g
                fd //= g
        for i, kn, kd in support:
            pd = fd * kd
            an = nums[i]
            ad = dens[i]
            if pd == 1 and ad == 1:
                nums[i] = an - fn * kn
                continue
            rn = an * pd - fn * kn * ad
            if rn == 0:
                nums[i] = 0
                dens[i] = 1
                continue
            rd = ad * pd
            g = gcd(rn, rd)
            nums[i] = rn // g
            dens[i] = rd // g


def sparse_affine(ops, xn, xd):
    """Run a straight-line affine/ReLU program over one register file.

    The register file holds the input ``xn``/``xd`` followed by one
    register per op. Op ``t``, ``(terms, bn, bd, relu)``, writes register
    ``len(xn) + t``: ``bn/bd`` plus ``wn/wd * r[c]`` for each ``(c, wn, wd)``
    in ``terms``, clamped at 0 when ``relu`` is set. A term may read any
    earlier register. Returns the whole register file.
    """
    rn = list(xn) + [0] * len(ops)
    rd = list(xd) + [1] * len(ops)
    k = len(xn)
    for terms, sn, sd, relu in ops:
        for c, a, b in terms:
            p = a * rn[c]
            if p == 0:
                continue
            q = b * rd[c]
            if q == 1:
                sn = sn + p if sd == 1 else sn + p * sd
            else:
                sn = sn * q + (p if sd == 1 else p * sd)
                sd *= q
        # zero (and a ReLU's clamped negative) is already there as 0/1
        if sn > 0 or sn < 0 and not relu:
            if sd == 1:
                rn[k] = sn
            else:
                g = gcd(sn, sd)
                rn[k] = sn // g
                rd[k] = sd // g
        k += 1
    return rn, rd


# Terms per generated source line: CPython's compiler recurses once per
# operator of an expression, and a sum of ~5000 terms raises RecursionError.
_TERMS_PER_LINE = 100


def _int_literal(v: int) -> str:
    # decimal text of more than 4300 digits is refused; hex never is
    return str(v) if v.bit_length() < 4096 else hex(v)


def _times(n, name) -> str:
    """Source text of ``n * name``, for an int ``n``."""
    return name if n == 1 else f"{_int_literal(n)} * {name}"


def _sum_lines(lines, name, parts):
    """Assign the sum of ``parts`` (source text) to ``name``, in lines of
    at most ``_TERMS_PER_LINE`` terms."""
    assign = "="
    for i in range(0, len(parts), _TERMS_PER_LINE):
        lines.append(f"    {name} {assign} " + " + ".join(parts[i : i + _TERMS_PER_LINE]))
        assign = "+="


def _is_register(r, n) -> bool:
    return type(r) is int and 0 <= r < n


def compile_int_affine(ops, in_dim, out, observed, binary, folded=(0, 0)):
    """``sparse_affine`` over ``in_dim`` inputs, generated as straight-line
    code for integer inputs, or ``None`` when the program is not all-integer.

    The returned function takes the nums of the input registers, whose dens
    must all be 1, and returns ``(values, max_bits, total_bits)``:
    ``values`` are the nums of registers ``out``, every den being 1;
    ``max_bits`` is the largest ``value_bits`` of the ``observed``
    (register, count) pairs and ``total_bits`` the sum of their
    ``value_bits``, each times its count (0 and 0 when nothing is observed).
    ``folded`` is the largest and total value bits of values the caller
    folded out of the program, which the results include. Op t becomes
    ``r{in_dim+t} = w * r{c} + ... + b``, followed by a clamp when it has a
    ReLU, with the same ints as ``sparse_affine`` computes. At den 1,
    ``value_bits(n)`` is ``n.bit_length() + 1``, zero included, since
    ``bit_length`` ignores the sign.

    ``binary`` names observed registers that the caller guarantees hold 0
    or 1 on every input the function is run on. Such a register's
    ``bit_length`` is its own value, so the code adds it to the count
    without a call: the weighted sum ``tb`` of the binary registers with
    positive counts is non-zero exactly when one of them is 1, and ``tb
    and 1`` stands for all of them in ``max``. On a binary register that
    holds another value the bit counts are wrong.

    ``None`` unless every weight, bias and den is an ``int``, every den is
    1, every term reads an earlier register, ``out`` and ``observed`` name
    existing registers with ``int`` counts, every ``binary`` register is
    an observed one, and ``folded`` is two ``int``s, so only int literals
    and register numbers reach the generated source.
    """
    fold_max, fold_total = folded
    if not type(fold_max) is type(fold_total) is int:
        return None
    lines = ["def run(x):"]
    if in_dim:
        lines.append("    " + "".join(f"r{i}, " for i in range(in_dim)) + "= x")
    k = in_dim
    for terms, bn, bd, relu in ops:
        if type(bn) is not int or type(bd) is not int or bd != 1:
            return None
        parts = []
        for c, a, b in terms:
            if not (type(a) is type(b) is int and b == 1 and _is_register(c, k)):
                return None
            parts.append(_times(a, f"r{c}"))
        if bn or not parts:
            parts.append(_int_literal(bn))
        _sum_lines(lines, f"r{k}", parts)
        if relu:
            lines.append(f"    if r{k} < 0: r{k} = 0")
        k += 1
    if not all(_is_register(r, k) for r in out):
        return None
    if not all(_is_register(r, k) and type(n) is int for r, n in observed):
        return None
    binary = frozenset(binary)
    if not all(_is_register(r, k) for r in binary) or binary - {r for r, _ in observed}:
        return None
    # value_bits is bit_length + 1: b{i} is the bit_length of the i-th
    # observed register that is not binary (or has a count below 1), and a
    # binary register's bit_length is the register itself, summed into tb
    ones = [(r, n) for r, n in observed if r in binary and n > 0]
    rest = [(r, n) for r, n in observed if not (r in binary and n > 0)]
    total = [_int_literal(sum(n for _, n in observed) + fold_total)]
    bits = [_int_literal(fold_max - 1)] if fold_max else []
    for i, (r, n) in enumerate(rest):
        lines.append(f"    b{i} = r{r}.bit_length()")
        bits.append(f"b{i}")
        total.append(_times(n, f"b{i}"))
    if ones:
        # a sum of positive counts of 0/1 registers: non-zero iff one is 1
        _sum_lines(lines, "tb", [_times(n, f"r{r}") for r, n in ones])
        bits.append("tb and 1")
        total.append("tb")
    # a list, not a tuple: CPython 3.11 keeps each freed 20-item tuple on
    # a free list that it never takes from, up to 2000 of them
    lines.append(f"    m = max([{', '.join(bits)}]) + 1" if bits else "    m = 0")
    _sum_lines(lines, "t", total)
    lines.append(f"    return [{', '.join(f'r{r}' for r in out)}], m, t")
    namespace = {"__builtins__": {}, "max": max}
    exec(compile("\n".join(lines), "<compile_int_affine>", "exec"), namespace)
    return namespace["run"]
