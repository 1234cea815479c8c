"""Rational kernels, in pure Python.

All bulk arithmetic in the package funnels through this module. Vectors
and matrices are passed as parallel lists of Python ints: ``nums[i] / dens[i]``, matrices flat row-major.
Every function returns canonical entries: gcd(|num|, den) = 1 and den > 0,
with zero represented as 0/1, except the two fraction-free kernels:
``common_den`` puts a vector over one shared denominator, and
``int_mat_mul`` multiplies integer rows by integer columns, so that a
running product over one denominator is normalized only where a caller
needs a canonical value (Bareiss 1968).
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


def int_mat_mul(rows, cols) -> list:
    """Product of integer matrices given as a list of rows and a list of
    columns, as a list of rows: entry (i, j) is rows[i] . cols[j]. No
    denominators and no normalization (see ``common_den``)."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


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


def vec_mat(xn, xd, mn, md, rows, cols):
    """Row vector (len rows) times flat row-major matrix (rows x cols)."""
    outn = [0] * cols
    outd = [1] * cols
    for j in range(cols):
        sn, sd = 0, 1
        k = j
        for i in range(rows):
            p = xn[i] * mn[k]
            if p != 0:
                q = xd[i] * md[k]
                if q == 1:
                    sn = sn + p if sd == 1 else sn + p * sd
                else:
                    sn = sn * q + (p if sd == 1 else p * sd)
                    sd *= q
            k += cols
        outn[j], outd[j] = rnorm(sn, sd)
    return outn, outd


def mat_vec(mn, md, rows, cols, xn, xd):
    """Flat row-major matrix (rows x cols) times column vector (len cols)."""
    outn = [0] * rows
    outd = [1] * rows
    k = 0
    for i in range(rows):
        sn, sd = 0, 1
        for j in range(cols):
            p = mn[k] * xn[j]
            if p != 0:
                q = md[k] * xd[j]
                if q == 1:
                    sn = sn + p if sd == 1 else sn + p * sd
                else:
                    sn = sn * q + (p if sd == 1 else p * sd)
                    sd *= q
            k += 1
        outn[i], outd[i] = rnorm(sn, sd)
    return outn, outd


def mat_mul(an, ad, ar, ac, bn, bd, bc):
    """Product of flat row-major matrices (ar x ac) @ (ac x bc)."""
    outn = [0] * (ar * bc)
    outd = [1] * (ar * bc)
    for i in range(ar):
        arow = i * ac
        orow = i * bc
        for j in range(bc):
            sn, sd = 0, 1
            k = j
            for t in range(ac):
                p = an[arow + t] * bn[k]
                if p != 0:
                    q = ad[arow + t] * bd[k]
                    if q == 1:
                        sn = sn + p if sd == 1 else sn + p * sd
                    else:
                        sn = sn * q + (p if sd == 1 else p * sd)
                        sd *= q
                k += bc
            outn[orow + j], outd[orow + j] = rnorm(sn, sd)
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
