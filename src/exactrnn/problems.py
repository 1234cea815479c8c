"""Benchmark instances, encoders, brute-force oracles, and generators.

Three task families: sorted deterministic graph connectivity (unary token
streams), iterated 3x3 matrix multiplication over a prime modulus, and
iterated 3x3 matrix multiplication over the integers. Generators are pure
functions of (parameters, seed); dataset files are line-delimited
canonical JSON (sorted keys, no spaces, ``tokens`` last) and
byte-identical across runs with the same seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import accumulate, chain, product

# ---------------------------------------------------------------------------
# Seeding: every stream of randomness is derived from one 64-bit seed by
# hashing (seed, *labels); no ambient entropy anywhere.


def split_seed(seed: int, *labels) -> int:
    text = str(seed) + "".join(f"/{p}" for p in labels)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(split_seed(seed, *labels))


# ---------------------------------------------------------------------------
# Sorted deterministic graph connectivity

BOS = "$"
MARK = "0"
SEP = "|"
END = "#"


@dataclass(frozen=True)
class SortedDetConnInstance:
    """Source, target, and a deterministic topologically numbered edge list.

    Sources are strictly increasing and every edge goes forward (j > i), so
    each node has at most one out-edge and following them from s either
    reaches t or stops.
    """

    n: int
    s: int
    t: int
    edges: tuple

    def __post_init__(self):
        if not (1 <= self.s <= self.n and 1 <= self.t <= self.n):
            raise ValueError("s/t out of range")
        prev = 0
        for i, j in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i <= prev:
                raise ValueError("edge sources must be strictly increasing")
            if j <= i:
                raise ValueError(f"edge ({i},{j}) is not forward")
            prev = i


def conn_oracle(inst: SortedDetConnInstance) -> bool:
    """Follow the unique out-edge chain from s; true iff t is reached."""
    succ = dict(inst.edges)
    node = inst.s
    while True:
        if node == inst.t:
            return True
        if node not in succ:
            return False
        node = succ[node]


def reachable(edges, s: int, t: int) -> bool:
    """Breadth-first reachability for arbitrary directed edge lists."""
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            if u == t:
                return True
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return t in seen


def _conn_blocks(inst: SortedDetConnInstance) -> list:
    """The unary stream's mark counts, block by block: s, then i and j per
    edge, then t. The stream is BOS, the blocks as runs of marks joined by
    '|', then '#'."""
    return [inst.s, *chain.from_iterable(inst.edges), inst.t]


def encode_conn_unary(inst: SortedDetConnInstance) -> list:
    """BOS, 0^s, '|', then 0^i '|' 0^j '|' per edge, then 0^t, '#'."""
    # every token is one character, so the stream is built as one string
    return list(BOS + SEP.join([MARK * c for c in _conn_blocks(inst)]) + END)


def decode_conn_unary(tokens) -> SortedDetConnInstance:
    """Inverse of ``encode_conn_unary``; ``ValueError`` on any token other
    than the four one-character tokens, or a malformed block structure."""
    if not tokens or tokens[0] != BOS or tokens[-1] != END:
        raise ValueError("stream must be delimited by BOS and end marker")
    try:
        text = "".join(tokens)
    except TypeError:  # a token that is not a str
        text = ""
    # every token is one character, and each one between BOS and END a
    # mark or a separator, so the text between them splits into the blocks
    if list(text) != list(tokens) or text.count(MARK) + text.count(SEP) != len(text) - 2:
        bad = next(tok for tok in tokens[1:-1] if tok != MARK and tok != SEP)
        raise ValueError(f"unexpected token {bad!r}")
    blocks = [len(run) for run in text[1:-1].split(SEP)]
    if len(blocks) % 2 != 0:
        raise ValueError("malformed block structure")
    s, t = blocks[0], blocks[-1]
    pair_vals = blocks[1:-1]
    edges = tuple(
        (pair_vals[k], pair_vals[k + 1]) for k in range(0, len(pair_vals), 2)
    )
    n = max([s, t] + [v for e in edges for v in e])
    return SortedDetConnInstance(n=n, s=s, t=t, edges=edges)


def reduce_to_sorted(n: int, edges, s: int, t: int) -> SortedDetConnInstance:
    """Layered copy construction turning any deterministic graph into a
    sorted deterministic one with the same s-to-t reachability.

    Copy h of edge (i, j) runs from layer h to layer h+1; every copy of t
    feeds one fresh final node, so t is reachable from s in the input iff
    the final node is reachable from s in the output.
    """
    out_deg = {}
    for i, j in edges:
        out_deg[i] = out_deg.get(i, 0) + 1
    if any(c > 1 for c in out_deg.values()):
        raise ValueError("input graph is not deterministic")
    if t in out_deg:
        raise ValueError("target must have no outgoing edge")
    m = len(edges)
    v_final = n * (m + 1) + 1
    new_edges = []
    for h in range(m):
        base = h * n
        layer = [(i + base, j + base + n) for i, j in edges]
        layer.append((t + base, v_final))
        new_edges.extend(sorted(layer))
    new_edges.append((t + m * n, v_final))
    return SortedDetConnInstance(
        n=v_final, s=s, t=v_final, edges=tuple(new_edges)
    )


def _size_bounds(size_range) -> tuple:
    """The ``(lo, hi)`` of a generator's size range; ``ValueError`` unless
    1 <= lo <= hi."""
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise ValueError(f"size range must satisfy 1 <= lo <= hi, got {lo},{hi}")
    return lo, hi


def _check_p(p) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")


def gen_conn(n_range, p: float, label: bool, rng: random.Random) -> SortedDetConnInstance:
    """Two-bucket chain instance with the requested connectivity label.

    Vertices are split into two buckets; consecutive members of each bucket
    are chained by edges. The first and last vertex share a bucket exactly
    for positive instances. Remaining vertices join the first bucket
    independently with probability p. A drawn size of n yields n+1 vertices
    (ids 1..n+1) and the query runs from the first to the last.

    After the draw, one pass from the last vertex back to the first gives
    each vertex its edge to the next member of its own bucket. That pass
    meets the sources in decreasing order, so its edges, reversed, are
    sorted.
    """
    _check_p(p)
    lo, hi = _size_bounds(n_range)
    v = rng.randint(lo, hi) + 1  # vertices 1..v; query is 1 -> v
    rand = rng.random
    # whether each vertex, 1..v in order, is in the first bucket
    inside = [True, *[rand() < p for _ in range(v - 2)], label]
    next_in = next_out = 0  # the next member of each bucket; 0 before any
    edges = []
    append = edges.append
    for node, flag in zip(range(v, 0, -1), reversed(inside)):
        if flag:
            if next_in:
                append((node, next_in))
            next_in = node
        else:
            if next_out:
                append((node, next_out))
            next_out = node
    edges.reverse()
    inst = SortedDetConnInstance(n=v, s=1, t=v, edges=tuple(edges))
    if conn_oracle(inst) != label:
        raise AssertionError("generator produced an instance with the wrong label")
    return inst


def random_sorted_instance(
    rng: random.Random, max_n: int = 200, max_edges: int = 8
) -> SortedDetConnInstance:
    """Uniform-ish valid instance: random forward edges with sorted sources.

    The target is drawn from the nodes without an out-edge, matching the
    reduction's contract; a single left-to-right pass can then decide
    reachability by whether the walk from s ends at t.
    """
    n = rng.randint(2, max_n)
    k = rng.randint(0, min(max_edges, n - 1))
    sources = sorted(rng.sample(range(1, n), k)) if k else []
    edges = tuple((i, rng.randint(i + 1, n)) for i in sources)
    source_set = set(sources)
    t = rng.choice([v for v in range(1, n + 1) if v not in source_set])
    return SortedDetConnInstance(n=n, s=rng.randint(1, n), t=t, edges=edges)


# ---------------------------------------------------------------------------
# Iterated 3x3 matrix multiplication. Matrices are tuples of 9 ints in
# row-major order; all oracle arithmetic is plain Python bigint.

IDENTITY3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def mat3_mul(a, b):
    """Plain 3x3 product of two row-major 9-tuples."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6,
        a0 * b1 + a1 * b4 + a2 * b7,
        a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6,
        a3 * b1 + a4 * b4 + a5 * b7,
        a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6,
        a6 * b1 + a7 * b4 + a8 * b7,
        a6 * b2 + a7 * b5 + a8 * b8,
    )


def imm_product(stream) -> tuple:
    """The product of a stream of 3x3 matrices, nine row-major tokens each,
    oldest first: a sequential fold of ``mat3_mul`` from the identity, the
    imm nets' oracle."""
    p = IDENTITY3
    for base in range(0, len(stream), 9):
        p = mat3_mul(p, tuple(stream[base : base + 9]))
    return p


def mat3_det_mod(a, m: int) -> int:
    d = (
        a[0] * (a[4] * a[8] - a[5] * a[7])
        - a[1] * (a[3] * a[8] - a[5] * a[6])
        + a[2] * (a[3] * a[7] - a[4] * a[6])
    )
    return d % m


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def _check_clip(clip) -> None:
    if clip is not None and clip < 1:
        raise ValueError(f"clip must be >= 1, got {clip}")


@dataclass(frozen=True)
class ImmModInstance:
    T: int
    m: int
    q_k: int  # row-major entry index 0..8
    matrices: tuple

    def tokens(self) -> list:
        return list(chain.from_iterable(self.matrices))


@dataclass(frozen=True)
class ImmZInstance:
    T: int
    matrices: tuple
    clip: int | None = None

    def __post_init__(self):
        _check_clip(self.clip)

    def tokens(self) -> list:
        return list(chain.from_iterable(self.matrices))


def imm_mod_oracle(inst: ImmModInstance) -> list:
    """Per-step targets: entry q_k of the running product mod m.

    Entry q_k lies in row r = q_k // 3, and row r of (P M) mod m is
    (row_r(P) M) mod m, so only that row is carried, starting from row r of
    the identity: 9 multiplies per matrix instead of 27.
    """
    mod = inst.m
    r, j = divmod(inst.q_k, 3)
    a, b, c = IDENTITY3[3 * r : 3 * r + 3]
    out = []
    append = out.append
    for m0, m1, m2, m3, m4, m5, m6, m7, m8 in inst.matrices:
        row = (
            (a * m0 + b * m3 + c * m6) % mod,
            (a * m1 + b * m4 + c * m7) % mod,
            (a * m2 + b * m5 + c * m8) % mod,
        )
        append(row[j])
        a, b, c = row
    return out


def imm_z_oracle(inst: ImmZInstance) -> int:
    """Label 1 iff the (0,0) entry of the full product is exactly zero.

    Only row 0 of the running product is carried: row 0 of P M is
    row_0(P) M, and with a clip cap row 0 of clip(P M) is
    clip(row_0(P) M), so 9 multiplies per matrix give the same entry as
    the full 27.
    """
    a, b, c = 1, 0, 0
    hi = inst.clip
    if hi is None:
        for m0, m1, m2, m3, m4, m5, m6, m7, m8 in inst.matrices:
            a, b, c = (
                a * m0 + b * m3 + c * m6,
                a * m1 + b * m4 + c * m7,
                a * m2 + b * m5 + c * m8,
            )
    else:
        lo = -hi
        for m0, m1, m2, m3, m4, m5, m6, m7, m8 in inst.matrices:
            x = a * m0 + b * m3 + c * m6
            y = a * m1 + b * m4 + c * m7
            z = a * m2 + b * m5 + c * m8
            a = lo if x < lo else hi if x > hi else x
            b = lo if y < lo else hi if y > hi else y
            c = lo if z < lo else hi if z > hi else z
    return 1 if a == 0 else 0


def _check_imm_mod(m: int, q_k: int) -> None:
    if not is_prime(m):
        raise ValueError(f"modulus must be prime, got {m}")
    if not (0 <= q_k <= 8):
        raise ValueError(f"q_k must index a 3x3 entry (0..8), got {q_k}")


# gen_imm_mod and gen_imm_z draw at most this many Mersenne Twister words
# per getrandbits call, so their buffers stay bounded for any T.
_WORDS_PER_DRAW = 4096
_TOP_CODE = bytes(b >> 6 for b in range(256))  # word's top byte -> 2-bit code
_REDRAWN = bytes(range(0xC0, 0x100))  # top bytes whose code is 3
# codes of 6 and of 3 consecutive entries -> those entries (code - 1)
_ROW6, _ROW3 = (
    {bytes(c): tuple(x - 1 for x in c) for c in product(range(3), repeat=k)}
    for k in (6, 3)
)


def gen_imm_mod(T_range, m: int, q_k: int, rng: random.Random) -> ImmModInstance:
    """Matrices over {-1,0,1}, rejection-sampled until invertible mod m.

    The stream is one ``rng.choice((-1, 0, 1))`` per entry in row-major
    order, drawn a block of Mersenne Twister words at a time. ``choice``
    of 3 items is ``getrandbits(2)``, redrawn while it is 3, and
    ``getrandbits(2)`` is the top two bits of one 32-bit word, while
    ``getrandbits(32 * n)`` is the next n words, first word least
    significant. Each word therefore yields one entry or one redraw, so
    drawing no more words than entries still needed consumes exactly the
    words that per-entry ``choice`` calls would.
    """
    _check_imm_mod(m, q_k)
    lo, hi = _size_bounds(T_range)
    T = rng.randint(lo, hi)
    mats = []
    codes = b""  # codes of the next candidate's first entries (< 9)
    while len(mats) < T:
        n = min(9 * (T - len(mats)) - len(codes), _WORDS_PER_DRAW)
        words = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
        codes += words[3::4].translate(_TOP_CODE, _REDRAWN)
        full = len(codes) - len(codes) % 9
        for i in range(0, full, 9):
            cand = _ROW6[codes[i:i + 6]] + _ROW3[codes[i + 6:i + 9]]
            if mat3_det_mod(cand, m) != 0:
                mats.append(cand)
        codes = codes[full:]
    return ImmModInstance(T=T, m=m, q_k=q_k, matrices=tuple(mats))


ENTRY_WEIGHTS = (45, 10, 45)  # sampling weights for entries -1, 0, 1
_ENTRY_CUM_WEIGHTS = tuple(accumulate(ENTRY_WEIGHTS))


def _threshold(cum) -> int:
    """The least N in [0, 2**53] whose ``random() * total`` in ``choices``,
    ``N / 2**53 * total``, is >= cum: found by bisection on that float
    expression, so that its rounding is reproduced, not assumed."""
    total = _ENTRY_CUM_WEIGHTS[-1] + 0.0
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**53 * total >= cum:
            hi = mid
        else:
            lo = mid + 1
    return lo


# entry -1 below _T1, 0 below _T2, else 1, for the 53-bit N of one random()
_T1, _T2 = (_threshold(c) for c in _ENTRY_CUM_WEIGHTS[:2])
_UNDECIDED = 2  # code of a top byte in which _T1 or _T2 falls
# first word's top byte (bits 45..52 of N) -> signed entry byte, or _UNDECIDED
_TOP_ENTRY = bytes(
    _UNDECIDED if top in (_T1 >> 45, _T2 >> 45)
    else 0xFF if top < _T1 >> 45 else 0 if top < _T2 >> 45 else 1
    for top in range(256)
)


def _imm_z_entries(rng: random.Random, k: int) -> memoryview:
    """The k entries of ``rng.choices((-1, 0, 1), cum_weights=
    _ENTRY_CUM_WEIGHTS, k=k)`` as signed bytes, drawn from the same words."""
    out = bytearray()
    while k:
        n = min(k, _WORDS_PER_DRAW // 2)
        k -= n
        words = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        base = len(out)
        out += words[3::8].translate(_TOP_ENTRY)
        i = out.find(_UNDECIDED, base)
        while i >= 0:
            j = 8 * (i - base)
            a = int.from_bytes(words[j:j + 4], "little")
            b = int.from_bytes(words[j + 4:j + 8], "little")
            N = (a >> 5) * 2**26 + (b >> 6)
            out[i] = 0xFF if N < _T1 else 0 if N < _T2 else 1
            i = out.find(_UNDECIDED, i + 1)
    return memoryview(out).cast("b")


def _check_want_label(want_label) -> None:
    if want_label not in (None, 0, 1):
        raise ValueError(f"want_label must be None, 0 or 1, got {want_label!r}")


def gen_imm_z(
    T_range,
    rng: random.Random,
    clip: int | None = None,
    want_label: int | None = None,
    max_tries: int = 10000,
) -> ImmZInstance:
    """Matrices with entries -1/0/1 drawn with weights 45/10/45; the label
    is computed from the exact integer product unless a clip cap is set.
    Pass ``want_label`` (0 or 1) to rejection-sample a balanced split.

    Each try draws T, then the stream of one ``rng.choices((-1, 0, 1),
    cum_weights=(45, 55, 100), k=9 * T)`` call, a block of Mersenne Twister
    words at a time. ``choices`` takes one ``random()`` per entry and
    bisects ``random() * 100.0`` against the cumulative weights, and
    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for the next
    two 32-bit words a and b. So an entry is -1, 0 or 1 as that 53-bit N
    is below ``_T1``, below ``_T2`` or neither. ``getrandbits(64 * n)`` is
    the next 2n words, first word least significant, so byte 8i + 3 of its
    little-endian bytes is the top byte of entry i's a, the top 8 of N's
    53 bits, which decides the entry unless ``_T1`` or ``_T2`` falls inside
    it (about 0.8% of entries); those entries are decided from their full N.
    """
    _check_want_label(want_label)
    lo, hi = _size_bounds(T_range)
    for _ in range(max_tries):
        T = rng.randint(lo, hi)
        mats = tuple(zip(*[iter(_imm_z_entries(rng, 9 * T))] * 9))  # 9-tuples
        inst = ImmZInstance(T=T, matrices=mats, clip=clip)
        if want_label is None or imm_z_oracle(inst) == want_label:
            return inst
    raise ValueError(
        f"no imm-z instance with label {want_label} in {max_tries} draws"
        f" with T in {lo}..{hi}"
    )


# ---------------------------------------------------------------------------
# Dataset records. A line is canonical JSON: sorted keys, no spaces, the
# same bytes for the same seed. "tokens" sorts after every other key of
# every record, so the writer renders the other fields first and appends
# the token array last. A conn record is rendered whole from fixed JSON
# fragments: its label, meta and task in their sorted order, then its
# tokens as one repeated mark fragment per block of the unary stream,
# without building the token list. A matrix record's other fields go
# through the JSON encoder, and its tokens are rendered entry by entry.

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_BOS_JSON, _MARK_JSON, _SEP_JSON = (_encode(tok) + "," for tok in (BOS, MARK, SEP))
_END_JSON = _encode(END)
_ENTRY_JSON = {e: _encode(e) for e in (-1, 0, 1)}  # matrix entries

MAX_CONN_SIZE = 2048  # the largest conn size_range hi (see generate_dataset)

# each task's generator options and their defaults
_TASK_OPTIONS = {
    "conn": {"p": 0.5},
    "imm-mod": {"m": 5, "q_k": 0},
    "imm-z": {"clip": None, "want_label": None, "balanced": False},
}


def record_to_line(fields: dict, inst) -> str:
    """One dataset line for ``inst``, a conn instance or a matrix instance
    with entries -1, 0 and 1. For a conn instance ``fields`` is
    ``{"label": .., "seed": ..}``, and the line's meta holds the instance's
    n, s, t and edges next to that seed. For a matrix instance ``fields``
    holds every key of the record but "tokens", each sorting before it."""
    # the token text is built once and copied once, into the line
    if isinstance(inst, SortedDetConnInstance):
        edges = ",".join([f"[{i},{j}]" for i, j in inst.edges])
        body = _SEP_JSON.join([_MARK_JSON * c for c in _conn_blocks(inst)])
        return (
            f'{{"label":{fields["label"]},"meta":{{"edges":[{edges}],"n":{inst.n},'
            f'"s":{inst.s},"seed":{fields["seed"]},"t":{inst.t}}},"task":"conn",'
            f'"tokens":[{_BOS_JSON}{body}{_END_JSON}]}}'
        )
    body = ",".join(map(_ENTRY_JSON.__getitem__, inst.tokens()))
    return f'{_encode(fields)[:-1]},"tokens":[{body}]}}'


def _task_options(task: str, options: dict) -> dict:
    """``options`` over the task's defaults; ``ValueError`` for an unknown
    task, an option the task does not take, or a bad value."""
    if task not in _TASK_OPTIONS:
        raise ValueError(f"unknown task {task!r}")
    defaults = _TASK_OPTIONS[task]
    extra = sorted(set(options) - set(defaults))
    if extra:
        raise ValueError(f"task {task} does not take {', '.join(extra)}")
    opts = {**defaults, **options}
    if task == "conn":
        _check_p(opts["p"])
    elif task == "imm-mod":
        _check_imm_mod(opts["m"], opts["q_k"])
    else:
        _check_clip(opts["clip"])
        _check_want_label(opts["want_label"])
    return opts


def generate_dataset(task: str, count: int, size_range, seed: int, **options) -> list:
    """Produce ``count`` JSONL lines for one task, deterministically.

    The task, its options, ``count`` and ``size_range`` are all checked
    before any draw. A conn line holds about 4 n^2 bytes of tokens, so its
    size is at most ``MAX_CONN_SIZE`` = 2048: 17 MB a line. ``exactrnn gen``
    writes each line as it is drawn, so writing ten such lines peaks at
    about 70 MB RSS, as one does (CPython 3.11, x86-64). Conn labels
    alternate 1, 0, ...; imm-z with ``balanced`` alternates 0, 1, ...
    """
    return list(_dataset_lines(task, count, size_range, seed, **options))


def _dataset_lines(task: str, count: int, size_range, seed: int, **options):
    """``generate_dataset``'s checks, then an iterator over its lines, each
    drawn when it is asked for, so that a writer holds one at a time."""
    opts = _task_options(task, options)
    if count < 0:
        raise ValueError(f"count must be >= 0, not {count}")
    lo, hi = _size_bounds(size_range)
    if task == "conn" and hi > MAX_CONN_SIZE:
        raise ValueError(
            f"conn size range (--range) must have hi <= {MAX_CONN_SIZE}, got {lo},{hi}"
        )
    return (_dataset_line(task, idx, size_range, seed, opts) for idx in range(count))


def _dataset_line(task, idx, size_range, seed, opts) -> str:
    rng = rng_for(seed, task, idx)
    if task == "conn":
        label = idx % 2 == 0
        inst = gen_conn(size_range, opts["p"], label, rng)
        fields = {"label": int(label), "seed": seed}
    elif task == "imm-mod":
        inst = gen_imm_mod(size_range, opts["m"], opts["q_k"], rng)
        meta = {"T": inst.T, "m": inst.m, "q_k": inst.q_k, "seed": seed}
        fields = {"meta": meta, "targets": imm_mod_oracle(inst), "task": task}
    else:
        want = idx % 2 if opts["balanced"] else opts["want_label"]
        inst = gen_imm_z(size_range, rng, clip=opts["clip"], want_label=want)
        meta = {"T": inst.T, "seed": seed}
        if inst.clip is not None:
            meta["clip"] = inst.clip
        # an instance drawn for a wanted label has that label
        label = imm_z_oracle(inst) if want is None else want
        fields = {"label": label, "meta": meta, "task": task}
    return record_to_line(fields, inst)
