"""Field layer: canonical moduli, arithmetic axioms, kernels, GL sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolar.gf import (
    Kernel,
    arikan_kernel,
    field_make,
    field_matmul,
    mat_invert,
    sample_invertible,
)

# Moduli below were cross-checked against an independent computer-algebra
# irreducibility oracle; tuples are little-endian with the leading 1 kept.
FROZEN_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 0, 1, 1),     # x^3 + x^2 + 1  (the tie-break picks this, not x^3+x+1)
    (3, 2): (1, 0, 1),        # x^2 + 1
    (2, 4): (1, 0, 0, 1, 1),  # x^4 + x^3 + 1
    (5, 2): (1, 1, 1),        # x^2 + x + 1
}


# ---------------------------------------------------------------- moduli

def test_canonical_moduli_frozen():
    for (p, m), coeffs in FROZEN_MODULI.items():
        assert field_make(p, m).modulus == coeffs


def test_prime_field_has_no_modulus():
    assert field_make(7).modulus is None


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(4)
    with pytest.raises(ValueError):
        field_make(2, 0)
    with pytest.raises(ValueError):
        field_make(2, 17)
    for p in (0, 1, -3, 65535, 65537 * 65537):
        with pytest.raises(ValueError):
            field_make(p)
    # a huge p or m is refused before trial division or p**m could hang
    for p, m in ((1000000000000000003, 1), (3, 100000000), (2, 10**30)):
        with pytest.raises(ValueError, match="exceeds supported limit"):
            field_make(p, m)


# ----------------------------------------------------------- field axioms

@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    f = field_make(p, m)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_f4_multiplication_frozen():
    f4 = field_make(2, 2)
    # index 2 is the residue x; x*x = x+1 which is index 3
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.mul(3, 3) == 2


def test_vectorised_ops_match_scalar():
    f = field_make(3, 2)
    rng = np.random.default_rng(7)
    a = rng.integers(0, f.q, size=200)
    b = rng.integers(0, f.q, size=200)
    add_v, mul_v, sub_v = f.add(a, b), f.mul(a, b), f.sub(a, b)
    for i in range(a.size):
        assert add_v[i] == f.add(int(a[i]), int(b[i]))
        assert mul_v[i] == f.mul(int(a[i]), int(b[i]))
        assert sub_v[i] == f.sub(int(a[i]), int(b[i]))


def test_inverse_of_zero_raises():
    f = field_make(2, 3)
    with pytest.raises(ValueError):
        f.inv(0)


# --------------------------------------------------------- trace/character

def test_trace_frozen_f4():
    f4 = field_make(2, 2)
    assert [int(f4.trace(a)) for a in range(4)] == [0, 0, 1, 1]


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_trace_linear_and_balanced(p, m):
    f = field_make(p, m)
    vals = np.array([int(f.trace(a)) for a in range(f.q)])
    assert vals.min() >= 0 and vals.max() < p
    # additivity and balance (each prime-subfield value hit q/p times)
    for a in range(f.q):
        for b in range(f.q):
            assert vals[f.add(a, b)] == (vals[a] + vals[b]) % p
    assert all(np.sum(vals == c) == f.q // p for c in range(p))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_character_sums_and_multiplicativity(p, m):
    f = field_make(p, m)
    chi = np.array([f.char(a) for a in range(f.q)])
    assert abs(chi[0] - 1.0) == 0.0
    assert abs(chi.sum()) <= 1e-12
    for a in range(f.q):
        for b in range(f.q):
            assert abs(chi[f.add(a, b)] - chi[a] * chi[b]) <= 1e-12


def test_character_f2_is_plus_minus_one():
    f2 = field_make(2)
    assert f2.char(0) == pytest.approx(1.0)
    assert f2.char(1) == pytest.approx(-1.0)


def _field_tables_reference(p, m, modulus):
    """The six field tables as they were built before log/exp fed them all.

    Scalar products reduce by the modulus one coefficient at a time, the log
    table tries g = 2, 3, ... until one has order q - 1, negation works on
    base-p digits, and the trace adds the m Frobenius powers a^(p^j), each
    as p^j scalar products.
    """
    q = p**m
    pows = p ** np.arange(m, dtype=np.int64)
    digits = (np.arange(q, dtype=np.int64)[:, None] // pows[None, :]) % p

    def add(a, b):
        return int((digits[a] + digits[b]) % p @ pows)

    def mul(a, b):
        if m == 1:
            return (a * b) % p
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(digits[a]):
            for j, bj in enumerate(digits[b]):
                prod[i + j] += int(ai) * int(bj)
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            for i, fi in enumerate(modulus):
                prod[k - m + i] -= c * fi
        return sum((prod[i] % p) * p**i for i in range(m))

    def power(a, e):
        out = 1
        for _ in range(e):
            out = mul(out, a)
        return out

    neg = ((-digits) % p) @ pows
    if q == 2:
        log, exp = np.array([-1, 0], dtype=np.int64), np.array([1], dtype=np.int64)
    for g in range(2, q):
        log, exp, x = np.full(q, -1, dtype=np.int64), np.empty(q - 1, dtype=np.int64), 1
        for k in range(q - 1):
            if log[x] >= 0:
                break
            exp[k], log[x] = x, k
            x = mul(x, g)
        else:
            if x == 1:
                break
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
    trace = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        acc, term = 0, a
        for _ in range(m):
            acc, term = add(acc, term), power(term, p)
        trace[a] = acc
    char = np.exp(2.0j * np.pi * trace / p)
    return {"neg": neg, "log": log, "exp": exp, "inv": inv, "trace": trace, "char": char}


PRIME_POWERS_TO_256 = [
    (p, m)
    for p in range(2, 257)
    if all(p % d for d in range(2, p))
    for m in range(1, 9)
    if p**m <= 256
]


@pytest.mark.parametrize("p,m", PRIME_POWERS_TO_256)
def test_field_tables_match_the_scalar_reference(p, m):
    f = field_make(p, m)
    want = _field_tables_reference(p, m, f.modulus)
    for name, table in want.items():
        got = getattr(f, f"_{name}_t")
        assert got.dtype == table.dtype, name
        assert got.tobytes() == table.tobytes(), name


def _masked_mul_reference(f, a, b):
    """The GF(p^m) product as it was before the zero-sentinel tables."""
    a = np.asarray(a)
    b = np.asarray(b)
    nz = (a != 0) & (b != 0)
    logs = (f._log_t[a * nz] + f._log_t[b * nz]) % (f.q - 1)
    return np.where(nz, f._exp_t[logs], 0)


def _assert_mul_matches_the_masked_reference(f, a, b):
    got, want = f.mul(a, b), _masked_mul_reference(f, a, b)
    assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("p,m", PRIME_POWERS_TO_256)
def test_mul_matches_the_masked_reference_on_every_pair(p, m):
    f = field_make(p, m)
    _assert_mul_matches_the_masked_reference(f, f.elements[:, None], f.elements[None, :])


@pytest.mark.parametrize("m", [12, 16])
def test_mul_matches_the_masked_reference_on_sampled_pairs(m):
    f = field_make(2, m)
    rng = np.random.default_rng(m)
    a = rng.integers(0, f.q, size=4096)
    b = rng.integers(0, f.q, size=4096)
    a[:64] = 0  # zero against anything, zero times zero among them
    b[32:96] = 0
    _assert_mul_matches_the_masked_reference(f, a, b)
    _assert_mul_matches_the_masked_reference(f, a, b[::-1])


def test_mul_keeps_dtype_and_shape_for_scalars_and_broadcasts():
    f = field_make(3, 2)
    row = np.arange(9)
    for a, b in [(0, 5), (4, 7), (row, 0), (2, row), (row[:, None], row[None, :3]),
                 (np.zeros((2, 0), dtype=np.int64), 3), ([1, 2], [[3], [0]])]:
        _assert_mul_matches_the_masked_reference(f, a, b)


# ---------------------------------------------------------------- kernels

def test_arikan_kernel_is_self_inverse_over_f2():
    k = arikan_kernel(field_make(2))
    np.testing.assert_array_equal(k.entries, [[1, 0], [1, 1]])
    np.testing.assert_array_equal(k.inv_transpose.T, [[1, 0], [1, 1]])
    np.testing.assert_array_equal(k.inv_transpose, [[1, 1], [0, 1]])


def test_mat_invert_rejects_singular():
    with pytest.raises(ValueError):
        mat_invert(field_make(2), [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        mat_invert(field_make(3), [[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        mat_invert(field_make(2), [[0, 2], [1, 0]])  # entry out of range


@pytest.mark.parametrize(
    "entries",
    [
        [[1.7, 0], [1, 1.2]],
        [[1, 0], [1, None]],
        [[1, 0], [1, float("nan")]],
        [[1, 0], [float("inf"), 1]],
        [["1", "0"], ["1", "1"]],
    ],
    ids=["fraction", "none", "nan", "inf", "string"],
)
def test_mat_invert_rejects_non_integer_entries(entries):
    with pytest.raises(ValueError, match="finite integers"):
        mat_invert(field_make(2), entries)


def test_mat_invert_accepts_integer_valued_floats():
    k = mat_invert(field_make(2), [[1.0, 0.0], [1.0, 1.0]])
    assert k.entries.dtype == np.int64
    want = arikan_kernel(field_make(2)).inv_transpose.T
    assert k.inv_transpose.T.tobytes() == want.tobytes()


def _mat_invert_reference(spec, entries):
    """Gauss-Jordan elimination as it was before: one row update per loop step."""
    A = np.array(entries, dtype=np.int64)
    ell = A.shape[0]
    work = A.copy()
    inv = np.eye(ell, dtype=np.int64)
    for col in range(ell):
        piv_rows = np.nonzero(work[col:, col])[0]
        if piv_rows.size == 0:
            raise ValueError("matrix is singular over GF(q)")
        piv = col + int(piv_rows[0])
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        scale = spec.inv(int(work[col, col]))
        work[col] = spec.mul(scale, work[col])
        inv[col] = spec.mul(scale, inv[col])
        for r in range(ell):
            f = int(work[r, col])
            if r != col and f:
                work[r] = spec.sub(work[r], spec.mul(f, work[col]))
                inv[r] = spec.sub(inv[r], spec.mul(f, inv[col]))
    return A, inv


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_mat_invert_matches_the_reference(pm, ell, seed, low_rank):
    f = field_make(*pm)
    rng = np.random.default_rng(seed)
    cand = rng.integers(0, f.q, size=(ell, ell))
    if low_rank and ell > 1:
        cand[-1] = f.add(cand[0], f.mul(int(rng.integers(0, f.q)), cand[1]))
    try:
        want = _mat_invert_reference(f, cand)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            mat_invert(f, cand)
        assert str(got.value) == str(exc)
        return
    k = mat_invert(f, cand)
    assert k.entries.tobytes() == want[0].tobytes()
    assert k.inv_transpose.T.tobytes() == want[1].tobytes()
    assert k.inv_transpose.tobytes() == np.ascontiguousarray(want[1].T).tobytes()


@pytest.mark.parametrize("p,m,ell", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (3, 2, 2)])
def test_inverse_really_inverts(p, m, ell):
    f = field_make(p, m)
    rng = np.random.default_rng(11)
    eye = np.eye(ell, dtype=np.int64)
    for _ in range(20):
        k = sample_invertible(f, ell, rng)
        np.testing.assert_array_equal(field_matmul(f, k.entries, k.inv_transpose.T), eye)
        np.testing.assert_array_equal(field_matmul(f, k.inv_transpose.T, k.entries), eye)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_square_matrices_invert_or_raise(seed):
    f = field_make(2, 2)
    rng = np.random.default_rng(seed)
    cand = rng.integers(0, f.q, size=(3, 3))
    try:
        k = mat_invert(f, cand)
    except ValueError:
        # singular: some nontrivial combination of rows must vanish
        return
    np.testing.assert_array_equal(
        field_matmul(f, k.entries, k.inv_transpose.T), np.eye(3, dtype=np.int64)
    )


def test_field_matmul_matches_scalar_reference():
    f = field_make(2, 3)
    rng = np.random.default_rng(3)
    A = rng.integers(0, f.q, size=(4, 5))
    B = rng.integers(0, f.q, size=(5, 2))
    C = field_matmul(f, A, B)
    for i in range(4):
        for j in range(2):
            acc = 0
            for k in range(5):
                acc = f.add(acc, f.mul(int(A[i, k]), int(B[k, j])))
            assert C[i, j] == acc
    # 1-D row vector stays 1-D
    v = rng.integers(0, f.q, size=5)
    out = field_matmul(f, v, B)
    assert out.shape == (2,)


# ------------------------------------------------------------ GL sampling

def test_sample_invertible_deterministic():
    f = field_make(2)
    a = sample_invertible(f, 8, np.random.default_rng(42))
    b = sample_invertible(f, 8, np.random.default_rng(42))
    np.testing.assert_array_equal(a.entries, b.entries)


def test_gl_acceptance_rate_f2_ell8():
    # fraction of uniform 8x8 binary matrices that are invertible:
    # prod_{k=1..8} (1 - 2^-k) = 0.2899191...
    f = field_make(2)
    rng = np.random.default_rng(2024)
    trials = 4000
    hits = 0
    for _ in range(trials):
        try:
            mat_invert(f, rng.integers(0, 2, size=(8, 8)))
            hits += 1
        except ValueError:
            pass
    expected = float(np.prod(1 - 0.5 ** np.arange(1, 9)))
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert abs(hits / trials - expected) <= 3 * sigma


def test_sample_invertible_uniform_over_gl22():
    # GL(2, 2) has exactly 6 elements; check empirical counts are flat.
    f = field_make(2)
    rng = np.random.default_rng(5)
    counts: dict[bytes, int] = {}
    n = 6000
    for _ in range(n):
        k = sample_invertible(f, 2, rng)
        key = k.entries.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    sigma = (n * (1 / 6) * (5 / 6)) ** 0.5
    for c in counts.values():
        assert abs(c - n / 6) <= 4 * sigma


def test_kernel_apply_rows():
    f = field_make(2)
    k = arikan_kernel(f)
    rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    np.testing.assert_array_equal(
        k.apply_rows(rows), [[0, 0], [1, 1], [1, 0], [0, 1]]
    )
    assert isinstance(k, Kernel)
