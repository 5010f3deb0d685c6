"""Finite-field arithmetic and invertible-kernel utilities.

Everything downstream works over GF(q) with q = p^m.  A field element is a
plain integer index in [0, q): the base-p digits of the index are the
coefficients of the residue polynomial, constant term least significant.
For m = 1 this is ordinary arithmetic mod p.  For m > 1 the field is
F_p[x]/(f) where f is the lexicographically smallest monic irreducible
polynomial of degree m, coefficient tuples compared from the constant term
upward — a deterministic choice, so element indices mean the same thing on
every machine.

Multiplication uses discrete log/exp tables over a primitive element, and
the negation, inverse, trace and character tables are lookups into them, so
no q-by-q table is ever materialised.  In every field, m = 1 included, a
product is the single lookup exp_z[log_z[a] + log_z[b]].  log_z is the log
table with log 0 set to 2q - 1.  exp_z holds two periods of the exp table,
so a sum of two logs needs no reduction mod q - 1, followed by a zero tail
(4q - 1 entries in all), so a product with a zero factor lands in the tail
and needs no mask.  Building a field is the scalar bootstrap of log/exp:
about 0.2 s for GF(2^12) and 3.4 s for GF(2^16) on a 2-vCPU Xeon VM, once
per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

#: largest supported field size (beyond this the dense tables stop being fun)
MAX_Q = 1 << 16

__all__ = [
    "FieldSpec",
    "Kernel",
    "field_make",
    "field_matmul",
    "mat_invert",
    "sample_invertible",
    "arikan_kernel",
]


# ---------------------------------------------------------------- primality

def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division (n is prime iff [n])."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ------------------------------------------- polynomial helpers over F_p
# Coefficient lists are little-endian (constant term first) with no implied
# leading coefficient; used only while constructing a field, never in hot
# paths.

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and _poly_trim(a):
        shift = len(a) - 1 - df
        factor = (a[-1] * inv_lead) % p
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - factor * fi) % p
        _poly_trim(a)
    return a


def _poly_is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            if not _poly_mod(f, g, p):
                return False
    return True


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, constant-term-first order."""
    for low in product(range(p), repeat=m):
        f = list(low) + [1]
        if _poly_is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")


# ------------------------------------------------------------------ fields

@dataclass(frozen=True)
class FieldSpec:
    """GF(p^m) with integer-indexed elements and cached op tables."""

    p: int
    m: int
    q: int
    modulus: tuple[int, ...] | None

    def __post_init__(self) -> None:
        p, m, q = self.p, self.m, self.q
        pows = p ** np.arange(m, dtype=np.int64)
        if m == 1:
            digits = None
        else:
            idx = np.arange(q, dtype=np.int64)
            digits = (idx[:, None] // pows[None, :]) % p
        object.__setattr__(self, "_pows", pows)
        object.__setattr__(self, "_digits", digits)
        log_t, exp_t = self._build_log_exp()
        object.__setattr__(self, "_log_t", log_t)
        object.__setattr__(self, "_exp_t", exp_t)
        # the zero-sentinel tables of mul (see the module docstring)
        log_z = log_t.copy()
        log_z[0] = 2 * q - 1
        exp_z = np.zeros(4 * q - 1, dtype=np.int64)
        exp_z[: 2 * (q - 1)] = np.tile(exp_t, 2)
        object.__setattr__(self, "_log_z", log_z)
        object.__setattr__(self, "_exp_z", exp_z)
        # every other table is a lookup into log/exp: -a = a (p - 1),
        # a^-1 = g^(-log a), and Tr(a) = sum_j a^(p^j) over the m Frobenius powers
        object.__setattr__(self, "_neg_t", self.mul(self.elements, p - 1))
        order = q - 1
        logs = log_t[1:]
        inv_t = np.zeros(q, dtype=np.int64)
        inv_t[1:] = exp_t[-logs % order]
        object.__setattr__(self, "_inv_t", inv_t)
        trace_t = np.zeros(q, dtype=np.int64)
        for j in range(m):
            trace_t[1:] = self.add(trace_t[1:], exp_t[p**j * logs % order])
        if trace_t.max() >= p:  # pragma: no cover - algebra guarantees this
            raise RuntimeError("trace left the prime subfield")
        object.__setattr__(self, "_trace_t", trace_t)
        angles = 2.0j * np.pi * trace_t / p
        object.__setattr__(self, "_char_t", np.exp(angles))

    # -- table construction ------------------------------------------------

    def _scalar_mul(self, a: int, b: int) -> int:
        """Reference product, used only while bootstrapping the log table."""
        if self.m == 1:
            return (a * b) % self.p
        pa = [int(self._digits[a, j]) for j in range(self.m)]
        pb = [int(self._digits[b, j]) for j in range(self.m)]
        prod = _poly_mod(_poly_mul(pa, pb, self.p), list(self.modulus), self.p)
        prod += [0] * (self.m - len(prod))
        return int(np.dot(prod[: self.m], self._pows))

    def _scalar_pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply over ``_scalar_mul``."""
        out = 1
        while e:
            if e & 1:
                out = self._scalar_mul(out, a)
            a = self._scalar_mul(a, a)
            e >>= 1
        return out

    def _build_log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """Log/exp tables over the first primitive element g = 1, 2, ...

        A candidate g is primitive iff g^((q-1)/r) != 1 for every prime r
        dividing q - 1, so only the chosen g is walked through its powers.
        g = 1 passes only in GF(2), where q - 1 has no prime divisor.
        """
        q = self.q
        order = q - 1
        cofactors = [order // r for r in _prime_factors(order)]
        g = next(
            g for g in range(1, q) if all(self._scalar_pow(g, c) != 1 for c in cofactors)
        )
        log_t = np.full(q, -1, dtype=np.int64)
        exp_t = np.empty(order, dtype=np.int64)
        x = 1
        for k in range(order):
            exp_t[k] = x
            log_t[x] = k
            x = self._scalar_mul(x, g)
        return log_t, exp_t

    # -- vectorised element ops --------------------------------------------
    # Every op accepts ints or integer ndarrays and broadcasts like numpy.

    def add(self, a, b):
        if self.m == 1:
            return (np.asarray(a) + np.asarray(b)) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        d = (self._digits[a] + self._digits[b]) % self.p
        return d @ self._pows

    def neg(self, a):
        return self._neg_t[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._exp_z[self._log_z[a] + self._log_z[b]]

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ValueError("zero element has no multiplicative inverse")
        return self._inv_t[a]

    def trace(self, a):
        return self._trace_t[a]

    def char(self, a):
        return self._char_t[a]

    @property
    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)


_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}


def field_make(p: int, m: int = 1) -> FieldSpec:
    """Construct (and cache) GF(p^m).

    Parameters
    ----------
    p : prime characteristic.
    m : extension degree; m == 1 gives the prime field.

    Raises ``ValueError`` for a p that is not prime, an m below 1 or a field
    past ``MAX_Q``; a p past ``MAX_Q`` or an m past its bit length, at once.
    """
    key = (int(p), int(m))
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    p, m = key
    # refused before the primality test and p**m, which take ages on a huge p or m
    if p > MAX_Q or m > MAX_Q.bit_length():
        raise ValueError(f"field size {p}^{m} exceeds supported limit {MAX_Q}")
    if _prime_factors(p) != [p]:
        raise ValueError(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    q = p**m
    if q > MAX_Q:
        raise ValueError(f"field size {q} exceeds supported limit {MAX_Q}")
    modulus = _canonical_modulus(p, m) if m > 1 else None
    spec = FieldSpec(p=p, m=m, q=q, modulus=modulus)
    _FIELD_CACHE[key] = spec
    return spec


# -------------------------------------------------------------- matrices

def field_matmul(spec: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over GF(q); A is (..., L), B is (L, R).

    No library code calls it: every map u -> u G reads ``Kernel.completions``.
    It stays as the independent oracle the tests check that table against,
    and the benchmark tracer wraps it by name.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if spec.m == 1:
        return (A @ B) % spec.p
    was_vec = A.ndim == 1
    if was_vec:
        A = A[None, :]
    L = B.shape[0]
    out = np.zeros(A.shape[:-1] + (B.shape[1],), dtype=np.int64)
    for k in range(L):
        out = spec.add(out, spec.mul(A[..., k, None], B[None, k, :]))
    return out[0] if was_vec else out


@dataclass(frozen=True, eq=False)
class Kernel:
    """An invertible ell x ell transform matrix with its cached inverse-transpose."""

    field: FieldSpec
    ell: int
    entries: np.ndarray
    inv_transpose: np.ndarray

    @cached_property
    def completions(self) -> np.ndarray:
        """Completion table: row u holds the flat pin indices j*q + x_j of x = u G.

        Rows run over all of GF(q)^ell in digit order, first digit most
        significant, so the completions of a decided prefix d of length
        i-1 are the q^(ell-i+1) rows starting at index(d) * q^(ell-i+1),
        and x_j is entry j mod q.  One nested sweep of the rows builds it,
        from the last up: level j adds the q multiples of g_j, as the
        leading digit, to every image of rows j+1..ell.  Built on first use
        and kept for the kernel's lifetime: q^ell * ell integers, read-only.
        """
        f, ell = self.field, self.ell
        multiples = f.mul(f.elements[:, None, None], self.entries[None, :, :])
        table = np.zeros((1, ell), dtype=np.int64)
        for j in range(ell - 1, -1, -1):
            table = f.add(multiples[:, j, None, :], table[None, :, :]).reshape(-1, ell)
        table += f.q * np.arange(ell)
        table.setflags(write=False)
        return table

    def synthesis_words(self, i: int) -> np.ndarray:
        """The symbols of x = u G for every source word, in position ``i``'s synthesis order.

        A (q^(ell-i), q^i, ell) array: block s holds the words whose suffix
        u_(i+1..ell) has index s, row u_i * q^(i-1) + index(u_1..u_(i-1))
        of the block holds x_1..x_ell of that word.  These are the rows of
        ``completions`` taken in (suffix, u_i, prefix) order, mod q.  Built
        on first use for each position and kept beside ``completions`` for
        the kernel's lifetime, read-only.
        """
        tables = vars(self).setdefault("_synthesis_words", {})
        if i not in tables:
            q, ell = self.field.q, self.ell
            perm = np.arange(q**ell).reshape(q ** (i - 1), q, q ** (ell - i)).T.ravel()
            words = (self.completions[perm] % q).reshape(q ** (ell - i), q**i, ell)
            words.setflags(write=False)
            tables[i] = words
        return tables[i]


def mat_invert(spec: FieldSpec, entries) -> Kernel:
    """Invert a square matrix over GF(q) by Gaussian elimination.

    Returns a :class:`Kernel` carrying the matrix and the transpose of its
    inverse.  Raises ``ValueError`` when an entry is not a finite integer in
    [0, q), when the matrix is not square, and when it is singular.
    """
    raw = np.asarray(entries)
    integral = raw.dtype.kind in "biu" or (
        raw.dtype.kind == "f" and bool(np.all(np.isfinite(raw) & (raw == np.trunc(raw))))
    )
    if not integral:
        raise ValueError("kernel entries must be finite integers")
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] == 0:
        raise ValueError(f"kernel must be square and non-empty, got shape {raw.shape}")
    if raw.min() < 0 or raw.max() >= spec.q:
        raise ValueError("matrix entries outside [0, q)")
    A = raw.astype(np.int64)
    ell, q = A.shape[0], spec.q
    log_z, exp_z = spec._log_z, spec._exp_z
    # [A | I] reduces to [I | A^-1] up to the order of its rows, which stay
    # where they are: ``order`` lists them as swapping each pivot row up
    # would leave them.  At each column the pivot a is the first nonzero
    # entry of the rows not yet pivoted, in that order; its row is divided
    # by a, and -f times it is added to every other row, whose entry in that
    # column is f.
    work = np.eye(ell, 2 * ell, ell, dtype=np.int64)
    work[:, :ell] = A
    order = list(range(ell))
    for col in range(ell):
        column = work[:, col].tolist()
        for k in range(col, ell):
            if column[order[k]]:
                break
        else:
            raise ValueError("matrix is singular over GF(q)")
        order[col], order[k] = order[k], order[col]
        piv = order[col]
        # row / a = g^(log row + q - 1 - log a); a zero entry's log 2q - 1
        # lands in exp_z's zero tail
        row = exp_z.take(log_z.take(work[piv]) + (q - 1 - int(log_z[column[piv]])))
        work[piv] = row
        factors = spec._neg_t.take(work[:, col])
        factors[piv] = 0
        work = spec.add(work, exp_z.take(log_z.take(factors)[:, None] + log_z.take(row)))
    # column col of A^-T is the right half of row order[col]
    inv_t = work[:, ell:].T.take(np.array(order), axis=1)
    for arr in (A, inv_t):
        arr.setflags(write=False)
    return Kernel(field=spec, ell=ell, entries=A, inv_transpose=inv_t)


def sample_invertible(spec: FieldSpec, ell: int, rng: np.random.Generator) -> Kernel:
    """Rejection-sample a uniform element of GL(ell, q).

    Each attempt draws all entries i.i.d. uniform and keeps the matrix iff
    it inverts, so accepted draws are exactly uniform over the invertible
    matrices.  Deterministic given the generator state.  Every draw goes
    through one ``mat_invert`` call, whose elimination stops at the first
    column with no pivot; a GF(4) 8x8 kernel takes about 1.4 draws, and
    the draws are most of what a kernel census spends per kernel.
    """
    if ell < 1:
        raise ValueError("kernel size must be positive")
    while True:
        cand = rng.integers(0, spec.q, size=(ell, ell))
        try:
            return mat_invert(spec, cand)
        except ValueError:
            continue


def arikan_kernel(spec: FieldSpec) -> Kernel:
    """The classic [[1,0],[1,1]] kernel over any field."""
    return mat_invert(spec, [[1, 0], [1, 1]])
