"""Exact arithmetic in GF(p^e).

Elements are represented as integers in [0, p^e): the integer's base-p
digits, least significant first, are the coefficients of the polynomial
representative (constant term first).  This encoding is lossless and
canonical, so equality of integers is equality of elements, and the
integer order 0, 1, 2, ... is the canonical enumeration order used by
every "first qualifying element" rule in the toolkit.

The field is GF(p)[x]/(f) for a monic irreducible f of degree e, set up on
e x e digit matrices over GF(p): with X the companion matrix of f,
digits(a * x) = digits(a) @ X mod p, and multiplication by b is the matrix
b(X) (Lidl and Niederreiter, "Finite Fields", ch. 2).  The default modulus
is the first f in constant-term-first order to pass Rabin's test on X
(SIAM J. Comput. 9(2), 1980), and the primitive element g the first
element in canonical order whose g(X) has order p^e - 1.  Arithmetic goes
through tables of O(p^e) size that every field builds from g(X) on first
use: exp[i] = g^i, its inverse log, and Zech logarithms
zech[i] = log(1 + g^i), so that a + b = a(1 + b/a) (Huber, "Some comments
on Zech's logarithms", IEEE Trans. Inf. Theory 36(4), 1990).  Fields of at
most ``TABLE_LIMIT`` elements also cache their full add/mul grids, computed
from the tables, behind the same methods.  Sums of products (``dot_lanes``,
the kernel of matrix products) read a lane copy of exp, built on the first
such sum, whose plain integer sums are field sums.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from typing import Sequence

import numpy as np

from .errors import (
    BadFieldError,
    CapExceededError,
    NoSuchElementError,
    NotPrimeError,
    OddExtensionError,
    SpecMismatchError,
    VerificationFailedError,
)

#: Largest field order the toolkit will construct.
FIELD_ORDER_CAP = 2**20

#: Largest field order whose full add/mul grids are cached.
TABLE_LIMIT = 1024


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division, as {prime: exponent}."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_power(q: int) -> bool:
    return q >= 2 and len(factorize(q)) == 1


# ---------------------------------------------------------------------------
# Set-up on e x e digit matrices over GF(p), entries in [0, p): for e >= 2 the
# cap keeps p <= 1024, so a product's sums stay below e * (p - 1)^2 < 2^25,
# and 1 x 1 products stay below 2^40.
# ---------------------------------------------------------------------------


def _companion(f: Sequence[int], p: int) -> np.ndarray:
    """X for the monic f of degree e: row i holds the digits of x^(i+1) mod f."""
    e = len(f) - 1
    x = np.eye(e, k=1, dtype=np.int64)
    x[-1] = np.negative(f[:e]) % p  # x^e = -(f_0 + f_1 x + ... + f_(e-1) x^(e-1))
    return x


def _matpow(a: np.ndarray, n: int, p: int) -> np.ndarray:
    """a^n mod p for n >= 1, squaring along the bits of n from the top."""
    out = a
    for bit in bin(n)[3:]:
        out = out @ out % p
        if bit == "1":
            out = out @ a % p
    return out


def _nonsingular(a: np.ndarray, p: int) -> bool:
    """Whether the square matrix a is invertible mod p, by elimination."""
    a = a % p
    for c in range(len(a)):
        r = c + a[c:, c].argmax()  # entries lie in [0, p): the largest is nonzero if any is
        if not a[r, c]:
            return False
        a[[c, r]] = a[[r, c]]
        a[c + 1 :] -= np.multiply.outer(a[c + 1 :, c] * pow(int(a[c, c]), p - 2, p) % p, a[c])
        a %= p
    return True


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic polynomial f of degree e over GF(p), on its
    companion matrix X: f is irreducible exactly when X^(p^e) = X and
    X^(p^(e/r)) - X is nonsingular for every prime r dividing e (b is a
    unit mod f exactly when b(X) is nonsingular)."""
    e = len(coeffs) - 1
    if e == 1:
        return True
    x = _companion(coeffs, p)
    if not np.array_equal(_matpow(x, p**e, p), x):
        return False
    return all(_nonsingular(_matpow(x, p ** (e // r), p) - x, p) for r in factorize(e))


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible degree-e polynomial.

    Candidates are compared by their coefficient sequences, constant term
    first.  Returns e+1 coefficients, constant term first.
    """
    # for e > 1 a zero constant term leaves the factor x, so it starts at 1; its
    # range is walked lazily, where itertools.product would copy all p of it
    for low in range(1 if e > 1 else 0, p):
        for rest in itertools.product(range(p), repeat=e - 1):
            if _is_irreducible(cand := (low, *rest, 1), p):
                return cand
    raise NoSuchElementError(
        f"no irreducible polynomial of degree {e} over GF({p})"
    )  # pragma: no cover


def digit_columns(values, base: int, width: int) -> np.ndarray:
    """(len(values), width) array of each value's base-``base`` digits, least significant first."""
    values = np.asarray(values, dtype=np.int64)
    out = np.empty((values.size, width), dtype=np.int64)
    for j in range(width):
        values, out[:, j] = np.divmod(values, base)
    return out


def element_codes(values, below: int) -> np.ndarray:
    """``values`` as a new int64 array, the one reader of element codes from
    outside the library: it refuses (ValueError) non-integer data and, in one
    vectorised check, any entry outside [0, below), never truncating or
    reducing it; size-0 data, which numpy gives a float dtype, passes."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "biu":
        raise ValueError(f"element codes must be int64 integers, got {arr.dtype} data")
    if arr.size and not 0 <= arr.min() <= arr.max() < below:
        raise ValueError(f"element codes span [{arr.min()}, {arr.max()}], outside [0, {below})")
    return arr.astype(np.int64)


def _lookup(fn, *shape):
    """fn evaluated at every index of a grid of that shape, then read back."""
    table = fn(*np.indices(shape, sparse=True))
    return lambda *index: table[index]


# ---------------------------------------------------------------------------
# The field itself
# ---------------------------------------------------------------------------


class Field:
    """The finite field GF(p^e) with a fixed monic irreducible modulus.

    Parameters
    ----------
    p:
        Prime characteristic.
    e:
        Extension degree, at least 1.
    modulus:
        Optional e+1 coefficients of the modulus, constant term first, each
        an integer in [0, p) (anything else is refused, not reduced mod p).
        Defaults to the lexicographically smallest monic irreducible
        polynomial, which is deterministic for a given (p, e).

    Instances are immutable and safe to share between threads.  Elements
    are plain ints in [0, p^e).
    """

    def __init__(self, p: int, e: int, modulus: Sequence[int] | None = None):
        # The degree and the cap come first: trial division of a huge p, or
        # p**e for a huge e, would not finish.  Past the bit length, even
        # 2**e is over.
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        if e > FIELD_ORDER_CAP.bit_length() or abs(p) ** e > FIELD_ORDER_CAP:
            raise CapExceededError(f"GF({p}^{e}) exceeds the field order cap {FIELD_ORDER_CAP}")
        if factorize(p) != {p: 1}:
            raise NotPrimeError(f"p = {p} is not prime")
        order = p**e
        if modulus is None:  # already irreducible by construction
            modulus = smallest_irreducible(p, e)
        else:
            modulus = tuple(element_codes(modulus, p).tolist())
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e, constant term first")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.order = order
        self.modulus = modulus

    # -- identity -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    @property
    def subfield_order(self) -> int:
        """q such that this field is GF(q^2); requires even extension degree."""
        if self.e % 2 != 0:
            raise OddExtensionError(f"GF({self.p}^{self.e}) is not a quadratic extension")
        return self.p ** (self.e // 2)

    # -- element representation -------------------------------------------------

    def elements(self) -> range:
        """All field elements in canonical (counting) order."""
        return range(self.order)

    def _check(self, a) -> int:
        """a as the int that indexes the tables; ValueError unless an integer in [0, order)."""
        try:
            code = operator.index(a)
        except TypeError:
            code = -1
        if not 0 <= code < self.order:
            raise ValueError(f"{a} is not an element of GF({self.p}^{self.e})")
        return code

    # -- scalar arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        return int(self._tables["add"](a, b))

    def neg(self, a: int) -> int:
        return int(self._tables["neg"][self._check(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        return int(self._tables["mul"](a, b))

    def inv(self, a: int) -> int:
        if (a := self._check(a)) == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self._tables["inv"][a])

    def pow(self, a: int, n: int) -> int:
        """a**n with the convention 0**0 = 1; negative n inverts a first."""
        a = self._check(a)
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 1 if n == 0 else 0
        t = self._tables
        return int(t["exp"][int(t["log"][a]) * n % (self.order - 1)])

    # -- Galois structure -----------------------------------------------------------

    def frobenius(self, a: int, l: int = 1) -> int:
        """The Galois map a -> a^(p^l); l is reduced mod e."""
        l %= self.e
        return self.pow(a, self.p**l)

    def conj(self, a: int) -> int:
        """Conjugation a -> a^q over GF(q^2); requires even extension degree."""
        return self.pow(a, self.subfield_order)

    def norm(self, a: int) -> int:
        """The norm a -> a^(q+1), landing in the subfield GF(q)."""
        w = self.pow(a, self.subfield_order + 1)
        if not self.in_subfield(w):
            raise VerificationFailedError("norm left the subfield")
        return w

    @functools.cached_property
    def subfield_elements(self) -> np.ndarray:
        """GF(q) inside GF(q^2), the fixed points of conjugation, in canonical
        order (0 first); read-only."""
        elements = np.arange(self.order, dtype=np.int64)
        fixed = elements[self.conj_array(elements) == elements]
        if len(fixed) != self.subfield_order or fixed[0] != 0:
            raise VerificationFailedError(
                f"the fixed points of conjugation are not GF({self.subfield_order})"
            )
        fixed.flags.writeable = False
        return fixed

    def in_subfield(self, a: int) -> bool:
        """True iff a lies in GF(q), the fixed field of conjugation."""
        return self.conj(a) == a

    def find_power_non_one(self, exponent: int, count: int) -> tuple[int, ...]:
        """First ``count`` nonzero elements x with x**exponent != 1.

        Scans the canonical enumeration order; repeats cyclically if fewer
        than ``count`` distinct elements qualify.  Raises NoSuchElementError
        when no element qualifies at all.
        """
        if count < 1:
            return ()
        found: list[int] = []
        for a in range(1, self.order):
            if self.pow(a, exponent) != 1:
                found.append(a)
                if len(found) == count:
                    return tuple(found)
        if not found:
            raise NoSuchElementError(
                f"every nonzero element of GF({self.p}^{self.e}) has x^{exponent} = 1"
            )
        return tuple(found[i % len(found)] for i in range(count))

    def norm_preimage(self, w: int) -> int:
        """First element v in canonical order with v^(q+1) = w.

        ``w`` must be a nonzero subfield element; the norm maps GF(q^2)*
        onto GF(q)*, so a preimage always exists.
        """
        w = self._check(w)
        if w == 0:
            raise ValueError("0 has no norm preimage among nonzero multipliers")
        if not self.in_subfield(w):
            raise ValueError(f"{w} is not in the subfield GF({self.subfield_order})")
        return int(self.norm_preimage_array(w))

    def norm_preimage_array(self, w) -> np.ndarray:
        """norm_preimage of every entry, read from one table: an entry that
        is no norm maps to 0, which callers re-check as a failed lift."""
        return self._first_norm_preimage[w]

    @functools.cached_property
    def _first_norm_preimage(self) -> np.ndarray:
        """first[w] = the first v in canonical order with v^(q+1) = w, for
        every norm w, and 0 elsewhere.  np.unique reports the first index of
        each value, so the rule holds without relying on the order of a
        fancy assignment with repeated indices."""
        norms = self.pow_array(np.arange(self.order, dtype=np.int64), self.subfield_order + 1)
        values, first = np.unique(norms, return_index=True)
        table = np.zeros(self.order, dtype=np.int64)
        table[values] = first
        return table

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group, canonical order."""
        return self._generator[0]

    @functools.cached_property
    def _generator(self) -> tuple[int, np.ndarray]:
        """(g, g(X)): the smallest primitive element g and its matrix
        g(X) = sum_j g_j X^j, whose row i holds the digits of g * x^i.  Row 0
        of g(X)^n holds the digits of g^n, so g qualifies when that row is
        not the digits of 1 at n = (order - 1)/r for every prime r dividing
        order - 1."""
        p, e, o = self.p, self.e, self.order - 1
        x, powers = _companion(self.modulus, p), [np.eye(e, dtype=np.int64)]
        while len(powers) < e:
            powers.append(powers[-1] @ x % p)
        powers = np.stack(powers)  # X^0, ..., X^(e-1)
        one, primes = powers[0, 0], list(factorize(o))  # one: the digits of 1
        # for e > 1, the elements below p lie in GF(p), whose units have order < o
        for g in range(p if e > 1 else 1, self.order):
            times_g = digit_columns([g], p, e)[0] @ powers % p  # row i: digits of g * x^i
            if all((_matpow(times_g, o // r, p)[0] != one).any() for r in primes):
                return g, times_g
        raise NoSuchElementError("no primitive element found")  # pragma: no cover

    # -- quadratic-extension coordinates ----------------------------------------------

    def extension_generator(self) -> int:
        """The canonical generator x of the field over GF(p), as an element.

        For even e the pair {1, x} is a GF(q)-basis of GF(q^2), because x
        generates the whole field over GF(p) and so cannot lie in GF(q).
        """
        if self.e == 1:
            raise ValueError("prime field has no extension generator")
        return self.p  # the code of the element with digits (0, 1)

    # -- vectorised arithmetic (numpy arrays of element ints) ---------------------------

    @functools.cached_property
    def _tables(self) -> dict:
        """The log/exp/Zech tables and the arithmetic they define.

        g(X), the matrix of multiplication by g, applied to the low and the
        high digits of every element, then summed digit-wise, gives the
        permutation a -> g*a, and pointer doubling over that
        permutation fills exp.  Nothing is quadratic in the order but the
        grids cached up to TABLE_LIMIT elements.
        """
        p, e, m = self.p, self.e, self.order - 1
        times_g = self._generator[1]

        def images(lo: int, hi: int) -> np.ndarray:  # digits of g*a, a in span(x^lo..x^(hi-1))
            vals = np.arange(p ** (hi - lo), dtype=np.int64)
            out = np.zeros((len(vals), e), dtype=np.int64)
            for i in range(lo, hi):
                vals, digit = np.divmod(vals, p)
                out += digit[:, None] * times_g[i]
            return out % p

        low, high = images(0, e // 2), images(e // 2, e)
        step = sum(((high[:, None, j] + low[None, :, j]) % p) * p**j for j in range(e)).reshape(-1)
        # log 0 = 2m and exp is 0 from index 2m on, so zero operands need no masks
        exp = np.zeros(4 * m + 1, dtype=np.int64)
        exp[0], done = 1, 1
        while done < m:  # invariant: step is a -> g^done * a
            take = min(done, m - done)
            exp[done : done + take] = step[exp[:take]]
            done += take
            step = step[step]
        exp[m : 2 * m] = exp[:m]  # so log a + log b needs no reduction
        log = np.full(self.order, 2 * m, dtype=np.int64)
        log[exp[:m]] = np.arange(m, dtype=np.int64)
        # zech[i] = log(1 + g^i); 1 + a only increments the constant digit
        zech = log[exp[:m] + np.where(exp[:m] % p == p - 1, 1 - p, 1)]
        # a + b = exp[log a + plus[log b - log a + 2m]]: plus[2m + d] = zech[d mod m]
        # for a, b nonzero (|d| < m), log b - 2m for a = 0, and 0 for b = 0
        plus = np.zeros(4 * m + 1, dtype=np.int64)
        plus[:m] = np.arange(m) - 2 * m
        plus[m + 1 : 2 * m], plus[2 * m : 3 * m] = zech[1:], zech

        def add(a, b):
            la = log[a]
            return exp[la + plus[log[b] - la + 2 * m]]

        def mul(a, b):
            return exp[log[a] + log[b]]

        def frobenius(a, l):  # a -> a^(p^l) for 0 <= l < e
            la = log[a]
            return exp[np.where(la < m, la * (p ** np.asarray(l) % m) % m, la)]

        q = self.order
        if q <= TABLE_LIMIT:  # evaluated once on their whole domains, then read back
            add, mul, frobenius = _lookup(add, q, q), _lookup(mul, q, q), _lookup(frobenius, q, e)
        grid, minus_one = np.arange(q, dtype=np.int64), (m // 2 if p != 2 else 0)  # log(-1)
        return {
            "add": add, "mul": mul, "frobenius": frobenius,
            "neg": exp[log + minus_one],
            "inv": np.where(grid == 0, 0, exp[m - log]),
            "exp": exp, "log": log,
        }

    def add_array(self, a, b) -> np.ndarray:
        return self._tables["add"](a, b)

    @functools.cached_property
    def _lanes(self) -> tuple[np.ndarray, int, int]:
        """(lanes, width, capacity): products as integers whose plain sums
        are field sums.

        lanes[i] packs the base-p digits of exp[i] into an int64, digit j in
        bits [width * j, width * (j + 1)) with width = floor(63 / e), so
        lanes[log a + log b] is a * b.  Up to capacity = floor((2^width - 1) /
        (p - 1)) such values sum without a carry from one lane into the next.
        For p = 2 the digits are the bits of the element code and addition is
        XOR, which never carries: lanes is exp itself and the capacity has no
        bound.  For e = 1 the one lane is the element code, so lanes is exp
        again; other fields hold one more array the size of exp.
        """
        p, e, exp = self.p, self.e, self._tables["exp"]
        if p == 2:
            return exp, 1, sys.maxsize
        width, lanes = 63 // e, exp
        if e > 1:
            shifts = np.int64(1) << width * np.arange(e, dtype=np.int64)
            lanes = np.take(digit_columns(np.arange(self.order), p, e) @ shifts, exp)
        return lanes, width, ((1 << width) - 1) // (p - 1)

    @property
    def lane_capacity(self) -> int:
        """Most products one lane sum may hold (sys.maxsize for p = 2)."""
        return self._lanes[2]

    def dot_lanes(self, a, b, into: np.ndarray | None = None, axis: int = -1) -> np.ndarray:
        """The lane sum over t of a * b, broadcast together with t on ``axis``
        (0 or -1), added to the lane sum ``into`` (in place) when given.

        Each product is one lookup of the lane table at log a + log b (log 0
        lands on the zero part of exp), and one integer reduction sums the
        t axis: XOR for p = 2, np.add otherwise.  A lane sum, with every
        sum added into it, holds at most ``lane_capacity`` products;
        ``from_lanes`` reads it back as elements.
        """
        lanes, log = self._lanes[0], self._tables["log"]
        add = np.bitwise_xor if self.p == 2 else np.add
        terms = lanes.take(log.take(a) + log.take(b))
        if terms.shape[axis] == 1:  # one term is its own sum: reducing it would only copy it
            sums = terms[0] if axis == 0 else terms[..., 0]
        else:
            sums = add.reduce(terms, axis=axis)
        return sums if into is None else add(into, sums, out=into)

    def from_lanes(self, sums: np.ndarray) -> np.ndarray:
        """The elements a lane sum stands for: one shift, mask and % p per
        digit (the top lane needs no mask: no bit above it is set)."""
        if self.p == 2:
            return sums
        p, e, width = self.p, self.e, self._lanes[1]
        mask = (1 << width) - 1
        out = sums & mask
        out %= p
        for j in range(1, e):
            digit = sums >> (width * j)
            if j < e - 1:
                digit &= mask
            digit %= p
            digit *= p**j
            out += digit
        return out

    def mul_array(self, a, b) -> np.ndarray:
        return self._tables["mul"](a, b)

    def neg_array(self, a) -> np.ndarray:
        return self._tables["neg"][a]

    def pow_array(self, a, n) -> np.ndarray:
        """a**n entrywise, a broadcast against int64 exponents n >= 0; 0**0 = 1."""
        t, m = self._tables, self.order - 1
        la, n = t["log"][a], np.asarray(n, dtype=np.int64)
        return t["exp"][np.where(la < m, la * (n % m) % m, np.where(n == 0, 0, la))]

    def inv_array(self, a) -> np.ndarray:
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._tables["inv"][a]

    def frobenius_array(self, a, l: int) -> np.ndarray:
        """The Galois map a -> a^(p^l) on every entry; l is reduced mod e."""
        return self._tables["frobenius"](a, l % self.e)

    def conj_array(self, a) -> np.ndarray:
        if self.e % 2 != 0:
            raise OddExtensionError("conjugation needs an even extension degree")
        return self.frobenius_array(a, self.e // 2)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @functools.cached_property
    def _digit_texts(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(first, second, base): the JSON text of every element's digit list.

        With w = ceil(e/2) and base = p^w, element a = lo + base * hi reads
        first[lo] + second[hi]: "[", lo's w digits and, when e > w, ", ";
        then hi's e - w digits and "]", digits joined by ", " as json.dumps
        writes them.  Each table holds one string per value of a half, so q
        strings each over GF(q^2), not one per element.
        """
        w = (self.e + 1) // 2

        def texts(width: int) -> list[str]:
            digits = digit_columns(np.arange(self.p**width), self.p, width).tolist()
            return [", ".join(map(str, row)) for row in digits]

        sep = ", " if self.e > w else ""
        first = np.array(["[" + t + sep for t in texts(w)], dtype=object)
        second = np.array([t + "]" for t in texts(self.e - w)], dtype=object)
        return first, second, self.p**w


def _check_base_field(q: int, least: int) -> None:
    """Refuse q whose GF(q^2) is past the field-order cap, before any
    factorizing, then q below ``least`` or not a prime power."""
    if q * q > FIELD_ORDER_CAP:
        raise CapExceededError(f"GF({q}^2) exceeds the field order cap {FIELD_ORDER_CAP}")
    if q < least:
        raise BadFieldError(f"q = {q} must be at least {least}")
    if not is_prime_power(q):
        raise BadFieldError(f"q = {q} is not a prime power")


def make_quadratic_field(q: int) -> Field:
    """GF(q^2) for a prime power q: the alphabet of Hermitian constructions."""
    _check_base_field(q, least=2)
    ((p, r),) = factorize(q).items()
    return Field(p, 2 * r)


def ensure_same_field(a: Field, b: Field) -> None:
    if a is not b and a != b:
        raise SpecMismatchError(f"field mismatch: {a!r} vs {b!r}")
