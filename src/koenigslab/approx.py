"""Constructive exponential approximation.

Pieces: the truncated one-sided transforms Phi_beta and Phi_beta^R on the
standard strip, discretization of compactly supported measures into atomic
ones (whose transforms are finite exponential sums), linear least-squares
fitting of Hardy-space targets over a fixed frequency grid, and the
rational map alpha used to carry logarithmic domains onto bounded Jordan
regions, with an argument-principle univalence check.

The sup error of an exponential sum over sample points
(``ExpSum.sup_error``) is the plain term loop's, bit for bit.  When the
frequencies lie on one grid, the sum is a polynomial in e^{dz}; a blocked
evaluation of it (baby-step powers, the block sums as one BLAS product,
Horner over the blocks) with a proven error bound screens the points, and
the term loop runs again only on the few that can hold the max.  The
bound assumes libm's complex exp is within 4 ulps per component.

``least_squares_fit`` takes every frequency budget of a demo in one call.
The budgets' lists are sub-lists of the longest one, so the quadrature
nodes are read once per radius and the longest list's design
matrix is exponentiated once; each fit copies out its own columns and runs
the Gram matrix, solve and error of a fit of that list alone, bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .hardy import CanonicalDomain, circle_nodes, two_lanes

STRIP_HALF_WIDTH = math.pi / 2.0
_U = 2.0**-53  # unit roundoff of a double
_TINY = 2.0**-1060  # covers the absolute errors of gradual underflow
# baby steps of the sup-error screen's blocked polynomial evaluation: the
# block sums are one BLAS product of K = (M + 1)/_BLOCK rows of coefficients
_BLOCK = 32
# points per BLAS product of the screen, which keeps the logdomain demo's
# temporaries near 2 MiB: freeing its 17 MiB block sums raised glibc's mmap
# threshold, and a half-plane fit run after it kept its 16-32 MiB arrays
# on the heap (+31 MB peak RSS)
_SCREEN_CHUNK = 2048


# ---------------------------------------------------------------------------
# closed forms on the strip
# ---------------------------------------------------------------------------


def phi_beta(beta, z):
    """One-sided transform of e^{-t beta}: 1/(-iz + beta) on the strip.

    Requires Re beta > pi/2 so the defining integral converges there.
    """
    beta = complex(beta)
    if beta.real <= STRIP_HALF_WIDTH:
        raise ValueError("need Re beta > pi/2 for convergence on the strip")
    den = -1j * np.asarray(z, dtype=complex) + beta
    if np.any(den == 0):
        raise ZeroDivisionError("pole hit; z outside the closed strip?")
    out = 1.0 / den
    return complex(out) if np.ndim(z) == 0 else out


def phi_beta_R(beta, R, z):
    """Truncated transform: (e^{R(iz - beta)} - 1)/(iz - beta), value R at
    the removable point iz = beta."""
    beta = complex(beta)
    if R < 0:
        raise ValueError("R must be nonnegative")
    z = np.asarray(z, dtype=complex)
    a = 1j * z - beta
    with np.errstate(all="ignore"):
        out = np.where(a == 0, R, (np.exp(R * a) - 1.0) / np.where(a == 0, 1.0, a))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# atomic measures and exponential sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms (location >= 0, complex weight)."""

    atoms: tuple  # ((t, w), ...)
    support_bound: float

    def __post_init__(self):
        for t, _ in self.atoms:
            if t < -1e-15 or t > self.support_bound + 1e-12:
                raise ValueError("atom outside [0, support_bound]")

    @property
    def total_variation(self):
        return float(sum(abs(w) for _, w in self.atoms))

    def convolve(self, other: "AtomicMeasure") -> "AtomicMeasure":
        acc = {}
        for t1, w1 in self.atoms:
            for t2, w2 in other.atoms:
                key = t1 + t2
                acc[key] = acc.get(key, 0.0) + w1 * w2
        atoms = tuple(sorted(acc.items()))
        return AtomicMeasure(atoms, self.support_bound + other.support_bound)

    def exp_sum(self, orientation="oscillatory") -> "ExpSum":
        """As a finite exponential sum: e^{itz} atoms for the strip family,
        e^{-sz} atoms for the transform side (the Laplace transform
        sum w e^{-t z})."""
        if orientation == "oscillatory":
            terms = tuple((w, complex(0.0, t)) for t, w in self.atoms)
        elif orientation == "laplace":
            terms = tuple((w, complex(-t, 0.0)) for t, w in self.atoms)
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
        return ExpSum(terms)


@dataclass(frozen=True)
class ExpSum:
    """Finite sum of c_k e^{lam_k z}."""

    terms: tuple  # ((coefficient, frequency), ...)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for c, lam in self.terms:
            # array first: numpy rounds c * array and array * c
            # differently, and turns c * np.exp(...) into the latter only
            # above 256 KiB
            out += np.exp(lam * z) * c
        return complex(out) if out.ndim == 0 else out

    def sup_error(self, z, f):
        """max |s(z) - f| over the points z, with the bits of
        ``float(np.max(np.abs(s(z) - f)))``.

        Screen.  When the frequencies lie on one grid, lam_k == fl(i_k d)
        for distinct integers 0 <= i_k <= M, the sum is a polynomial in
        q = e^{dz}, evaluated blockwise (``_blocked_polynomial``, after
        Paterson & Stockmeyer): with B = min(_BLOCK, M + 1) and
        K = ceil((M + 1)/B) blocks, the powers q^r, r < B, the K block sums
        S_k = sum_r c_{kB+r} q^r as one BLAS product per chunk of points,
        and Horner over K steps in Q = q^B give h(z); the same on |c| and
        |q| gives A(z) = sum |c_k| |q|^{i_k}.  With g = |h - f| and a bound E on
        |(term loop's |s - f|) - g|, the term loop ``s(z[cand])`` runs again
        only where g + E >= max(g - E): every maximiser of the term loop
        passes that test, and rounding is monotone, so it passes it in
        floating point too.  The term loop gives a point the same bits in
        any array, so the max over those points is the term loop's to the
        last bit.

        Bound.  u = 2^-53, m = max|lam_k||z|.  Assumed: libm's complex exp
        is within 4 ulps per component (relative error <= 8u) and hypot
        within 1 ulp (2u); a complex product errs by <= sqrt(5) u < 3u
        relative (2u with an FMA), a complex sum by u; BLAS forms each
        complex product from its four real products.  To first order in u:
          term loop vs the exact sum: fl(lam_k z) errs by 3u|lam_k||z|,
            hence e^{lam_k z} by a relative 3um; exp adds 8u, the product
            with c_k 3u and the N - 1 additions (N - 1)u: u(N + 3m + 10) A;
          h vs the exact sum, on the term of q^{kB+r}: q^j is off by
            j(3u|d||z| + 8u) <= 3um + 8Mu, and lam_k - i_k d, one rounding
            per component, shifts e^{lam_k z} by a relative um; the B - 2
            products that form q^r give 3Bu; a BLAS sum of B complex
            products, in any order and with or without FMA, is per
            component a real dot product of length 2B, which errs by
            gamma_{2B} times its sum of moduli (Higham, ch. 3), so by
            sqrt(2) gamma_{2B} sum |c_j||q^r| < 3Bu sum |c_j||q^r| in
            modulus; Q errs by 3Bu, so Q^k by 3kBu <= 3Mu; and the K - 1
            Horner steps give (1 + 3u)^k (1 + u)^k on S_k (Higham, ch. 5),
            4Ku:
            u(11M + 6B + 4K + 4m) A;
          the computed A, from the same steps in real arithmetic, is
            within u(11M + 2B + 2K + 4m + 2) A of A;
          |s - f| and |h - f| each carry u from the difference and 2u from
            hypot, so the two moduli differ by at most
            |s - h| (1 + 4u) + 7u g.
        So E = 1.01 (x A + 7u g + 2^-1060 (N + (M + B + K)(1 + sum |c_k|)
        max(1, |q|^M))) with x = u(N + 11M + 6B + 4K + 7m + 10): the
        factor 1.01 holds the second-order terms as long as x <= 1e-3, and
        the last term the absolute errors of gradual underflow: 2^-1073
        per complex product (2^-1075 per real product) and 2^-1071 per
        exp (4 ulps of 2^-1074 per component).  The term loop's errors
        reach s with a factor of at most |c_k|: 2^-1073 (N + 4 sum |c_k|).
        In h, each reaches the result with a factor of at most |c_j| |q|^j or
        |q|^j, j <= M, and there are B - 2 in the powers and one in Q,
        each reaching every term (Q's once per Horner step, so the
        powers' errors weigh at most (M + B) sum |c_k| in all), M + B in
        the BLAS product and K in the Horner steps.  Those of A, times
        x <= 1e-3, fit in the same term with room to spare.  E is set to
        infinity where x > 1e-3 or M |Re dz| > 700, where exp or a power
        could over- or underflow.

        The plain term loop runs instead for a sum off a grid or of degree
        M > 4N (the screen would cost more than the exponentials), a
        scalar or empty z, an f of another shape, and when h, f or E is not
        finite at some point."""
        z = np.asarray(z, dtype=complex)
        f = np.asarray(f)
        grid = self._grid()
        if grid is not None and z.ndim and z.size and f.shape == z.shape:
            d, coef = grid
            z, f = z.ravel(), f.ravel()
            n, M = len(self.terms), coef.size - 1
            B = min(_BLOCK, M + 1)
            K = -(-(M + 1) // B)
            C = np.zeros(K * B, dtype=complex)
            C[: M + 1] = coef
            C = C.reshape(K, B)
            with np.errstate(all="ignore"):
                dz = d * z
                q = np.exp(dz)
                h = _blocked_polynomial(C, q)
                A = _blocked_polynomial(np.abs(C), np.abs(q))
                g = np.abs(h - f)
                x = _U * (n + 11 * M + 6 * B + 4 * K + 7 * (abs(d) * M) * np.abs(z) + 10)
                reach = (M + B + K) * (1.0 + float(np.sum(np.abs(coef))))
                tiny = _TINY * (n + reach * np.maximum(1.0, np.exp(M * dz.real)))
                E = 1.01 * (x * A + 7 * _U * g + tiny)
                E[(x > 1e-3) | (M * np.abs(dz.real) > 700.0)] = np.inf
            if np.all(np.isfinite(g)) and np.all(np.isfinite(E)):
                cand = np.flatnonzero(g + E >= np.max(g - E))
                z, f = z[cand], f[cand]
        return float(np.max(np.abs(self(z) - f)))

    def _grid(self):
        """(d, coef) when every lam_k == fl(i_k d) for distinct integers
        0 <= i_k <= 4N, d the nonzero frequency of least modulus; coef[i_k]
        = c_k and zero elsewhere, the coefficients of the polynomial in
        e^{dz}.  None otherwise."""
        lam = np.array([lk for _, lk in self.terms], dtype=complex)
        nonzero = lam[lam != 0]
        if not nonzero.size:
            return None
        d = complex(nonzero[np.argmin(np.abs(nonzero))])
        i = np.rint(lam.real / d.real if abs(d.real) >= abs(d.imag) else lam.imag / d.imag)
        if not (
            np.all((0 <= i) & (i <= 4 * lam.size))
            and np.array_equal(i * d.real, lam.real)
            and np.array_equal(i * d.imag, lam.imag)
            and np.unique(i).size == lam.size
        ):
            return None
        coef = np.zeros(int(np.max(i)) + 1, dtype=complex)
        coef[i.astype(np.int64)] = [ck for ck, _ in self.terms]
        return d, coef

    def strip_sup_bound(self):
        """Triangle-inequality bound for sup over the closed standard strip:
        sum |c_k| e^{(pi/2)|Im lam_k|} (finite for the strip family)."""
        return float(
            sum(abs(c) * math.exp(STRIP_HALF_WIDTH * abs(lam.imag)) for c, lam in self.terms)
        )


def _blocked_polynomial(C, q):
    """sum_{k, r} C[k, r] q^{kB + r} at every point of q, B = C.shape[1] >= 2:
    the powers q^r, r < B, as the rows of one array, the K = C.shape[0]
    block sums by one BLAS product, then Horner in q^B over the blocks,
    on _SCREEN_CHUNK points at a time."""
    K, B = C.shape
    out = np.empty_like(q)
    for lo in range(0, q.size, _SCREEN_CHUNK):
        qc = q[lo : lo + _SCREEN_CHUNK]
        P = np.empty((B, qc.size), dtype=q.dtype)
        P[0] = 1.0
        P[1] = qc
        for r in range(2, B):
            np.multiply(P[r - 1], qc, out=P[r])
        S = C @ P
        h = S[K - 1]
        if K > 1:
            Q = P[B - 1] * qc
            for k in range(K - 2, -1, -1):
                h *= Q
                h += S[k]
        out[lo : lo + qc.size] = h
    return out


# numpy's leggauss, an O(n^3) eigenvalue solve, up to this many nodes: the
# rules of ``discretize_measure`` (12, 24, 48) and the first doublings of
# ``alpha_quadrature`` (32, 64, 128) keep their bits
_LEGGAUSS_MAX_N = 128


def _legendre_pair(n, x):
    """P_n(x) and P_n'(x) at every x, by the three-term recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}: O(n) passes over x."""
    p0, p1 = np.ones_like(x), x.copy()
    for k in range(2, n + 1):
        p = x * p1
        p *= (2 * k - 1) / k
        p0 *= (k - 1) / k
        p -= p0
        p0, p1 = p1, p
    dp = p0 - x * p1
    dp *= n
    dp /= (1.0 - x) * (1.0 + x)
    return p1, dp


def _newton_legendre(n):
    """The n-point Gauss-Legendre rule in O(n^2): Newton's method on P_n
    from Tricomi's guesses x_k ~ (1 - (n - 1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2)),
    for the n // 2 positive nodes at once, and weights
    2/((1 - x^2) P_n'(x)^2).  Two or three sweeps settle every node to an
    ulp.  The rule is symmetric, so the negative half is mirrored, and an
    odd n adds the node 0.  Glaser, Liu & Rokhlin (SIAM J. Sci. Comput. 29,
    2007) and Hale & Townsend (ibid. 35, 2013) give O(n) routes."""
    m = n // 2
    k = np.arange(1, m + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x = np.append(x, 0.0)
    for _ in range(8):
        p, dp = _legendre_pair(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 2.0 * _U:
            break
    _, dp = _legendre_pair(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending, read-only
    (shared): numpy's ``leggauss`` up to _LEGGAUSS_MAX_N nodes, Newton's
    method above it."""
    rule = np.polynomial.legendre.leggauss if n <= _LEGGAUSS_MAX_N else _newton_legendre
    x, w = rule(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_cells(f, lo, hi, n):
    """n-point Gauss integrals of f over the cells [lo[i], hi[i]]; f may
    return a constant instead of one value per point."""
    x, w = _gauss_legendre(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * x
    vals = np.asarray(f(pts.ravel()), dtype=complex)
    vals = np.broadcast_to(vals, (pts.size,)).reshape(pts.shape)
    return half * np.sum(w * vals, axis=1)


def discretize_measure(density, R, n) -> AtomicMeasure:
    """Atoms at j R / n, j = 1..n, weighted by the cell integrals of the
    density over [(j-1)R/n, jR/n).  The density takes a flat array of
    points and returns one value per point, or a single constant.

    All cells are integrated in one pass: the density is called once on the
    24-point Gauss nodes of every cell and once on the 12-point nodes, as a
    flat array.  A cell whose two integrals differ by more than
    1e-9 (1 + |w|) is integrated again with 48 points (one more call, on
    those cells only).  The weights equal a cell-by-cell evaluation bit for
    bit."""
    if R <= 0 or n < 1:
        raise ValueError("need R > 0 and n >= 1")
    j = np.arange(1, n + 1)
    lo, hi = (j - 1) * R / n, j * R / n
    w = _gauss_cells(density, lo, hi, 24)
    w_check = _gauss_cells(density, lo, hi, 12)
    redo = np.abs(w - w_check) > 1e-9 * (1.0 + np.abs(w))
    if np.any(redo):
        w[redo] = _gauss_cells(density, lo[redo], hi[redo], 48)
    atoms = tuple((k * R / n, complex(wk)) for k, wk in zip(range(1, n + 1), w))
    return AtomicMeasure(atoms, R)


def sup_error_on_strip(s: ExpSum, target, sample_points):
    pts = np.asarray(sample_points, dtype=complex)
    return s.sup_error(pts, np.asarray(target(pts), dtype=complex))


def strip_sample_grid():
    """31 x 9 sample points on [-6, 6] x [-pi/2, pi/2] of the closed strip."""
    xs = np.linspace(-6.0, 6.0, 31)
    ys = np.linspace(-STRIP_HALF_WIDTH, STRIP_HALF_WIDTH, 9)
    return (xs[:, None] + 1j * ys[None, :]).ravel()


# ---------------------------------------------------------------------------
# least-squares frequency fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    exp_sum: ExpSum
    error: float
    # error at the refinement radius; None after a conditioning failure
    _refined_error: Optional[Callable[[], float]] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def rho_refinement_delta(self) -> float:
        """|error at radius (1 + rho)/2 - error at rho|: the sensitivity of
        the error to the quadrature radius.  It needs a second design
        matrix, so it is computed on first read."""
        if self._refined_error is None:
            return math.nan
        return abs(self._refined_error() - self.error)


# quadrature radius rho = 1 - 2^-12 in the disc, the level of
# ``hardy.circle_nodes``; the refinement radius (1 + rho)/2 is the next level
_FIT_LEVEL = 12
_FIT_RIDGE = 1e-12
# nodes on the fit's circle; the CLI sizes the fit's memory from it too
FIT_NODES = 2**14


def least_squares_fit(target, dom: CanonicalDomain, freq_lists, n_nodes=FIT_NODES) -> list[FitResult]:
    """One fit per frequency list in ``freq_lists``: the best coefficients
    for target ~ sum c_k e^{lam_k z} in the L2 metric of the canonical map
    on the circle of radius rho = 1 - 2^-_FIT_LEVEL.

    Normal equations with a fixed ridge; the exponential Gram matrix is
    ill-conditioned by nature, so the achieved error and a rho-refinement
    delta are reported for honesty rather than claiming exact Hardy norms.

    Every list must be a sub-list of the longest one: each frequency equals
    one of the longest list's exactly, as a float.  The nodes are read
    from ``circle_nodes`` once per radius and the design matrix
    e^{lam_k z_j} is built once, for the longest list; a list's fit copies
    out its columns.
    Each entry of the design is one exp of one product, so the copy holds
    the bits a fit of that list alone would build, and the Gram matrix,
    right-hand side, solve and rms error then run the same BLAS calls on
    the same array: every result is that fit's, bit for bit.  The Gram
    matrix is not shared in the same way, because a BLAS product's entry
    need not match the same entry of a product over fewer columns (the
    edge tiles of a block kernel sum in another order).  A prefix list is
    copied too, not read as the view ``A[:, :m]``: the view saved no
    measurable time and raised the peak RSS of a run of the four approx
    demos by up to 15 MB (+7 % in a benchmark pair), with numpy's traced
    peak unchanged.

    When every frequency is real and ``dom.reflection`` is +1, the lower
    half of the circle is the conjugate mirror of the upper half, and so
    is e^{lam z}: only the upper half is exponentiated (``_design``).

    Three arrays are built on two lanes of rows (``hardy.two_lanes``),
    each lane writing its own rows of one preallocated array: the design
    matrix (with its mirrored lower half) and each fit's conjugate copy
    through the ufuncs one lane would run, and, when BLAS runs one thread,
    each fit's Gram matrix G = A^H A (``_normal_equations``), each lane one
    BLAS product ``Ah[rows] @ A`` into its rows of G.  A gemm sums each
    entry of its result along the inner dimension inside one tile, so
    splitting G by rows leaves every entry with the bits of one product
    (checked for every m up to 40 and at 64, 128 and 256 on the half-plane
    and eta_1 designs).  Sharing the longest list's G among the shorter
    lists would not keep them (see above).  A lane of one row would go to
    gemv, which sums in another order, so no lane gets fewer than two
    rows.  The conjugate copy is a fresh C-ordered array whose transpose
    enters the Gram product, so BLAS sees the layout of ``A.conj().T``.
    Lanes write into one preallocated array rather than joining two with
    ``np.concatenate``, which holds both halves and the whole at once.
    ``A^H b`` stays one product: on two lanes it was
    slower.
    """
    if not (n_nodes > 0 and n_nodes % 2 == 0):
        # the lower half circle is the mirror of the upper one
        raise ValueError(f"n_nodes must be positive and even, got {n_nodes!r}")
    lists = [[complex(l) for l in freqs] for freqs in freq_lists]
    full = max(lists, key=len)
    column = {l: k for k, l in enumerate(full)}
    idxs = []
    for i, freqs in enumerate(lists):
        missing = [l for l in freqs if l not in column]
        if missing:
            raise ValueError(
                f"frequency list {i} is not a sub-list of the longest list "
                f"({len(full)} frequencies): {missing[0]!r} is not in it"
            )
        idxs.append([column[l] for l in freqs])

    def nodes(j):
        # the upper half circle, then its mirror: theta_{n-1-k} = 2 pi - theta_k
        x, y = circle_nodes(dom, j, n_nodes)
        up = x + 1j * y
        z = np.concatenate((up, dom.reflection * np.conj(up[::-1])))
        return z, np.asarray(target(z), dtype=complex)

    z, b = nodes(_FIT_LEVEL)
    mirrored = dom.reflection > 0 and all(l.imag == 0.0 for l in full)
    A = _design(z, full, mirrored)
    refined = functools.cache(lambda: nodes(_FIT_LEVEL + 1))
    whole = list(range(len(full)))
    return [
        _fit_one(A if idx == whole else np.take(A, idx, axis=1), b, freqs, refined, mirrored)
        for freqs, idx in zip(lists, idxs)
    ]


def _design(z, freqs, mirrored):
    """e^{lam_k z_j}, built on two lanes of rows (``hardy.two_lanes``):
    each lane forms and exponentiates its own rows of one preallocated
    matrix, in place.  With ``mirrored`` the lower half of z is
    conj(z[h-1::-1]) and every lam is real, so the lanes build the upper
    half, and each lane writes the conjugate of its own rows, reversed,
    into the lower half: e^{lam conj z} = conj e^{lam z}, with the same
    bits, as lam conj z is the conjugate of lam z exactly and
    exp(x)(cos y, sin y) is odd in y.  The one exception is the sign of a
    zero imaginary part, at lam = 0."""
    freqs = np.asarray(freqs)
    n = len(z)
    A = np.empty((n, len(freqs)), dtype=np.result_type(z, freqs))

    def lane(rows):
        np.multiply.outer(z[rows], freqs, out=A[rows])
        np.exp(A[rows], out=A[rows])
        if mirrored:
            np.conjugate(A[rows][::-1], out=A[n - rows.stop : n - rows.start])

    two_lanes(lane, n // 2 if mirrored else n, len(freqs))
    return A


def _rms_error(A, coef, b):
    return float(np.sqrt(np.mean(np.abs(A @ coef - b) ** 2)))


@functools.cache
def _openblas_threads_getter():
    """``scipy_openblas_get_num_threads64_`` of the OpenBLAS bundled with
    numpy, looked up through numpy's core extension, which links it; None
    for any other BLAS."""
    try:
        from numpy._core import _multiarray_umath

        getter = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter


def _blas_threads():
    """The threads numpy's BLAS runs a product on now, None when unknown."""
    getter = _openblas_threads_getter()
    return None if getter is None else getter()


def _normal_equations(A, b):
    """(A^H A / n, A^H b / n) for the design A on n nodes.  The conjugate
    copy is built on two lanes of rows, and so is the Gram matrix when BLAS
    runs one thread; a threaded BLAS already splits the product (on lanes
    it was slower there), and an unknown BLAS gets one product too."""
    n_nodes, m = A.shape
    Ah = np.empty_like(A)
    two_lanes(lambda rows: np.conjugate(A[rows], out=Ah[rows]), n_nodes, m)
    Ah = Ah.T
    G = np.empty((m, m), dtype=A.dtype)
    if _blas_threads() == 1:
        two_lanes(lambda rows: np.matmul(Ah[rows], A, out=G[rows]), m, n_nodes)
    else:
        np.matmul(Ah, A, out=G)
    G /= n_nodes
    return G, (Ah @ b) / n_nodes


def _fit_one(A, b, freqs, refined, mirrored) -> FitResult:
    G, rhs = _normal_equations(A, b)
    G_r = G + _FIT_RIDGE * np.eye(len(freqs))
    try:
        coef = np.linalg.solve(G_r, rhs)
    except np.linalg.LinAlgError:
        return FitResult(ExpSum(()), math.inf)
    if not np.all(np.isfinite(coef)):
        return FitResult(ExpSum(()), math.inf)

    def refined_error():
        z, b = refined()
        return _rms_error(_design(z, freqs, mirrored), coef, b)

    s = ExpSum(tuple((complex(c), l) for c, l in zip(coef, freqs)))
    return FitResult(s, _rms_error(A, coef, b), _refined_error=refined_error)


# ---------------------------------------------------------------------------
# the rational map alpha and logarithmic domains
# ---------------------------------------------------------------------------

_ALPHA_SERIES_ORDER = 12
_ALPHA_CROSSOVER = 0.25


def _alpha_series(z):
    # sum_{m >= 0} (-1)^m 2 z^m / (m+3)!
    out = np.zeros(np.shape(z), dtype=complex)
    term = np.ones(np.shape(z), dtype=complex)
    for m in range(_ALPHA_SERIES_ORDER + 1):
        out = out + ((-1) ** m) * 2.0 / math.factorial(m + 3) * term
        term = term * z
    return out


def alpha_map(z):
    """alpha(z) = (-2 e^{-z} - 2z + z^2 + 2)/z^3, with the Taylor series on
    |z| < 1/4 where the closed form cancels catastrophically."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _ALPHA_CROSSOVER
    zs = np.where(small, 1.0, z)  # avoid 0/0 in the unused branch
    with np.errstate(all="ignore"):
        closed = (-2.0 * np.exp(-zs) - 2.0 * zs + zs**2 + 2.0) / zs**3
    out = np.where(small, _alpha_series(z), closed)
    return complex(out) if out.ndim == 0 else out


_ALPHA_QUAD_TOL = 1e-13  # n/2n disagreement allowed, relative to the mass
_ALPHA_QUAD_MAX_NODES = 4096


def _alpha_rule(z, n):
    """n-point Gauss-Legendre value of the alpha integral at each z, and
    the same rule applied to the modulus of the integrand (its mass)."""
    s, w = _gauss_legendre(n)
    lam = 0.5 * (s - 1.0)  # [-1, 0]
    terms = (1.0 + lam) ** 2 * np.exp(np.multiply.outer(z, lam))
    return terms @ (0.5 * w), np.abs(terms) @ (0.5 * w)


def alpha_quadrature(z, n=32):
    """Direct numerical evaluation of the defining integral of alpha,
    int_{-1}^{0} (1 + lam)^2 e^{lam z} d lam (independent oracle for the
    closed form).

    Gauss-Legendre with n and 2n nodes, doubling n until the two agree at
    every point to 1e-13 of the integral of the integrand's modulus (a
    tolerance relative to the value itself never settles where the terms
    reach e^{|z|} and cancel).  The 2n-node value is returned.  Raises
    ArithmeticError when agreement needs more than 4096 nodes, so an
    unconverged value is never returned, and ValueError for a starting n
    outside [1, 2048] (above 2048 not even one n/2n comparison fits under
    the cap).  A scalar z gives a complex; an array keeps its shape."""
    if not 1 <= n <= _ALPHA_QUAD_MAX_NODES // 2:
        raise ValueError(
            f"alpha quadrature starts at 1 to {_ALPHA_QUAD_MAX_NODES // 2} nodes "
            f"(it compares n against 2n, capped at {_ALPHA_QUAD_MAX_NODES}); got n={n}"
        )
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    coarse, _ = _alpha_rule(flat, n)
    while 2 * n <= _ALPHA_QUAD_MAX_NODES:
        n *= 2
        fine, mass = _alpha_rule(flat, n)
        if np.all(np.abs(fine - coarse) <= _ALPHA_QUAD_TOL * mass):
            out = fine.reshape(z.shape)
            return complex(out) if out.ndim == 0 else out
        coarse = fine
    raise ArithmeticError(
        f"alpha quadrature did not converge within {_ALPHA_QUAD_MAX_NODES} nodes"
    )


def eta_prime(z):
    """Derivative of 1/alpha: (z^4 + kappa1)/(z^2 - 2z + 2 - 2e^{-z})^2."""
    z = np.asarray(z, dtype=complex)
    ez = np.exp(-z)
    num = z**4 - 4.0 * z**3 + 6.0 * z**2 - (2.0 * z**3 + 6.0 * z**2) * ez
    den = (z**2 - 2.0 * z + 2.0 - 2.0 * ez) ** 2
    out = num / den
    return complex(out) if out.ndim == 0 else out


@dataclass
class LogDomainSpec:
    """A logarithmic starlike-at-infinity domain: |psi'| <= lip_bound and
    psi(y) >= -log_exponent * log|y| far out (``choose_b`` checks its
    translate on 1 <= |y| <= 1e4)."""

    psi: Callable = None
    lip_bound: float = 1.0
    log_exponent: float = 0.5
    name: str = ""


_B_T_MAX = 1e4
_B_SAMPLES = 2**13
_B_MAX = 64


def choose_b(spec: LogDomainSpec):
    """Least integer translate b <= 64 for which the shifted domain
    verifies, on samples: psi_b >= 1 on |y| <= 1, psi_b >= -a log|y| on
    1 <= |y| <= 1e4, and |arg eta'(z)| < arg(lip_bound + i)/2 along the
    boundary."""
    a = spec.log_exponent
    eps = math.atan2(1.0, spec.lip_bound)
    ys_in = np.linspace(-1.0, 1.0, 513)
    half = np.geomspace(1.0, _B_T_MAX, _B_SAMPLES // 2)
    ys_out = np.concatenate([half, -half])
    ts = np.concatenate([ys_in, ys_out])
    base = np.asarray(spec.psi(ts), dtype=float)
    for b in range(1, _B_MAX + 1):
        vb = base + b
        if np.any(vb[: ys_in.size] < 1.0):
            continue
        if np.any(vb[ys_in.size:] < -a * np.log(np.abs(ys_out))):
            continue
        z = vb + 1j * ts
        ang = np.angle(eta_prime(z))
        if np.max(np.abs(ang)) >= eps / 2.0:
            continue
        return b
    raise ValueError(f"no admissible translate found up to b = {_B_MAX}")


def univalence_winding_check(map_fn, boundary_param, n_samples, interior_points=()):
    """Winding number of the mapped boundary about interior images (must be
    1) plus a no-self-intersection certificate on the sampled polyline.

    Returns (ok, details).  The simplicity certificate uses the intermediate
    curve 1/alpha: its imaginary part must be strictly monotone along the
    samples, which rules out crossings of the sampled polyline.
    """
    t = boundary_param(n_samples)
    z = np.asarray(t, dtype=complex)
    pts = np.asarray(map_fn(z), dtype=complex)
    details = {}
    # simplicity: Im(1/alpha) strictly monotone along the boundary
    with np.errstate(all="ignore"):
        inv = 1.0 / pts
    im = inv.imag
    details["monotone_inverse_im"] = bool(np.all(np.diff(im) > 0) or np.all(np.diff(im) < 0))
    # winding about interior images
    closed = np.concatenate([pts, pts[:1]])
    ok_wind = True
    winds = []
    for w0 in interior_points:
        rel = closed - complex(w0)
        dphi = np.angle(rel[1:] / rel[:-1])
        wind = int(round(float(np.sum(dphi)) / (2.0 * math.pi)))
        winds.append(wind)
        ok_wind = ok_wind and abs(wind) == 1
    details["windings"] = winds
    ok = details["monotone_inverse_im"] and ok_wind and len(pts) == n_samples
    return ok, details


_BOUNDARY_T_SPAN = 200.0


def log_domain_boundary(spec: LogDomainSpec, b):
    """Boundary parametrization t -> psi(t) + b + it of the translated
    domain, suitable for the winding check (tan-spaced for tail coverage
    at the scale |t| ~ 200)."""

    def param(n):
        s = np.linspace(-1.0 + 1.0 / n, 1.0 - 1.0 / n, n)
        t = np.tan(0.5 * math.pi * s) * (2.0 * _BOUNDARY_T_SPAN / math.pi)
        return np.asarray(spec.psi(t), dtype=float) + b + 1j * t

    return param


# ---------------------------------------------------------------------------
# polynomial-in-alpha pipeline (transform-algebra demonstration)
# ---------------------------------------------------------------------------


def alpha_measure_density(b):
    """alpha(z + b) is the transform of (1-s)^2 e^{-sb} ds on [0, 1]."""

    def density(s):
        return (1.0 - np.asarray(s)) ** 2 * np.exp(-b * np.asarray(s))

    return density


def log_domain_pipeline_demo(
    spec: LogDomainSpec, target, degrees=(2, 4, 8), n_boundary=2048,
    t_window=300.0, n_per_unit=256,
):
    """Fit a polynomial in alpha(z + b) to a target on the shifted domain,
    expand it into an atomic-measure transform, and report the sup error of
    the resulting exponential sum over the samples.

    Demonstrates that functions continuous up to the boundary of a
    logarithmic domain are reachable from transforms of compactly supported
    measures (a polynomial composed with alpha stays in the transform
    algebra because convolution multiplies transforms).  Atoms spaced
    1/n_per_unit make the sum (2 pi n_per_unit)-periodic in Im z, so the
    sample window must stay well inside that period; desk scale here is a
    |Im z| <= t_window slab of the closed domain.  On that grid each sum is
    a polynomial in e^{-z/n_per_unit}, so ``ExpSum.sup_error`` screens the
    samples by a blocked evaluation of that polynomial and evaluates the
    term loop at the few that can hold the max."""
    b = choose_b(spec)
    if 2.0 * t_window > math.pi * n_per_unit:
        raise ValueError("sample window exceeds the discretization's period")
    t = np.linspace(-t_window, t_window, n_boundary)
    zb = np.asarray(spec.psi(t), dtype=float) + b + 1j * t
    # include a sheet of interior samples so the fit is not boundary-only
    zi = zb + np.linspace(0.5, 8.0, 7)[:, None]
    zs = np.concatenate([zb, zi.ravel()])
    w = alpha_map(zs)
    f = np.asarray(target(zs), dtype=complex)
    rows = []
    for deg in degrees:
        V = np.vander(w, deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(V, f, rcond=1e-7)
        mu, es = poly_alpha_exp_sum(list(coef), b, n_per_unit=n_per_unit)
        rows.append((deg, es.sup_error(zs - b, f), mu))
    return b, rows


def poly_alpha_exp_sum(coeffs, b, n_per_unit=64):
    """Expand sum_k a_k alpha(z+b)^k as an atomic measure transform.

    The convolution powers are computed on a shared grid so the atom count
    grows linearly in the degree; returns (AtomicMeasure, ExpSum)."""
    deg = len(coeffs) - 1
    if deg > 12:
        raise ValueError("pipeline depth is capped at degree 12")
    base = discretize_measure(alpha_measure_density(b), 1.0, n_per_unit)
    grid = 1.0 / n_per_unit
    # weight vector of the base measure on the shared grid
    w_base = np.zeros(n_per_unit + 1, dtype=complex)
    for t, w in base.atoms:
        w_base[int(round(t / grid))] += w
    acc = np.zeros(1, dtype=complex)
    acc[0] = coeffs[0]  # delta at 0
    power = np.array([1.0 + 0j])  # nu^{*0}
    for k in range(1, deg + 1):
        power = np.convolve(power, w_base)
        term = coeffs[k] * power
        if term.size > acc.size:
            acc = np.pad(acc, (0, term.size - acc.size))
            acc += term
        else:
            acc[: term.size] += term
    atoms = tuple(
        (i * grid, complex(w)) for i, w in enumerate(acc) if abs(w) > 1e-300
    )
    mu = AtomicMeasure(atoms, grid * (len(acc) - 1))
    return mu, mu.exp_sum("laplace")
