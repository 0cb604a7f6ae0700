"""Reference 4d instanton coefficients for the tests: the Whittaker-vector
norm, a route that reads no arm or leg of a Young diagram.

The pure SU(2) coefficient at degree d is the norm of the level-d part of
Gaiotto's Whittaker vector (Gaiotto, arXiv:0908.0307; Alday-Gaiotto-
Tachikawa, Lett. Math. Phys. 91, 2010): the [1^d], [1^d] entry of the
inverse Shapovalov (Gram) matrix G_d of the Virasoro Verma module of
central charge c and highest weight h, on the basis L_{-lam}|h> =
L_{-lam_1} L_{-lam_2} ... |h>, |lam| = d.  With s = e1 + e2 and a = a1 - a2,
kernel_4d's pair argument (so h takes a/2),

    Z_d = (e1 e2)^{-2d} (G_d^{-1})_{[1^d], [1^d]},
    c = 1 + 6 s^2 / (e1 e2),  h = (s^2 - a^2) / (4 e1 e2).

G_d comes from the commutator [L_m, L_n] = (m - n) L_{m+n} + c/12 (m^3 - m)
delta_{m+n,0} alone, in Fractions.
"""

from __future__ import annotations

from fractions import Fraction as Frac

from nektau.partitions import partition_table


class Verma:
    """The Verma module of central charge c and highest weight h.

    A state is {word: coefficient}, a word a weakly decreasing tuple (n_1,
    n_2, ...) of positive ints for L_{-n_1} L_{-n_2} ... |h>.
    """

    def __init__(self, c: Frac, h: Frac):
        self.c, self.h = c, h
        self._act = {}

    def act(self, m: int, word) -> dict:
        """L_m L_{-word}|h> as a state, kept per (m, word); never changed
        after it is made."""
        key = (m, word)
        out = self._act.get(key)
        if out is None:
            out = self._act[key] = self._make(m, word)
        return out

    def _make(self, m, word):
        if m == 0:
            return {word: self.h + sum(word)}
        if not word or -m >= word[0]:
            return {(-m,) + word: 1} if m < 0 else {}
        # L_m L_{-n} rest = L_{-n} L_m rest + (m + n) L_{m-n} rest
        #                   + c/12 (m^3 - m) rest  [m = n]
        n, rest = word[0], word[1:]
        out = {}
        for w, x in self.act(m, rest).items():
            _add(out, self.act(-n, w), x)
        _add(out, self.act(m - n, rest), m + n)
        if m == n:
            _add(out, {rest: 1}, self.c * (m ** 3 - m) / 12)
        return out

    def gram(self, lam, mu) -> Frac:
        """<h| L_{-lam}^dagger L_{-mu} |h>: L_{lam_1} acts first."""
        state = {mu: Frac(1)}
        for n in lam:
            nxt = {}
            for w, x in state.items():
                _add(nxt, self.act(n, w), x)
            state = nxt
        return state.get((), Frac(0))


def _add(out, state, x):
    """out += x * state."""
    for w, y in state.items():
        v = out.get(w, 0) + x * y
        if v:
            out[w] = v
        else:
            out.pop(w, None)


def _solve(G, b):
    """x with G x = b, in Fractions, by Gaussian elimination."""
    n = len(G)
    rows = [list(map(Frac, row)) + [Frac(v)] for row, v in zip(G, b)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [rows[k][n] / rows[k][k] for k in range(n)]


def whittaker_coeff_4d(e1: Frac, e2: Frac, a: Frac, d: int) -> Frac:
    """Z_d at (e1, e2, a) as the Whittaker-vector norm (module docstring)."""
    s, p = e1 + e2, e1 * e2
    verma = Verma(1 + 6 * s * s / p, (s * s - a * a) / (4 * p))
    basis = partition_table(d)[d]
    G = [[verma.gram(lam, mu) for mu in basis] for lam in basis]
    ones = basis.index((1,) * d)
    x = _solve(G, [int(k == ones) for k in range(len(basis))])
    return x[ones] / p ** (2 * d)
