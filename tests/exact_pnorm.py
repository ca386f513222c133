"""Exact ground truth for the float lane's smooth circumcenters at integer p.

At integer p the p-th power of a vertex's l_p gauge from m,
S_i(m) = sum_k |a_ik - m_k|^p, is rational for rational m, and a float
point is a rational m read exactly.  A circumcenter solves
S_i(m) = S_0(m) for i = 1..d, so the Newton correction J^-1 (S_i - S_0)
of those equations, J their Jacobian, is 0 there and tells how far a
printed point is from the root near it.  newton_correction computes it
in Fractions, with no rounding.  A correction above a stated multiple of
the simplex's scale flags a piece; a flag is evidence, not proof, since
an ill-conditioned true center can have a large correction at its float
rounding.
"""

from fractions import Fraction


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def newton_correction(vertices, point, p: int) -> tuple:
    """J^-1 F at point for F_i = S_i - S_0 (i = 1..d), as Fractions, for
    an integer p >= 2 and float or rational coordinates; None when J is
    singular there."""
    m = [Fraction(c) for c in point]
    diffs = [[Fraction(a) - c for a, c in zip(v, m)] for v in vertices]
    S = [sum(abs(x) ** p for x in row) for row in diffs]
    # dS_i/dm_k = -p sign(x_k) |x_k|^(p-1) for x = A_i - m
    grads = [[-p * _sign(x) * abs(x) ** (p - 1) for x in row] for row in diffs]
    aug = [[g - g0 for g, g0 in zip(grads[i], grads[0])] + [S[i] - S[0]] for i in range(1, len(vertices))]
    n = len(m)
    for col in range(n):  # Gauss-Jordan; any nonzero pivot is exact
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[k][n] / aug[k][k] for k in range(n))


def correction_size(vertices, point, p: int) -> float:
    """The largest |entry| of the exact Newton correction over the
    simplex's largest |coordinate|; inf when J is singular."""
    delta = newton_correction(vertices, point, p)
    if delta is None:
        return float("inf")
    scale = max(abs(Fraction(c)) for v in vertices for c in v)
    return float(max(abs(x) for x in delta) / scale)
