"""The column-choice determinant search, kept as a test oracle.

It walks every permutation the nonzero entries allow, one row at a time,
and adds each signed product on its own, so its work grows like n!.  This
was `schubcalc.schur.ring_determinant` before the row-by-row expansion
over column sets replaced it; the two share no code.
"""


def oracle_determinant(mat, one):
    """Determinant by column-choice search, pruning zero entries.

    Entries must support +, unary -, * and truthiness.  `one` is the
    multiplicative unit, returned for the empty matrix.
    """
    n = len(mat)
    if n == 0:
        return one
    result = None

    def rec(r, used, acc, sign):
        nonlocal result
        if r == n:
            term = acc if sign > 0 else -acc
            result = term if result is None else result + term
            return
        for c in range(n):
            if used >> c & 1:
                continue
            e = mat[r][c]
            if not e:
                continue
            flips = bin(used >> (c + 1)).count("1")
            rec(r + 1, used | (1 << c), acc * e, sign * (-1) ** flips)

    rec(0, 0, one, 1)
    return result if result is not None else one - one
