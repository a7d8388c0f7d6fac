"""Built-in verification suites.

Every check recomputes a known quantity through the public entry points
and compares it with an independently stored expectation. The checks look
functions up on their modules at call time, so a patched or miscompiled
function shows up as a failing check rather than a silently wrong answer.

The quick level runs in well under five seconds; the full level adds the
larger flag and determinant suites.

`expand_in_schubert_basis`, the inverse of the Schubert polynomial map,
lives here because no product needs it: it checks flag products against
expanded polynomial products, here and in the test oracles. The command
line imports this module only for `schubcalc selftest`.
"""

import sys
from itertools import permutations

from . import flag as flag_mod
from . import grassmann as gr_mod
from . import halving as halving_mod
from . import indexing as indexing_mod
from . import schur as schur_mod
from .errors import SupportOutsideStaircase


def _fail(message):
    raise AssertionError(message)


def _expect(got, want, label):
    if got != want:
        _fail(f"{label}: got {got!r}, expected {want!r}")


def _staircase_check(p, n):
    for exp in p.terms:
        if len(exp) > n - 1 or any(e > n - 1 - idx for idx, e in enumerate(exp)):
            raise SupportOutsideStaircase(
                f"monomial {exp} is outside the staircase for S_{n}"
            )


def expand_in_schubert_basis(p, n):
    """Write p as an integer combination of Schubert polynomials for S_n.

    Triangular elimination on the lexicographically smallest monomial
    (x_1 major): that monomial is x^code(w) for a unique w, and the Schubert
    polynomial of w contains it with coefficient 1 and nothing smaller.
    Subtracting peels one basis element per round; every round re-checks
    that property, so a convention slip raises instead of a wrong answer.
    """
    _staircase_check(p, n)
    out = {}
    work = p
    while not work.is_zero():
        exp = min(work.terms)
        c = work.terms[exp]
        w = indexing_mod.perm_from_code(exp)
        basis = flag_mod.schubert_polynomial(w).poly
        if min(basis.terms) != exp or basis.terms[exp] != 1:
            raise AssertionError(
                f"leading-monomial property failed for {w}; "
                "term-order convention violated"
            )
        work = work - c * basis
        out[indexing_mod.perm_pad(w, n)] = c
    return out


def _check_lr_values():
    table = {
        ((1,), (1,), (2,)): 1,
        ((1,), (1,), (1, 1)): 1,
        ((1,), (1,), (3,)): 0,
        ((2, 1), (2, 1), (3, 2, 1)): 2,
        ((2, 1), (2, 1), (4, 2)): 1,
        ((2, 2), (2, 1), (4, 3)): 1,
        ((3, 1), (2,), (3, 2, 1)): 1,
        ((2, 2), (1, 1), (4, 2)): 0,
    }
    for (lam, mu, nu), want in table.items():
        got = schur_mod.lr_coefficient(lam, mu, nu)
        _expect(got, want, f"coefficient of {nu} in {lam}*{mu}")


def _check_products_against_tableaux():
    nvars = 3
    shapes = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]
    for lam in shapes:
        for mu in shapes:
            product = schur_mod.schur_multiply(
                schur_mod.SchurExpansion.basis(lam), schur_mod.SchurExpansion.basis(mu)
            )
            direct = schur_mod.oracle_schur_polynomial(
                lam, nvars
            ) * schur_mod.oracle_schur_polynomial(mu, nvars)
            recombined = sum(
                (
                    c * schur_mod.oracle_schur_polynomial(nu, nvars)
                    for nu, c in product.terms.items()
                    if len(nu) <= nvars
                ),
                schur_mod.oracle_schur_polynomial((), nvars) * 0,
            )
            if recombined != direct:
                _fail(f"product {lam}*{mu} disagrees with the tableau generating function")


def _check_duality_small():
    space = gr_mod.GrassmannianDescriptor(2, 4)
    shapes = list(indexing_mod.partitions_in_box(space.k, space.l))
    for lam in shapes:
        for mu in shapes:
            pairing = gr_mod.gr_integrate(
                gr_mod.gr_multiply(
                    gr_mod.GrassmannClass.basis(space, lam),
                    gr_mod.GrassmannClass.basis(space, mu),
                )
            )
            want = 1 if mu == gr_mod.poincare_dual(lam, space) else 0
            _expect(pairing, want, f"duality pairing of {lam} and {mu}")


def _check_classic_counts():
    space = gr_mod.GrassmannianDescriptor(2, 4)
    sigma1 = gr_mod.GrassmannClass.basis(space, (1,))
    _expect(gr_mod.gr_integrate(sigma1 ** 4), 2, "lines meeting four lines")
    space6 = gr_mod.GrassmannianDescriptor(2, 6)
    _expect(
        gr_mod.gr_integrate(gr_mod.GrassmannClass.basis(space6, (2,)) ** 4),
        3,
        "lines meeting four planes in five-space",
    )


def _check_rank_drop():
    space = gr_mod.GrassmannianDescriptor(2, 4)
    series = gr_mod.tautological_chern_difference(space, 2)
    locus = gr_mod.thom_porteous(2, 2, 1, series)
    _expect(
        dict(locus.terms),
        {(1,): 2},
        "rank-drop locus of the tautological map",
    )
    _expect(gr_mod.degeneracy_count(space, 2, 2, 1, 4), 32, "four rank-drop conditions")


def _check_halving_bounds():
    real = halving_mod.HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
    problem = halving_mod.SchubertProblem(real, (((2, 2), 4),))
    _expect(halving_mod.real_lower_bound(problem), 2, "real lines meeting four lines")

    quat = halving_mod.HalvingSpaceDescriptor.quaternionic_grassmannian(2, 4)
    qproblem = halving_mod.SchubertProblem(quat, (((1,), 4),))
    _expect(halving_mod.quaternionic_count(qproblem), 2, "quaternionic lines meeting four lines")

    image = halving_mod.kappa(halving_mod.HalvingClass.basis(real, (2, 2)))
    _expect(
        dict(image.terms),
        {(1,): 2},
        "halving image of a doubled single-box condition",
    )


def _check_monk_three():
    space = flag_mod.FlagDescriptor((1, 1, 1))
    for w in ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)):
        base = flag_mod.FlagClass.basis(space, w)
        for r in (1, 2):
            got = flag_mod.monk_multiply(r, base)
            want = flag_mod.flag_multiply(
                flag_mod.FlagClass.basis(
                    space, indexing_mod.perm_swap_positions((1, 2, 3), r, r + 1)
                ),
                base,
            )
            if got != want:
                _fail(f"degree-one product at {w}, position {r}")


def _check_flag_four():
    space = flag_mod.FlagDescriptor((1, 1, 1, 1))
    perms = [tuple(p) for p in permutations((1, 2, 3, 4))]
    for w in perms:
        base = flag_mod.FlagClass.basis(space, w)
        for r in (1, 2, 3):
            got = flag_mod.monk_multiply(r, base)
            want = flag_mod.flag_multiply(
                flag_mod.FlagClass.basis(
                    space, indexing_mod.perm_swap_positions((1, 2, 3, 4), r, r + 1)
                ),
                base,
            )
            if got != want:
                _fail(f"degree-one product at {w}, position {r}")
    top = flag_mod.FlagClass.basis(space, (4, 3, 2, 1))
    unit = flag_mod.FlagClass.unit(space)
    _expect(flag_mod.flag_integrate(top * unit), 1, "point class pairing")


def _check_flag_polynomials():
    """Every product in S_4 against the expanded product of Schubert polynomials.

    The product kernel walks transition trees by Monk steps and builds no
    polynomial, so this check shares no product code with it. Two factors
    from S_n have monomials inside the staircase of S_(2n-1), where the
    product is expanded.
    """
    n = 4
    space = flag_mod.FlagDescriptor((1,) * n)
    perms = [tuple(p) for p in permutations(range(1, n + 1))]
    for u in perms:
        pu = flag_mod.schubert_polynomial(u).poly
        for v in perms:
            product = pu * flag_mod.schubert_polynomial(v).poly
            want = {}
            for w, c in expand_in_schubert_basis(product, 2 * n - 1).items():
                w = indexing_mod.perm_strip(w)
                if len(w) <= n:
                    want[indexing_mod.perm_pad(w, n)] = c
            got = flag_mod.flag_multiply(
                flag_mod.FlagClass.basis(space, u),
                flag_mod.FlagClass.basis(space, v),
            )
            _expect(dict(got.terms), want, f"product of {u} and {v}")


def _check_giambelli_box():
    space = gr_mod.GrassmannianDescriptor(3, 6)
    count = 0
    for lam in indexing_mod.partitions_in_box(3, 3):
        got = gr_mod.giambelli(lam, space)
        want = gr_mod.GrassmannClass.basis(space, lam)
        if got != want:
            _fail(f"determinantal expansion of {lam}")
        count += 1
    _expect(count, 20, "number of shapes in the three-by-three box")


def _check_large_count():
    space = gr_mod.GrassmannianDescriptor(4, 8)
    cls = gr_mod.GrassmannClass.basis(space, (2, 2))
    _expect(gr_mod.gr_integrate(cls ** 4), 6, "four box conditions on Gr(4, C^8)")
    real = halving_mod.HalvingSpaceDescriptor.real_even_grassmannian(8, 16)
    problem = halving_mod.SchubertProblem(real, (((4, 4, 4, 4), 4),))
    _expect(halving_mod.real_lower_bound(problem), 6, "the doubled version of the same problem")


def _check_jacobi_trudi():
    for lam in ((2, 1), (2, 2), (3, 1), (3, 2, 1)):
        got = schur_mod.jacobi_trudi(lam)
        want = schur_mod.SchurExpansion.basis(lam)
        if got != want:
            _fail(f"row-determinant expansion of {lam}")


QUICK_CHECKS = (
    ("structure constants", _check_lr_values),
    ("products against tableaux", _check_products_against_tableaux),
    ("duality pairing on Gr(2, C^4)", _check_duality_small),
    ("classic counts", _check_classic_counts),
    ("rank-drop locus", _check_rank_drop),
    ("halving bounds", _check_halving_bounds),
    ("degree-one products on three-step flags", _check_monk_three),
    ("flag products against Schubert polynomials in S_4", _check_flag_polynomials),
)

FULL_CHECKS = QUICK_CHECKS + (
    ("degree-one products on four-step flags", _check_flag_four),
    ("determinantal expansions in the three-by-three box", _check_giambelli_box),
    ("row determinants", _check_jacobi_trudi),
    ("large incidence counts", _check_large_count),
)


def run_selftest(level="quick", out=None):
    """Run the named suite; returns 0 when every check passes."""
    if out is None:
        out = sys.stdout
    checks = FULL_CHECKS if level == "full" else QUICK_CHECKS
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=out)
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}", file=out)
        else:
            print(f"ok   {name}", file=out)
    print(f"{level}: {len(checks) - failures} of {len(checks)} checks passed", file=out)
    return 0 if failures == 0 else 1
