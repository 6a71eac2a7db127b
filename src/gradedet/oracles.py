"""Independent computation paths and seeded verification sweeps.

Each determinant-like operation has a second, structurally different route
to the same value: the complex embedding of the quaternions, a
crossed-product row decomposition evaluated by the diagonal heredity
rule, and the classical supermatrix Berezinian taken after J_sigma.  The sweep functions compare
the routes and check the algebraic laws on seeded random instances; the
test suite and the CLI verify subcommand call the same functions, so a
report with an empty failure list is the single source of truth.
"""

import itertools
from functools import lru_cache

from . import serialize
from .algebra import (adjoined_units, det_gauss, graded_tensor,
                      invert_element, make_algebra, preset, tensor_embed_left,
                      tensor_project_left, transport, twist, unit_degrees)
from .berezinian import ber_super_components, gber, gber0, \
    gber_via_ber_super, udl
from .errors import InvalidParams, MissingUnit, NotInvertible
from .gdet import (_require_even, all_ns_multipliers, gdet0, gdet0_leibniz,
                   gdet0_via_crossed, gdet_sigma, permutation_sign,
                   random_ordering)
from .gmatrix import (GradedMatrix, _require_endo, block_matrix, diagonal,
                      graded_trace, identity, invert_matrix, j_sigma, matmul,
                      permutation_matrix, scalar_action, superrank,
                      zero_matrix)
from .grading import (Multiplier, is_commutation_factor, is_ns_multiplier,
                      lambda_twist, parity, solve_ns_multiplier)
from .sampling import (make_rng, parity_split, rand_component, rand_degrees,
                       rand_fraction, rand_invertible,
                       rand_invertible_parity_blocks, rand_matrix,
                       rand_parity_constant_degrees,
                       rand_parity_sorted_degrees, rand_unitriangular,
                       sorted_degrees)
from .scalars import cyclo, rational


class SweepReport:
    """Outcome of one property sweep: how many checks ran and which failed,
    each failure carrying (input digest, expected, got)."""

    def __init__(self, name, instances=0, failures=None):
        self.name = name
        self.instances = instances
        self.failures = [] if failures is None else failures

    @property
    def ok(self):
        return not self.failures

    def compare(self, tag, expected, got):
        self.instances += 1
        if not (expected == got):
            self.failures.append((tag() if callable(tag) else tag,
                                  repr(expected), repr(got)))

    def hold(self, tag, condition, note="condition"):
        self.instances += 1
        if not condition:
            self.failures.append((tag() if callable(tag) else tag,
                                  note, "does not hold"))

    def absorb(self, other):
        self.instances += other.instances
        self.failures.extend(other.failures)

    def to_doc(self):
        return {"name": self.name, "instances": self.instances,
                "failures": [list(f) for f in self.failures]}


def _tag(*matrices):
    def thunk():
        return "+".join(serialize.digest_matrix(m) for m in matrices)
    return thunk


def _value_power(m, x, y, k):
    """m(x, y)^k as an exact root of unity."""
    return cyclo((m.exponent(x, y) * k) % m.root_order, m.root_order)


def _value_inv(m, x, y):
    return _value_power(m, x, y, -1)


# ---------------------------------------------------------------------------
# independent routes

def trace_via_twist(x, sigma):
    """The trace of J_sigma(X) over the twisted algebra, carried back; the
    twisted commutation factor turns the formula into the supertrace."""
    return transport(graded_trace(j_sigma(x, sigma)), x.algebra)


_I = cyclo(1, 4)


def complex_embedding(x):
    """The 2n x 2n scalar matrix over Q(i) of a quaternionic matrix under
    a + b i + c j + d k -> [[a + b i, c + d i], [-c + d i, a - b i]]."""
    alg = x.algebra
    if alg.labels != ("1", "i", "j", "k"):
        raise InvalidParams("the complex embedding is defined on the "
                            "quaternion preset")
    _require_endo(x, "complex_embedding")
    n = x.nrows
    rows = [[None] * (2 * n) for _ in range(2 * n)]
    for bi in range(n):
        for bj in range(n):
            e = x.entries[bi][bj]
            a, b, c, d = (e.coeffs.get(k, rational(0)) for k in range(4))
            for f in (a, b, c, d):
                if not f.is_rational():
                    raise InvalidParams("entries must have rational "
                                        "coefficients")
            rows[2 * bi][2 * bj] = a + b * _I
            rows[2 * bi][2 * bj + 1] = c + d * _I
            rows[2 * bi + 1][2 * bj] = -c + d * _I
            rows[2 * bi + 1][2 * bj + 1] = a - b * _I
    return rows


def quaternion_norm(q):
    """q qbar = a^2 + b^2 + c^2 + d^2 for a rational-coefficient
    quaternion."""
    total = rational(0)
    for k in range(4):
        c = q.coeffs.get(k)
        if c is not None:
            total = total + c * c
    return total


def dieudonne_norm_check(x, sigmas=None):
    """Checks N(Gdet_sigma(X)) = det(complex_embedding(X)) for every sigma;
    the norm comparison is the exact-arithmetic form of the Dieudonne
    determinant correspondence."""
    report = SweepReport("dieudonne_norm")
    want = det_gauss(complex_embedding(x))
    if sigmas is None:
        sigmas = all_ns_multipliers(x.algebra.lam)
    for sigma in sigmas:
        got = quaternion_norm(gdet_sigma(x, sigma))
        report.compare(_tag(x), want, got)
    return report


def _heredity_product(diag, nu, lam, sigma):
    """Gdet_sigma of a homogeneous diagonal, evaluated by peeling the last
    entry: each d_m contributes lambda(deg d_m, nu_m)^(-1) d_m times
    sigma(deg d_m, sum of the earlier degrees)."""
    alg = diag[0].algebra
    acc = alg.one()
    w = alg.group.zero()
    for m, dm in enumerate(diag):
        dt = dm.degree_of()
        c = dm * _value_inv(lam, dt, nu[m])
        acc = (c * acc) * sigma.value(dt, w)
        w = w + dt
    return acc


def gdet_via_row_decomposition(x, sigma):
    """Decomposes each row by degree, pulls every degree through crossed
    product units adjoined by a tensor factor, and evaluates the resulting
    homogeneous diagonals with the heredity rule: an independent route to
    gdet_sigma(x)."""
    _require_endo(x, "gdet_via_row_decomposition")
    _require_even(x, "gdet_via_row_decomposition")
    alg = x.algebra
    lam = alg.lam
    nu = x.col_degrees
    n = x.nrows
    big, ts, tinvs = adjoined_units(alg, nu)
    row_parts = []
    for i in range(n):
        parts = {}
        for j, e in enumerate(x.entries[i]):
            for d, part in e.homogeneous_components().items():
                alpha = d + nu[i] - nu[j]
                row = parts.get(alpha)
                if row is None:
                    row = parts[alpha] = [alg.zero()] * n
                row[j] = part
        row_parts.append(parts)
    total = big.zero()
    pools = [sorted(parts, key=lambda g: g.residues) for parts in row_parts]
    perms = list(itertools.permutations(range(n)))
    for alpha in itertools.product(*pools):
        rows = [row_parts[i][alpha[i]] for i in range(n)]
        for pi in perms:
            diag = []
            for j in range(n):
                e = rows[pi[j]][j]
                if e.is_zero():
                    diag = None
                    break
                diag.append((tinvs[nu[j]] * ts[nu[pi[j]]])
                            * tensor_embed_left(big, e))
            if diag is None:
                continue
            term = _heredity_product(diag, nu, lam, sigma)
            if permutation_sign(pi) < 0:
                term = -term
            total = total + term
    return tensor_project_left(big, total)


# ---------------------------------------------------------------------------
# sweeps

def _main_presets():
    return (preset("quaternions"), preset("clifford", 1, 1),
            preset("clifford", 0, 2), preset("dual_numbers", 2))


@lru_cache(maxsize=None)
def _odd_line_tensor():
    """Cl(0,2) tensored with a rank-one odd line: a purely even part with
    invertible elements in every even degree, plus genuinely odd degrees,
    so Berezinians of nonzero even degree exist."""
    cl = preset("clifford", 0, 2)
    group = cl.group
    eps = group.element((1, 1, 1))
    line = make_algebra([group.zero(), eps],
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                        cl.lam, labels=("1", "eps"), name="odd_line")
    return graded_tensor(cl, line)


def sweep_grading(seed=0):
    rng = make_rng(f"{seed}:grading")
    report = SweepReport("grading_laws")
    quat = preset("quaternions")
    cl = preset("clifford", 0, 2)
    clock = preset("clock_shift", 3)
    for alg in (quat, cl, clock, preset("dual_numbers", 2)):
        lam = alg.lam
        report.hold(alg.name, is_commutation_factor(lam),
                    "commutation factor is skew")
        elems = list(lam.group.elements())
        for x in elems:
            for y in elems:
                report.compare(
                    alg.name, parity(lam, x + y),
                    (parity(lam, x) + parity(lam, y)) % 2)
        sigma = solve_ns_multiplier(lam)
        report.hold(alg.name, is_ns_multiplier(lam, sigma),
                    "solver output is an NS-multiplier")
        sigmas = all_ns_multipliers(lam)
        report.compare(alg.name, sigmas[0], sigma)
        for s in sigmas:
            report.hold(alg.name, is_ns_multiplier(lam, s),
                        "enumerated multiplier is an NS-multiplier")
        # the twisted factor is the super sign rule, pointwise
        for s in rng.sample(sigmas, min(3, len(sigmas))):
            tw = lambda_twist(lam, s)
            for x in elems:
                for y in elems:
                    want = (parity(lam, x) * parity(lam, y)) % 2
                    report.compare(alg.name, cyclo(want, 2), tw.value(x, y))
                    report.compare(
                        alg.name, cyclo(0, 1),
                        s.value(x, y) * s.inverse().value(x, y))
            report.compare(alg.name, s, s.at_order(2 * s.root_order))
    report.compare("count:quaternions", 8,
                   len(all_ns_multipliers(quat.lam)))
    report.compare("count:clifford(0,2)", 64,
                   len(all_ns_multipliers(cl.lam)))
    return report


_STAR_TABLE_1 = {
    ("i", "i"): {"1": 1}, ("i", "j"): {"k": -1}, ("i", "k"): {"j": -1},
    ("j", "i"): {"k": -1}, ("j", "j"): {"1": 1}, ("j", "k"): {"i": -1},
    ("k", "i"): {"j": -1}, ("k", "j"): {"i": -1}, ("k", "k"): {"1": 1},
}
_STAR_TABLE_2 = {
    ("i", "i"): {"1": -1}, ("i", "j"): {"k": 1}, ("i", "k"): {"j": -1},
    ("j", "i"): {"k": 1}, ("j", "j"): {"1": 1}, ("j", "k"): {"i": 1},
    ("k", "i"): {"j": -1}, ("k", "j"): {"i": 1}, ("k", "k"): {"1": -1},
}


def printed_quaternion_multipliers():
    """The two multipliers whose twisted quaternion products are tabulated:
    (x, y) -> (-1)^(x1 y2 + x1 y3 + x2 y3) and
    (x, y) -> (-1)^(x1 y3 + x2 y1 + x2 y2 + x2 y3), restricted from
    (Z_2)^3 to the grading subgroup generated by the degrees of i and j."""
    group = preset("quaternions").group
    return (Multiplier(group, 2, [[1, 1], [0, 1]]),
            Multiplier(group, 2, [[0, 0], [1, 1]]))


def sweep_twisted_tables(seed=0):
    report = SweepReport("twisted_quaternion_tables")
    alg = preset("quaternions")
    sigmas = all_ns_multipliers(alg.lam)
    for sigma, table in zip(printed_quaternion_multipliers(),
                            (_STAR_TABLE_1, _STAR_TABLE_2)):
        report.hold("printed multiplier", is_ns_multiplier(alg.lam, sigma),
                    "printed multiplier is an NS-multiplier")
        report.hold("printed multiplier",
                    any(s == sigma for s in sigmas),
                    "printed multiplier is enumerated")
        tw = twist(alg, sigma, validate=True)
        for (la, lb), want in table.items():
            got = tw.basis_element(la) * tw.basis_element(lb)
            report.compare(f"star {la}*{lb}", tw.element(want), got)
        for la in alg.labels:
            for lb in alg.labels:
                a, b = tw.basis_element(la), tw.basis_element(lb)
                report.compare(f"commutativity {la},{lb}", a * b, b * a)
    return report


def sweep_quaternion_values(seed=0):
    report = SweepReport("quaternion_worked_values")
    alg = preset("quaternions")
    group = alg.group
    jt = group.element((0, 1))
    one, jq = alg.one(), alg.basis_element("j")
    sigmas = all_ns_multipliers(alg.lam)
    two, zero_s = alg.from_scalar(2), alg.zero()
    minus = set()
    for sigma in sigmas:
        if sigma.exponent(jt, jt):
            minus.add(id(sigma))
    report.compare("count sigma(j,j)=-1", 4, len(minus))
    for nu1 in group.elements():
        nu = (nu1, nu1 + jt)
        x = GradedMatrix(alg, nu, nu, [[one, jq], [jq, one]])
        y = GradedMatrix(alg, nu, nu, [[one, jq], [-jq, one]])
        report.compare(_tag(x), group.zero(), x.degree_of())
        for sigma in sigmas:
            report.compare(_tag(x), two, gdet_sigma(x, sigma))
            report.compare(_tag(y), zero_s, gdet_sigma(y, sigma))
        report.compare(_tag(x), two, gdet0(x))
        report.compare(_tag(y), zero_s, gdet0(y))
    nu0 = (group.zero(), group.zero())
    x = GradedMatrix(alg, nu0, nu0, [[one, jq], [jq, one]])
    y = GradedMatrix(alg, nu0, nu0, [[one, jq], [-jq, one]])
    for sigma in sigmas:
        sign = -1 if id(sigma) in minus else 1
        report.compare(_tag(x), alg.from_scalar(1 + sign),
                       gdet_sigma(x, sigma))
        report.compare(_tag(y), alg.from_scalar(1 - sign),
                       gdet_sigma(y, sigma))
    return report


def sweep_sigma_independence(seed=0):
    rng = make_rng(f"{seed}:sigma-independence")
    report = SweepReport("sigma_independence")
    for alg in _main_presets():
        sigmas = all_ns_multipliers(alg.lam)
        for _ in range(50):
            n = rng.choice((1, 2, 2, 3, 3, 4))
            nu = rand_parity_constant_degrees(rng, alg, n)
            x = rand_matrix(rng, alg, nu)
            det = gdet0(x)
            tr = graded_trace(x)
            for sigma in sigmas:
                report.compare(_tag(x), det, gdet_sigma(x, sigma))
                report.compare(_tag(x), tr, trace_via_twist(x, sigma))
        odds = parity_split(alg)[1]
        for _ in range(12):
            r1 = rng.randint(1, 2) if odds else 0
            r0 = rng.randint(1, 2)
            nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
            x = rand_invertible_parity_blocks(rng, alg, nu, r1)
            base = gber(x, sigmas[0])
            report.compare(_tag(x), base, gber0(x))
            for sigma in sigmas[1:]:
                report.compare(_tag(x), base, gber(x, sigma))
    return report


def sweep_gdet0_multiplicative(seed=0):
    rng = make_rng(f"{seed}:multiplicative")
    report = SweepReport("gdet0_multiplicative")
    for alg in _main_presets():
        zero = alg.group.zero()
        for _ in range(200):
            n = rng.choice((1, 2, 2, 3))
            nu = rand_parity_constant_degrees(rng, alg, n)
            x = rand_invertible(rng, alg, nu)
            y = rand_invertible(rng, alg, nu)
            report.compare(_tag(x, y), gdet0(matmul(x, y)),
                           gdet0(x) * gdet0(y))
        for _ in range(30):
            n = rng.randint(1, 3)
            nu = rand_parity_constant_degrees(rng, alg, n)
            while True:
                a = rand_component(rng, alg, zero, nonzero=True)
                try:
                    invert_element(a)
                    break
                except NotInvertible:
                    continue
            d = diagonal(alg, nu, [alg.one()] * (n - 1) + [a])
            report.compare(_tag(d), a, gdet0(d))
    return report


def sweep_ordering_formula(seed=0):
    rng = make_rng(f"{seed}:orderings")
    report = SweepReport("ordering_formula")
    for alg in _main_presets():
        for _ in range(50):
            n = rng.choice((2, 2, 3, 3, 4))
            nu = rand_parity_constant_degrees(rng, alg, n)
            x = rand_matrix(rng, alg, nu)
            base = gdet0(x)
            tag = _tag(x)
            report.compare(tag, base, gdet0_leibniz(x))
            perms = list(itertools.permutations(range(n)))
            signs = {pi: permutation_sign(pi) for pi in perms}
            cache = {}

            def term(pi, seq, x=x, alg=alg, cache=cache):
                got = cache.get((pi, seq))
                if got is None:
                    got = alg.one()
                    for s in seq:
                        got = got * x.entries[s][pi[s]]
                    cache[(pi, seq)] = got
                return got

            for draw in range(100):
                omap = {pi: random_ordering(pi, rng) for pi in perms}
                if draw < 6:
                    report.compare(tag, base, gdet0_leibniz(x, omap))
                else:
                    acc = alg.zero()
                    for pi in perms:
                        t = term(pi, omap[pi])
                        acc = acc + (t if signs[pi] > 0 else -t)
                    report.compare(tag, base, acc)
    return report


def sweep_gdet_sigma_laws(seed=0):
    rng = make_rng(f"{seed}:sigma-laws")
    report = SweepReport("gdet_sigma_laws")
    algebras = (preset("quaternions"), preset("dual_numbers", 2),
                preset("clock_shift", 3))
    for alg in algebras:
        lam = alg.lam
        zero = alg.group.zero()
        sigmas = all_ns_multipliers(lam)
        evens, _ = parity_split(alg)
        for sigma in sigmas:
            for _ in range(4):
                n = rng.choice((2, 3))
                nu = rand_parity_constant_degrees(rng, alg, n)
                k = n * (n - 1)
                # weak multiplicativity: one factor of degree 0
                x = (rand_matrix(rng, alg, nu, rng.choice(evens))
                     + rand_matrix(rng, alg, nu, rng.choice(evens)))
                y0 = rand_matrix(rng, alg, nu)
                report.compare(_tag(x, y0), gdet_sigma(matmul(x, y0), sigma),
                               gdet_sigma(x, sigma) * gdet_sigma(y0, sigma))
                report.compare(_tag(y0, x), gdet_sigma(matmul(y0, x), sigma),
                               gdet_sigma(y0, sigma) * gdet_sigma(x, sigma))
                # additivity in row r
                xd = rng.choice(evens)
                xm = rand_matrix(rng, alg, nu, xd)
                r = rng.randrange(n)
                fresh = [rand_component(rng, alg, xd - nu[r] + nu[j])
                         for j in range(n)]
                gy = [list(row) for row in xm.entries]
                gy[r] = fresh
                gz = [list(row) for row in xm.entries]
                gz[r] = [a + b for a, b in zip(xm.entries[r], fresh)]
                ym = GradedMatrix(alg, nu, nu, gy)
                zm = GradedMatrix(alg, nu, nu, gz)
                report.compare(_tag(xm, ym),
                               gdet_sigma(zm, sigma),
                               gdet_sigma(xm, sigma)
                               + gdet_sigma(ym, sigma))
                # heredity for diagonal matrices
                nu_ext = nu + (rand_degrees(rng, alg, 1)[0],)
                xdiag = rng.choice(evens)
                entries = [rand_component(rng, alg, xdiag) for _ in range(n)]
                ct = rng.choice(evens)
                c = rand_component(rng, alg, ct, nonzero=True)
                dmat = diagonal(alg, nu, entries)
                big = diagonal(alg, nu_ext,
                               entries + [c * lam.value(ct, nu_ext[-1])])
                g = gdet_sigma(dmat, sigma)
                rhs = (c * g) * sigma.value(ct, g.degree_of())
                report.compare(_tag(big), gdet_sigma(big, sigma), rhs)
                # homogeneous power law
                xd2, yd2 = rng.choice(evens), rng.choice(evens)
                xh = rand_matrix(rng, alg, nu, xd2)
                yh = rand_matrix(rng, alg, nu, yd2)
                report.compare(
                    _tag(xh, yh), gdet_sigma(matmul(xh, yh), sigma),
                    (gdet_sigma(xh, sigma) * gdet_sigma(yh, sigma))
                    * _value_power(sigma, xd2, yd2, k))
                # inverse law
                try:
                    xi = rand_invertible(rng, alg, nu, rng.choice(evens))
                except MissingUnit:
                    xi = rand_invertible(rng, alg, nu, zero)
                xdeg = xi.degree_of()
                report.compare(
                    _tag(xi), gdet_sigma(invert_matrix(xi), sigma),
                    invert_element(gdet_sigma(xi, sigma))
                    * _value_power(sigma, xdeg, xdeg, k))
                # scalar law
                at = rng.choice(evens)
                a = rand_component(rng, alg, at, nonzero=True)
                xs = rand_matrix(rng, alg, nu, xd2)
                an = alg.one()
                for _ in range(n):
                    an = an * a
                rhs = (an * gdet_sigma(xs, sigma)) \
                    * (_value_power(sigma, at, at, k // 2)
                       * _value_power(sigma, at, xd2, k))
                report.compare(_tag(xs), gdet_sigma(scalar_action(a, xs),
                                                    sigma), rhs)
    return report


def sweep_permutation_matrices(seed=0):
    rng = make_rng(f"{seed}:permutations")
    report = SweepReport("permutation_matrices")
    alg = preset("quaternions")
    s3 = list(itertools.permutations(range(3)))
    for _ in range(6):
        nu = rand_degrees(rng, alg, 3)
        mats = {pi: permutation_matrix(alg, pi, nu) for pi in s3}
        for pi in s3:
            report.compare(f"sign {pi}",
                           alg.from_scalar(permutation_sign(pi)),
                           gdet0(mats[pi]))
        for pi in s3:
            for tau in s3:
                comp = tuple(pi[tau[j]] for j in range(3))
                report.compare(f"morphism {pi}*{tau}", mats[comp],
                               matmul(mats[pi], mats[tau]))
        for _ in range(3):
            x = rand_matrix(rng, alg, nu)
            base = gdet0(x)
            for pi in s3:
                report.compare(
                    _tag(x), alg.from_scalar(permutation_sign(pi)) * base,
                    gdet0(matmul(mats[pi], x)))
    return report


def sweep_crossed_route(seed=0):
    rng = make_rng(f"{seed}:crossed")
    report = SweepReport("crossed_product_route")
    algebras = [preset("quaternions")]
    algebras.extend(preset("clifford", p, q)
                    for p in range(4) for q in range(4 - p) if p + q)
    for alg in algebras:
        for _ in range(5):
            n = rng.choice((1, 2, 3))
            nu = rand_parity_constant_degrees(rng, alg, n)
            x = rand_matrix(rng, alg, nu)
            report.compare(_tag(x), gdet0(x), gdet0_via_crossed(x))
    # degrees without units in the algebra force the adjoined-units path
    dual = preset("dual_numbers", 2)
    evens, _ = parity_split(dual)
    for _ in range(5):
        n = rng.choice((2, 3))
        nu = tuple(rng.choice(evens) for _ in range(n))
        x = rand_matrix(rng, dual, nu)
        report.compare(_tag(x), gdet0(x), gdet0_via_crossed(x))
    return report


def sweep_dieudonne(seed=0):
    rng = make_rng(f"{seed}:dieudonne")
    report = SweepReport("dieudonne_diagram")
    alg = preset("quaternions")
    elems = sorted_degrees(alg)
    for _ in range(100):
        n = rng.choice((2, 3))
        nu = tuple(rng.choice(elems) for _ in range(n))
        x = rand_invertible(rng, alg, nu, rng.choice(elems))
        report.absorb(dieudonne_norm_check(x))
    return report


def sweep_trace(seed=0):
    rng = make_rng(f"{seed}:trace")
    report = SweepReport("trace_laws")
    for alg in _main_presets():
        pool = sorted_degrees(alg)
        for _ in range(30):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            mu = rand_degrees(rng, alg, m)
            nu = rand_degrees(rng, alg, n)
            xd, yd = rng.choice(pool), rng.choice(pool)
            x = rand_matrix(rng, alg, nu, xd, mu=mu)
            y = rand_matrix(rng, alg, mu, yd, mu=nu)
            report.compare(_tag(x, y), graded_trace(matmul(x, y)),
                           graded_trace(matmul(y, x))
                           * alg.lam.value(xd, yd))
        for _ in range(20):
            n = rng.randint(1, 4)
            nu = rand_degrees(rng, alg, n)
            x = rand_matrix(rng, alg, nu, rng.choice(pool))
            y = rand_matrix(rng, alg, nu, rng.choice(pool))
            report.compare(_tag(x, y), graded_trace(x) + graded_trace(y),
                           graded_trace(x + y))
            a = rand_component(rng, alg, rng.choice(pool))
            report.compare(_tag(x), a * graded_trace(x),
                           graded_trace(scalar_action(a, x)))
            r0, r1 = superrank(alg.lam, nu)
            report.compare(f"identity {nu!r}", alg.from_scalar(r0 - r1),
                           graded_trace(identity(alg, nu)))
    return report


def sweep_row_decomposition(seed=0):
    rng = make_rng(f"{seed}:row-decomposition")
    report = SweepReport("row_decomposition")
    for alg in (preset("quaternions"), preset("clifford", 1, 1)):
        sigmas = all_ns_multipliers(alg.lam)
        evens, _ = parity_split(alg)
        for _ in range(15):
            n = rng.choice((1, 2, 3))
            nu = tuple(rng.choice(evens) for _ in range(n))
            x = rand_matrix(rng, alg, nu, rng.choice(evens))
            if rng.random() < 0.5:
                x = x + rand_matrix(rng, alg, nu, rng.choice(evens))
            sigma = rng.choice(sigmas)
            report.compare(_tag(x), gdet_sigma(x, sigma),
                           gdet_via_row_decomposition(x, sigma))
    return report


def _components_route(x, sigma, r0, r1, xdeg):
    """ber_super of J_sigma(X) reassembled in the base algebra with the
    degree prefactor written out explicitly."""
    comp0, comp1 = ber_super_components(j_sigma(x, sigma))
    exp = (-r1 * (r0 - r1) * sigma.exponent(xdeg, xdeg)) % sigma.root_order
    alg = x.algebra
    return (transport(comp0, alg)
            * invert_element(transport(comp1, alg))) * cyclo(
                exp, sigma.root_order)


def sweep_berezinian(seed=0):
    rng = make_rng(f"{seed}:berezinian")
    report = SweepReport("berezinian")
    algebras = (preset("dual_numbers", 2), preset("grassmann", 2),
                _odd_line_tensor())
    for alg in algebras:
        zero = alg.group.zero()
        sigmas = all_ns_multipliers(alg.lam)
        # group morphism on GL0 pairs
        for _ in range(20):
            r0, r1 = rng.randint(1, 2), rng.randint(1, 2)
            nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
            x = rand_invertible_parity_blocks(rng, alg, nu, r1)
            y = rand_invertible_parity_blocks(rng, alg, nu, r1)
            report.compare(_tag(x, y), gber0(matmul(x, y)),
                           gber0(x) * gber0(y))
        # UDL: reassembly, degree-0 factors of Berezinian one
        for _ in range(6):
            r0, r1 = rng.randint(1, 2), rng.randint(1, 2)
            nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
            x = rand_invertible_parity_blocks(rng, alg, nu, r1)
            u, d, lo = udl(x)
            report.compare(_tag(x), x, matmul(matmul(u, d), lo))
            report.compare(_tag(u), alg.one(), gber0(u))
            report.compare(_tag(lo), alg.one(), gber0(lo))
        # the J_sigma oracle path, with the explicit prefactor split off
        for _ in range(4):
            r0, r1 = rng.randint(1, 2), rng.randint(1, 2)
            nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
            x = rand_invertible_parity_blocks(rng, alg, nu, r1)
            for sigma in sigmas:
                direct = gber(x, sigma)
                report.compare(_tag(x), direct, gber_via_ber_super(x, sigma))
                report.compare(_tag(x), direct,
                               _components_route(x, sigma, r0, r1, zero))
    # nonzero even degree over the odd-line tensor: the prefactor has teeth
    alg = _odd_line_tensor()
    sigmas = all_ns_multipliers(alg.lam)
    unit_evens = [d for d in sorted(unit_degrees(alg),
                                    key=lambda g: g.residues)
                  if d and not parity(alg.lam, d)]
    for _ in range(3):
        xdeg = rng.choice(unit_evens)
        nu = rand_parity_sorted_degrees(rng, alg, 2, 1)
        x = rand_invertible_parity_blocks(rng, alg, nu, 1, degree=xdeg)
        nontrivial = 0
        for sigma in sigmas:
            if (-1 * (2 - 1) * sigma.exponent(xdeg, xdeg)) % sigma.root_order:
                nontrivial += 1
            direct = gber(x, sigma)
            report.compare(_tag(x), direct, gber_via_ber_super(x, sigma))
            report.compare(_tag(x), direct,
                           _components_route(x, sigma, 2, 1, xdeg))
        report.hold(_tag(x), nontrivial > 0,
                    "some sigma makes the prefactor nontrivial")
    # classical 1|1 Berezinian over the rank-2 Grassmann algebra
    gr = preset("grassmann", 2)
    nu = (gr.group.zero(), gr.group.element((1,)))
    for _ in range(5):
        a, beta, gamma, dv = (rand_fraction(rng, nonzero=True)
                              for _ in range(4))
        x = GradedMatrix(gr, nu, nu,
                         [[gr.from_scalar(a),
                           gr.basis_element("xi1") * beta],
                          [gr.basis_element("xi2") * gamma,
                           gr.from_scalar(dv)]])
        want = gr.element({"1": a / dv, "xi12": -beta * gamma / (dv * dv)})
        report.compare(_tag(x), want, gber0(x))
    # block-diagonal and block-unitriangular special values
    for alg in algebras:
        for _ in range(5):
            r0, r1 = rng.randint(1, 2), rng.randint(1, 2)
            nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
            x00 = rand_invertible(rng, alg, nu[:r0])
            x11 = rand_invertible(rng, alg, nu[r0:])
            bd = block_matrix(x00, zero_matrix(alg, nu[:r0], nu[r0:]),
                              zero_matrix(alg, nu[r0:], nu[:r0]), x11)
            report.compare(_tag(bd), gdet0(x00)
                           * invert_element(gdet0(x11)), gber0(bd))
            tm = rand_unitriangular(rng, alg, nu, r0, rng.random() < 0.5)
            report.compare(_tag(tm), alg.one(), gber0(tm))
    # purely even degree vectors reduce to gdet0
    quat = preset("quaternions")
    for _ in range(5):
        nu = rand_degrees(rng, quat, 2)
        x = rand_invertible(rng, quat, nu)
        report.compare(_tag(x), gdet0(x), gber0(x))
    return report


def sweep_matrix_identities(seed=0):
    rng = make_rng(f"{seed}:matrix-identities")
    report = SweepReport("matrix_identities")
    for alg in (preset("quaternions"), preset("dual_numbers", 2)):
        lam = alg.lam
        sigmas = all_ns_multipliers(lam)
        pool = sorted_degrees(alg)
        for _ in range(10):
            n = rng.randint(1, 3)
            nu = rand_degrees(rng, alg, n)
            sigma = rng.choice(sigmas)
            xd, yd = rng.choice(pool), rng.choice(pool)
            x = rand_matrix(rng, alg, nu, xd)
            y = rand_matrix(rng, alg, nu, yd)
            # J of a product of homogeneous matrices
            report.compare(
                _tag(x, y), j_sigma(matmul(x, y), sigma),
                matmul(j_sigma(x, sigma), j_sigma(y, sigma))
                * _value_inv(sigma, xd, yd))
            # one factor of degree 0: no correction
            y0 = rand_matrix(rng, alg, nu)
            xin = x + rand_matrix(rng, alg, nu, rng.choice(pool))
            report.compare(
                _tag(xin, y0), j_sigma(matmul(xin, y0), sigma),
                matmul(j_sigma(xin, sigma), j_sigma(y0, sigma)))
            # J of an inverse
            xi = rand_invertible(rng, alg, nu)
            report.compare(
                _tag(xi), j_sigma(invert_matrix(xi), sigma),
                invert_matrix(j_sigma(xi, sigma)))
            # homogeneity of the scalar action
            a = rand_component(rng, alg, rng.choice(pool), nonzero=True)
            ax = scalar_action(a, x)
            report.hold(_tag(x), ax.is_homogeneous_of(a.degree_of() + xd),
                        "scalar action shifts the degree")
    # J_sigma on the worked 2x2 example
    alg = preset("quaternions")
    jt = alg.group.element((0, 1))
    nu = (alg.group.zero(), jt)
    x = GradedMatrix(alg, nu, nu, [[alg.one(), alg.basis_element("j")],
                                   [alg.basis_element("j"), alg.one()]])
    for sigma in all_ns_multipliers(alg.lam):
        tw = twist(alg, sigma)
        want = GradedMatrix(
            tw, nu, nu,
            [[tw.one(), tw.basis_element("j")],
             [tw.basis_element("j") * _value_inv(sigma, jt, jt), tw.one()]])
        report.compare(_tag(x), want, j_sigma(x, sigma))
    # conjugation invariance and multilinearity of gdet0
    for alg in _main_presets():
        for _ in range(8):
            n = rng.randint(1, 3)
            nu = rand_parity_constant_degrees(rng, alg, n)
            x = rand_matrix(rng, alg, nu)
            p = rand_invertible(rng, alg, nu)
            report.compare(_tag(x, p), gdet0(x),
                           gdet0(matmul(matmul(invert_matrix(p), x), p)))
            a = rand_component(rng, alg, alg.group.zero())
            k = rng.randrange(n)
            scal = diagonal(alg, nu, [alg.one() if i != k else a
                                      for i in range(n)])
            report.compare(_tag(x), a * gdet0(x),
                           gdet0(matmul(scal, x)))
            report.compare(_tag(x), a * gdet0(x),
                           gdet0(matmul(x, scal)))
    # block-diagonal and unitriangular values of gdet0
    for alg in (preset("quaternions"), preset("dual_numbers", 2)):
        for _ in range(6):
            n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
            n = n1 + n2
            # one parity class across both blocks keeps the off-block
            # differences even, so the unitriangular matrix is degree zero
            nu = rand_parity_constant_degrees(rng, alg, n)
            nu1, nu2 = nu[:n1], nu[n1:]
            b1 = rand_matrix(rng, alg, nu1)
            b2 = rand_matrix(rng, alg, nu2)
            bd = block_matrix(b1, zero_matrix(alg, nu1, nu2),
                              zero_matrix(alg, nu2, nu1), b2)
            report.compare(_tag(bd), gdet0(b1) * gdet0(b2), gdet0(bd))
            tm = rand_unitriangular(rng, alg, nu, n1)
            report.compare(_tag(tm), alg.one(), gdet0(tm))
    return report


SUITES = {
    "grading": (sweep_grading,),
    "algebra": (sweep_twisted_tables,),
    "gmatrix": (sweep_matrix_identities, sweep_trace),
    "gdet": (sweep_quaternion_values, sweep_sigma_independence,
             sweep_gdet0_multiplicative, sweep_ordering_formula,
             sweep_gdet_sigma_laws, sweep_permutation_matrices,
             sweep_crossed_route, sweep_dieudonne, sweep_row_decomposition),
    "berezinian": (sweep_berezinian,),
}


def iter_property_sweeps(seed=0, suites=None):
    """Runs the named suites (all by default), yielding each sweep's report
    as soon as it finishes; deterministic for a fixed seed."""
    names = list(SUITES) if suites is None else list(suites)
    for name in names:
        if name not in SUITES:
            raise InvalidParams(
                f"unknown suite {name!r}; available: {sorted(SUITES)}")
        for fn in SUITES[name]:
            yield fn(seed)


def run_property_sweeps(seed=0, suites=None):
    """The reports of iter_property_sweeps as a list."""
    return list(iter_property_sweeps(seed, suites))
