"""det_of_commuting against the Leibniz oracle and against the Fraction
Berkowitz it replaced, gdet0 at n = 12 and 20 through the API and the CLI,
the table products the kernel forms, the size limit of gdet0_leibniz, and
gdet_sigma against the determinant of J_sigma(X) on every branch of the
kernel's conversion."""

import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gradedet import berezinian, gdet
from gradedet.algebra import (AlgebraElement, _dot, _int_residue,
                              _int_table, _operator_column, _table_product,
                              preset, transport, twist)
from gradedet.berezinian import ber_super_components, gber
from gradedet.cli import main
from gradedet.errors import GradedetError, TooLarge
from gradedet.gdet import (LEIBNIZ_MAX_N, all_ns_multipliers,
                           canonical_sigma, det_of_commuting, gdet0,
                           gdet0_leibniz, gdet0_via_crossed, gdet_sigma)
from gradedet.gmatrix import (GradedMatrix, identity, j_sigma,
                              j_sigma_exponents, matmul)
from gradedet.grading import Multiplier, is_ns_multiplier, parity
from gradedet.sampling import (make_rng, parity_split,
                               rand_invertible_parity_blocks, rand_matrix,
                               rand_parity_constant_degrees,
                               rand_parity_sorted_degrees)
from gradedet.scalars import CycloScalar, cyclo, euler_phi, rational
from gradedet.serialize import format_matrix, parse_algebra, result_doc

from full_system import decoded_schur, leibniz_det_commutative

PRESETS = [("quaternions",), ("clifford", 2, 1), ("dual_numbers", 2),
           ("grassmann", 4), ("clock_shift", 3)]


def _twisted_even(spec):
    """The twist of a preset by its internal multiplier, and the indices of
    its even basis vectors, which span a commutative subalgebra."""
    alg = preset(*spec)
    tw = twist(alg, canonical_sigma(alg))
    evens = [k for k in range(tw.dim) if not parity(alg.lam, tw.degrees[k])]
    return tw, evens


def _element(rng, alg, basis, fill=0.6):
    return alg.element({k: rational(rng.randint(-3, 3)) for k in basis
                        if rng.random() < fill})


def _square(alg, grid):
    zero = alg.group.zero()
    return GradedMatrix(alg, [zero] * len(grid), [zero] * len(grid), grid)


def _agree(y):
    """det_of_commuting equals the Leibniz sum on y; returns the value."""
    got = det_of_commuting(y.entries, y.algebra)
    assert got == leibniz_det_commutative(y)
    return got


@pytest.mark.parametrize("spec", PRESETS, ids=lambda s: ":".join(map(str, s)))
@pytest.mark.parametrize("n", range(6))
def test_matches_leibniz_on_twisted_even_algebras(spec, n):
    tw, evens = _twisted_even(spec)
    rng = random.Random(f"{spec}{n}")
    _agree(_square(tw, [[_element(rng, tw, evens) for _ in range(n)]
                        for _ in range(n)]))


@pytest.mark.parametrize("spec", PRESETS, ids=lambda s: ":".join(map(str, s)))
def test_degenerate_rows(spec):
    tw, evens = _twisted_even(spec)
    rng = random.Random(f"degenerate{spec}")
    for n in (2, 3, 4):
        grid = [[_element(rng, tw, evens) for _ in range(n)]
                for _ in range(n)]
        zero_row = [row[:] for row in grid]
        zero_row[rng.randrange(n)] = [tw.zero()] * n
        assert _agree(_square(tw, zero_row)) == tw.zero()
        equal_rows = [row[:] for row in grid]
        equal_rows[-1] = equal_rows[0]
        assert _agree(_square(tw, equal_rows)) == tw.zero()


def test_nilpotent_entries():
    # even entries without a unit component: products of three vanish in
    # grassmann(4), so the determinant does too from n = 3 on
    tw, evens = _twisted_even(("grassmann", 4))
    nilpotent = [k for k in evens if k != tw.unit_index]
    rng = random.Random("nilpotent")
    for n in range(1, 6):
        grid = [[_element(rng, tw, nilpotent, 0.8) for _ in range(n)]
                for _ in range(n)]
        got = _agree(_square(tw, grid))
        if n >= 3:
            assert got == tw.zero()


@pytest.mark.parametrize("spec", [("dual_numbers", 2), ("grassmann", 2),
                                  ("grassmann", 4)],
                         ids=lambda s: ":".join(map(str, s)))
def test_supercommutative_schur_complement(spec):
    # presets with odd degrees, so that the odd-odd block is not empty
    alg = preset(*spec)
    rng = make_rng(f"schur{spec}")
    for r0, r1 in ((2, 1), (2, 2), (3, 1)):
        nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
        x = rand_invertible_parity_blocks(rng, alg, nu, r1)
        y = j_sigma(x, canonical_sigma(alg))
        blocks, schur = decoded_schur(y)
        assert ber_super_components(y) == (leibniz_det_commutative(schur),
                                           leibniz_det_commutative(blocks.x11))


def test_crossed_route_tensor_algebra(monkeypatch):
    # dual numbers have no units off degree 0, so gdet0_via_crossed takes
    # its determinant over a tensor product with a crossed product
    dn = preset("dual_numbers", 2)
    rng = random.Random("crossed")
    zero = dn.group.zero()
    both = dn.group.element([1, 1])
    cases = []
    for nu in ([zero, both], [both, zero, both], [zero, both, both, zero]):
        x = GradedMatrix(dn, nu, nu, [
            [_element(rng, dn, dn.component_indices(nj - ni), 0.9)
             for nj in nu] for ni in nu])
        cases.append((x, gdet0(x)))
    seen = []

    def recording(entries, algebra):
        seen.append((entries, algebra))
        return det_of_commuting(entries, algebra)

    monkeypatch.setattr(gdet, "det_of_commuting", recording)
    for x, want in cases:
        assert gdet0_via_crossed(x) == want
    assert len(seen) == len(cases)
    for entries, big in seen:
        assert big.dim > dn.dim
        _agree(_square(big, [list(row) for row in entries]))


def _udl(spec, n, seed):
    """(U D L, product of D's diagonal): U, L unitriangular and D diagonal
    with entries in the degree-0 component and a nonzero scalar part, over
    the algebra's even degrees.  gdet0 is multiplicative and 1 on
    unitriangular matrices, so gdet0(U D L) is that product."""
    alg = preset(*spec)
    rng = random.Random(seed)
    evens = sorted((d for d in alg.realized_degrees()
                    if not parity(alg.lam, d)), key=lambda d: d.residues)
    nu = [rng.choice(evens) for _ in range(n)]
    zero = alg.group.zero()
    diag = [alg.one() * rng.choice((-3, -2, -1, 1, 2, 3))
            + _element(rng, alg, [k for k in alg.component_indices(zero)
                                  if k != alg.unit_index])
            for _ in range(n)]

    def triangular(upper):
        grid = [list(row) for row in identity(alg, nu).entries]
        for i in range(n):
            for j in range(i + 1, n):
                r, c = (i, j) if upper else (j, i)
                grid[r][c] = _element(
                    rng, alg, alg.component_indices(nu[c] - nu[r]), 0.5)
        return GradedMatrix(alg, nu, nu, grid)

    d = GradedMatrix(alg, nu, nu, [[diag[i] if i == j else alg.zero()
                                    for j in range(n)] for i in range(n)])
    x = matmul(matmul(triangular(True), d), triangular(False))
    product = alg.one()
    for e in diag:
        product = product * e
    return x, product


@pytest.mark.parametrize("spec, n", [(("quaternions",), 20),
                                     (("grassmann", 4), 12)],
                         ids=["quaternions-20", "grassmann4-12"])
def test_large_gdet0_through_api_and_cli(spec, n, tmp_path, capsys):
    x, product = _udl(spec, n, f"large{spec}")
    assert x.nrows == n
    assert gdet0(x) == product
    path = tmp_path / "x.json"
    path.write_text(json.dumps(format_matrix(x)))
    algebra = "preset:" + ":".join(
        [spec[0]] + ([",".join(map(str, spec[1:]))] if spec[1:] else []))
    code = main(["gdet0", "--algebra", algebra, "--matrix", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"] == result_doc(product, {})["result"]


def test_leibniz_refuses_large_n():
    q = preset("quaternions")
    n = LEIBNIZ_MAX_N + 1
    x = identity(q, [q.group.zero()] * n)
    start = time.perf_counter()
    with pytest.raises(TooLarge) as info:
        gdet0_leibniz(x)
    assert time.perf_counter() - start < 1
    assert isinstance(info.value, GradedetError)
    assert info.value.exit_code == 3
    assert str(LEIBNIZ_MAX_N) in str(info.value)
    # below the limit the sum is still formed
    small = identity(q, [q.group.zero()] * 3)
    assert gdet0_leibniz(small) == q.one()


# The Berkowitz recurrence on the algebra's own table with CycloScalar
# coefficients, which the integer kernel replaced; kept as its reference.

def fraction_berkowitz(entries, algebra):
    n = len(entries)
    if n == 0:
        return algebra.one()
    table = algebra.table
    a = [[e.coeffs for e in row] for row in entries]
    p = [None]
    for r in range(n):
        row = a[r]
        col = [None, row[r]]
        v = [a[i][r] for i in range(r)]
        for k in range(r):
            if k:
                v = [_dot(table, a[i], v) for i in range(r)]
            rv = _dot(table, row, v)
            col.append(rv if k % 2 else {t: -c for t, c in rv.items()})
        nxt = [None]
        for i in range(1 if r < n - 1 else r + 1, r + 2):
            acc = dict(col[i])
            if i <= r:
                for t, c in p[i].items():
                    acc[t] = acc[t] + c if t in acc else c
            for j in range(1, i):
                if col[i - j] and p[j]:
                    _table_product(table, col[i - j], p[j], acc)
            nxt.append(acc)
        p = nxt
    return AlgebraElement(algebra, p[-1])


def _rational_quaternions():
    """The quaternion algebra (1/2, -3) as a JSON document: i^2 = 1/2,
    j^2 = -3, k = ij, so its table carries 1/2, -3, 3/2 and -1/2."""
    lam = preset("quaternions").lam
    a, b = Fraction(1, 2), Fraction(-3)
    rows = {(1, 1): [(0, a)], (2, 2): [(0, b)], (3, 3): [(0, -a * b)],
            (1, 2): [(3, 1)], (2, 1): [(3, -1)], (1, 3): [(2, a)],
            (3, 1): [(2, -a)], (2, 3): [(1, -b)], (3, 2): [(1, b)]}
    for k in range(4):
        rows[0, k] = rows[k, 0] = [(k, 1)]
    return parse_algebra({
        "format": 1, "name": "quaternions(1/2,-3)",
        "group": {"moduli": [2, 2]},
        "lambda": {"root_order": lam.root_order,
                   "exponents": [list(r) for r in lam.exponents]},
        "root_order": 1,
        "basis": [{"label": lab, "degree": d} for lab, d in
                  zip("1ijk", ([0, 0], [1, 0], [0, 1], [1, 1]))],
        "table": {f"{i},{j}": [{"k": k, "c": str(c)} for k, c in cell]
                  for (i, j), cell in rows.items()}})


KERNEL_SPECS = [("quaternions",), ("clifford", 2, 1), ("dual_numbers", 2),
                ("grassmann", 4), ("clock_shift", 3), ("group_algebra", 3),
                ("group_algebra", 4), ("rational_quaternions",)]
ROOT_ORDERS = (1, 2, 3, 4, 6, 12)


def _kernel_algebra(spec):
    if spec == ("rational_quaternions",):
        return _rational_quaternions()
    return preset(*spec)


def _random_multiplier(rng, group, order):
    """A multiplier at root order `order`: exponent e at (i, j) is well
    defined when e m_i = e m_j = 0 mod order."""
    exps = []
    for mi in group.moduli:
        row = []
        for mj in group.moduli:
            g = gcd(order, mi, mj)
            row.append(rng.randrange(g) * (order // g))
        exps.append(row)
    return Multiplier(group, order, exps)


def _random_scalar(rng, order):
    """A random element of Q(zeta_order), fractions included."""
    return CycloScalar(order, [Fraction(rng.randint(-3, 3),
                                        rng.choice((1, 1, 2, 3, 6)))
                               for _ in range(euler_phi(order))])


def _root_orders(entries, algebra):
    orders = {c.order for row in entries for e in row
              for c in e.coeffs.values()}
    orders.update(c.order for row in algebra.table for cell in row
                  for _, c in cell)
    return orders - {1}


@settings(deadline=None, max_examples=200)
@given(spec=st.sampled_from(KERNEL_SPECS),
       twist_order=st.sampled_from((None,) + ROOT_ORDERS),
       entry_order=st.sampled_from(ROOT_ORDERS),
       n=st.integers(0, 6), fill=st.sampled_from((0.15, 0.3, 0.6)),
       seed=st.integers(0, 2 ** 32))
def test_integer_kernel_matches_fraction_berkowitz(spec, twist_order,
                                                   entry_order, n, fill,
                                                   seed):
    # The recurrence is the same sequence of table products in both
    # kernels, so they agree on any entries, commuting or not.
    rng = random.Random(seed)
    alg = _kernel_algebra(spec)
    if twist_order is not None:
        alg = twist(alg, _random_multiplier(rng, alg.group, twist_order))
    # grassmann:4 has 16 basis vectors: keep its entries sparse
    fill = fill / 4 if alg.dim > 9 else fill
    entries = [[alg.element({k: _random_scalar(rng, entry_order)
                             for k in range(alg.dim) if rng.random() < fill})
                for _ in range(n)] for _ in range(n)]
    got = det_of_commuting(entries, alg)
    want = fraction_berkowitz(entries, alg)
    assert got == want
    if len(_root_orders(entries, alg)) <= 1:
        assert ({k: (c.order, c.coeffs) for k, c in got.coeffs.items()}
                == {k: (c.order, c.coeffs) for k, c in want.coeffs.items()})


def test_zeta_powers_match_sympy_remainder():
    # the integer cells of the kernel's table are zeta powers reduced
    # modulo Phi_N, as integer vectors of length phi(N)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for order in range(1, 25):
        m = euler_phi(order)
        phi = sympy.cyclotomic_poly(order, x)
        for e in range(2 * order + 1):
            want = sympy.Poly(sympy.rem(x ** e, phi, x), x).all_coeffs()
            want = [int(c) for c in reversed(want)]
            want += [0] * (m - len(want))
            got = _int_residue(cyclo(e, order), order, 1)
            assert got + [0] * (m - len(got)) == want


def _zeroed(rng, alg, entries, rows, cols):
    """entries with `rows` random rows and `cols` random columns set to
    zero.  A zero column j with a nonzero row j leaves the scatter
    operator columns of j empty while A^k S still reaches index j."""
    n = len(entries)
    for i in rng.sample(range(n), min(rows, n)):
        entries[i] = [alg.zero()] * n
    for j in rng.sample(range(n), min(cols, n)):
        for row in entries:
            row[j] = alg.zero()
    return entries


@settings(deadline=None, max_examples=25)
@given(spec=st.sampled_from(KERNEL_SPECS),
       entry_order=st.sampled_from(ROOT_ORDERS),
       n=st.integers(7, 10), fill=st.sampled_from((0.1, 0.2, 0.3)),
       rows=st.integers(0, 2), cols=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32))
def test_integer_kernel_matches_fraction_berkowitz_large_sparse(
        spec, entry_order, n, fill, rows, cols, seed):
    # sizes up to 10 with sparse entries and some zero rows and columns
    rng = random.Random(seed)
    alg = _kernel_algebra(spec)
    fill = fill / 4 if alg.dim > 9 else fill
    entries = _zeroed(rng, alg, [
        [alg.element({k: _random_scalar(rng, entry_order)
                      for k in range(alg.dim) if rng.random() < fill})
         for _ in range(n)] for _ in range(n)], rows, cols)
    assert det_of_commuting(entries, alg) == fraction_berkowitz(entries, alg)


def test_integer_kernel_on_a_json_algebra_with_denominators():
    # the table constants 1/2 and 3/2 put T = 2 into the scale
    # D^n T^(n-1), and the entries' own fractions put D > 1 there too
    alg = _rational_quaternions()
    assert _int_table(alg, 1)[1] == 2
    rng = random.Random("denominators")
    for n, rows, cols in ((4, 0, 0), (7, 1, 1), (10, 0, 2), (10, 1, 0)):
        entries = _zeroed(rng, alg, [
            [alg.element({k: rational(Fraction(rng.randint(-3, 3),
                                               rng.choice((1, 2, 3))))
                          for k in range(alg.dim) if rng.random() < 0.5})
             for _ in range(n)] for _ in range(n)], rows, cols)
        want = fraction_berkowitz(entries, alg)
        assert det_of_commuting(entries, alg) == want


def test_matvecs_form_no_table_products(monkeypatch):
    # only the Toeplitz combination forms products through _table_product:
    # at most j < i <= r + 1 per step r, and i = n alone at the last step,
    # which is 129 at n = 10
    calls = []

    def counting(table, left, right, acc):
        calls.append(None)
        return _table_product(table, left, right, acc)

    n = 10
    x, product = _udl(("quaternions",), n, "count")
    for module in ("gradedet.algebra", "gradedet.gdet"):
        monkeypatch.setattr(f"{module}._table_product", counting)
    assert gdet0(x) == product
    toeplitz = sum(r * (r + 1) // 2 for r in range(n - 1)) + n - 1
    assert toeplitz == 129
    assert 0 < len(calls) <= toeplitz


@pytest.mark.parametrize("spec, order", [(("quaternions",), 1),
                                         (("clock_shift", 3), 3)])
def test_operator_column_is_the_table_product(spec, order):
    # column j*E + b holds a[i][j] e_b for every row i, each at i*E + t
    rng = random.Random(f"operator column {spec} {order}")
    alg = preset(*spec)
    _, _, table = _int_table(alg, order)
    size = len(table)
    n = 3
    a = [[{t: rng.choice((-3, -2, -1, 1, 2, 3)) for t in range(size)
           if rng.random() < 0.4} for _ in range(n)] for _ in range(n)]
    for key in range(n * size):
        j, b = divmod(key, size)
        col = _operator_column(a, table, key)
        assert [t for t, _ in col] == sorted({t for t, _ in col})
        want = {i * size + t: c for i in range(n)
                for t, c in _table_product(table, a[i][j], {b: 1}, {}).items()
                if c}
        assert {t: c for t, c in col if c} == want


def test_every_determinant_reaches_berkowitz(monkeypatch):
    # det_of_commuting is _int_entries + _berkowitz + _decode; gber runs
    # _berkowitz on its own conversion, once per diagonal block
    calls = []

    def recording(name, fn):
        def record(*args):
            calls.append(name)
            return fn(*args)
        return record

    wrapped = {name: recording(name, getattr(gdet, name))
               for name in ("_berkowitz", "det_of_commuting")}
    for module in (gdet, berezinian):
        for name, fn in wrapped.items():
            monkeypatch.setattr(module, name, fn)
    q = preset("quaternions")
    sigma = canonical_sigma(q)
    j = q.basis_element("j")
    nu = [q.group.zero(), j.degree_of()]
    x = GradedMatrix(q, nu, nu, [[q.one(), j], [j * 3, q.one() * 2]])
    routes = [lambda: gdet0(x), lambda: gdet_sigma(x, sigma),
              lambda: ber_super_components(j_sigma(x, sigma)),
              lambda: gdet0_via_crossed(x)]
    for route in routes:
        calls.clear()
        route()
        assert "det_of_commuting" in calls and "_berkowitz" in calls
    calls.clear()
    gber(x, sigma)
    assert calls == ["_berkowitz"]
    dn = preset("dual_numbers", 2)
    eps1 = dn.basis_element("eps1")
    nu = [dn.group.zero(), eps1.degree_of()]
    calls.clear()
    gber(GradedMatrix(dn, nu, nu, [[dn.one(), eps1], [eps1, dn.one()]]),
         canonical_sigma(dn))
    assert calls == ["_berkowitz", "_berkowitz"]


def _branch_cases():
    """(algebra, sigma) pairs whose J_sigma factors are 1, -1 and, on
    clock_shift(3), other cube roots of unity; there sigma also appears at
    root order 6 and times a symmetric bicharacter of order 3."""
    q = preset("quaternions")
    cases = [(q, s) for s in all_ns_multipliers(q.lam)[::3]]
    cs = preset("clock_shift", 3)
    base = all_ns_multipliers(cs.lam)[0]
    symmetric = [[1, 2], [2, 0]]
    widened = Multiplier(cs.group, 3, [
        [(e + s) % 3 for e, s in zip(row, srow)]
        for row, srow in zip(base.exponents, symmetric)])
    assert is_ns_multiplier(cs.lam, widened)
    cases += [(cs, base), (cs, base.at_order(6)), (cs, widened)]
    gr = preset("grassmann", 4)
    cases += [(gr, s) for s in all_ns_multipliers(gr.lam)]
    return cases


def test_conversion_branches_at_det_large_sizes():
    # the kernel's conversion keeps a rational coefficient with factor +-1
    # as one int and writes out the others; J_sigma(X) over the twist,
    # taken through det_of_commuting, is the reference
    rng = make_rng("conversion branches")
    seen = set()
    for alg, sigma in _branch_cases():
        # grassmann(4) has 16 basis vectors and no nonzero even degree
        sparse = alg.dim > 9
        evens, _ = parity_split(alg)
        degrees = [alg.group.zero()] + [d for d in evens if d][-1:]
        for n in ((7,) if sparse else (8, 10)):
            nu = rand_parity_constant_degrees(rng, alg, n)
            for degree in degrees:
                entries = [[e if not sparse or rng.random() < 0.4
                            else alg.zero() for e in row]
                           for row in rand_matrix(rng, alg, nu,
                                                  degree).entries]
                if alg.name == "clock_shift(3)":
                    # a coefficient of root order 4 takes the residue
                    # branch whatever its factor
                    entries[0][0] = entries[0][0] * cyclo(1, 4)
                x = GradedMatrix(alg, nu, nu, entries)
                want = transport(det_of_commuting(
                    j_sigma(x, sigma).entries, twist(alg, sigma)), alg)
                got = gdet_sigma(x, sigma)
                assert got == want and repr(got) == repr(want)
                order = sigma.root_order
                grid = j_sigma_exponents(alg.degrees, nu, sigma)
                for row, erow in zip(x.entries, grid):
                    for e, ex in zip(row, erow):
                        for k, c in e.coeffs.items():
                            seen.add("1" if not ex[k] else "-1"
                                     if 2 * ex[k] == order else "other")
                            if c.order > 1:
                                seen.add("power")
                            elif c.coeffs[0].denominator > 1:
                                seen.add("fraction")
    assert seen == {"1", "-1", "other", "fraction", "power"}
