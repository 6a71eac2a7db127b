"""Structure-constant algebras: presets, validation, tensor, inversion."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from gradedet import scalars
from gradedet.algebra import (INHOMOGENEOUS, _int_table, _normalize_structure,
                              _table_product, _validate_algebra,
                              crossed_unit, det_gauss, even_crossed_product,
                              graded_tensor, invert_element,
                              left_regular_matrix, make_algebra, preset,
                              solve_linear, tensor_embed_left,
                              tensor_embed_right, tensor_factors,
                              tensor_project_left, transport, twist,
                              unit_degrees, unit_witness)
from gradedet.errors import (DegreeViolation, GradedetError, InvalidParams,
                             MixedAlgebras, NoUnit, NotAssociative,
                             NotInvertible, NotLambdaCommutative)
from gradedet.gdet import canonical_sigma
from gradedet.grading import (Bicharacter, GradingGroup, Multiplier, parity,
                              solve_ns_multiplier, trivial_multiplier)
from gradedet.oracles import printed_quaternion_multipliers
from gradedet.scalars import MINUS_ONE, ONE, ZERO, CycloScalar, cyclo, rational
from gradedet.serialize import FORMAT, format_algebra, parse_algebra

Q = preset("quaternions")
I, J, K = (Q.basis_element(s) for s in "ijk")


def test_quaternion_table():
    one = Q.one()
    assert I * I == -one and J * J == -one and K * K == -one
    assert I * J == K and J * I == -K
    assert J * K == I and K * J == -I
    assert K * I == J and I * K == -J
    assert I * J * K == -one


def test_quaternion_degrees():
    assert Q.group.moduli == (2, 2)
    assert I.degree_of().residues == (1, 0)
    assert J.degree_of().residues == (0, 1)
    assert K.degree_of().residues == (1, 1)
    assert (I + J).degree_of() is INHOMOGENEOUS
    assert Q.zero().degree_of() == Q.group.zero()


def test_lambda_commutativity_of_presets():
    for alg in (Q, preset("dual_numbers", 2), preset("grassmann", 2),
                preset("clifford", 1, 1), preset("clock_shift", 3)):
        for i in range(alg.dim):
            a = alg.basis_element(alg.labels[i])
            for j in range(alg.dim):
                b = alg.basis_element(alg.labels[j])
                factor = alg.lam.value(a.degree_of(), b.degree_of())
                assert a * b == (b * a) * factor


def test_clock_shift_root_order():
    cs = preset("clock_shift", 3)
    assert cs.dim == 9
    assert cs.lam.root_order == 3
    assert unit_degrees(cs) == set(cs.group.elements())


def test_preset_cache_and_errors():
    assert preset("quaternions") is preset("quaternions")
    assert preset("clifford", 1, 1) is preset("clifford", 1, 1)
    with pytest.raises(InvalidParams):
        preset("octonions")
    with pytest.raises(InvalidParams):
        preset("clifford", 1)
    with pytest.raises(InvalidParams):
        preset("clock_shift", 0)


def _z1():
    return trivial_multiplier(GradingGroup([1]))


def test_validation_no_unit():
    with pytest.raises(NoUnit) as exc:
        make_algebra([[0], [0]], {}, _z1(), labels=("p", "q"))
    assert "unit" in str(exc.value)


def test_validation_not_associative():
    # a*a = b, a*b = b*a = 1, b*b = 0: (a*b)*b = b but a*(b*b) = 0
    structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                 (1, 0): {1: 1}, (2, 0): {2: 1},
                 (1, 1): {2: 1}, (1, 2): {0: 1}, (2, 1): {0: 1}}
    with pytest.raises(NotAssociative) as exc:
        make_algebra([[0], [0], [0]], structure, _z1(), labels=("1", "a", "b"))
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_validation_ignores_cancelled_terms():
    # Q[Z_3] in the basis 1, b = -1 - g^2, c = -1 - g + g^2: (b*b)*c sums
    # to a c-coefficient of 0 that b*(b*c) never forms, so the two sides
    # agree only once zeros are dropped
    structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                 (1, 0): {1: 1}, (2, 0): {2: 1},
                 (1, 1): {0: -3, 1: -3, 2: -1}, (1, 2): {0: 2},
                 (2, 1): {0: 2}, (2, 2): {0: -6, 1: -2, 2: -3}}
    alg = make_algebra([[0]] * 3, structure, _z1(), labels=("1", "b", "c"))
    lhs = _table_product(alg.table, dict(alg.table[1][1]), {2: ONE}, {})
    rhs = _table_product(alg.table, {1: ONE}, dict(alg.table[1][2]), {})
    assert lhs != rhs and lhs[2] == ZERO and 2 not in rhs


def test_validation_degree_violation():
    lam = trivial_multiplier(GradingGroup([2]))
    structure = {(1, 1): {1: 1}}
    with pytest.raises(DegreeViolation):
        make_algebra([[0], [1]], structure, lam, labels=("1", "a"))


def test_validation_not_commutative():
    # the quaternion table read against the trivial commutation factor
    structure = {}
    for i in range(4):
        for j in range(4):
            cell = Q.table[i][j]
            structure[(i, j)] = {k: c for k, c in cell}
    with pytest.raises(NotLambdaCommutative) as exc:
        make_algebra([[0, 0]] * 4, structure,
                     trivial_multiplier(Q.group), labels=Q.labels)
    assert "i*j" in str(exc.value) or "j*i" in str(exc.value)


def test_element_arithmetic():
    a = Q.one() + I * rational(1, 2)
    b = J - K
    assert a * b == J - K + (I * J) * rational(1, 2) - (I * K) * rational(1, 2)
    assert (a - a) == Q.zero()
    assert a * 2 == Q.one() * 2 + I
    assert -(a - Q.one()) == I * rational(-1, 2)


def test_invert_element():
    a = Q.one() + I
    ainv = invert_element(a)
    assert a * ainv == Q.one()
    assert ainv == (Q.one() - I) * rational(1, 2)
    assert invert_element(J) == -J
    dn = preset("dual_numbers", 2)
    with pytest.raises(NotInvertible):
        invert_element(dn.basis_element("eps1"))
    with pytest.raises(NotInvertible):
        invert_element(Q.zero())
    # unit plus nilpotent is invertible
    u = dn.one() + dn.basis_element("eps1")
    assert u * invert_element(u) == dn.one()


def test_left_regular_matrix():
    m = left_regular_matrix(Q.one())
    assert all(m[i][j] == (ONE if i == j else rational(0))
               for i in range(4) for j in range(4))
    # the regular representation of a quaternion has determinant norm^2
    q = Q.one() * 2 + I - J
    norm = rational(4 + 1 + 1)
    assert det_gauss(left_regular_matrix(q)) == norm * norm


def test_unit_degrees_and_witnesses():
    assert unit_degrees(Q) == set(Q.group.elements())
    dn = preset("dual_numbers", 2)
    assert unit_degrees(dn) == {dn.group.zero()}
    cl = preset("clifford", 1, 1)
    assert len(unit_degrees(cl)) == 4
    for d in unit_degrees(cl):
        w, winv = unit_witness(cl, d)
        assert w.degree_of() == d
        assert w * winv == cl.one()
    assert unit_witness(dn, dn.group.element([1, 0])) is None


def test_graded_tensor_product_rule():
    t = graded_tensor(Q, Q)
    assert t.dim == 16
    # the tensor product is built unvalidated; validate this instance
    assert _validate_algebra(t) == t.unit_index
    a, b = tensor_factors(t)
    assert a is Q and b is Q
    lhs = tensor_embed_right(t, I) * tensor_embed_left(t, J)
    # (1 (x) i)(j (x) 1) = lambda(i~, j~) j (x) i = -(j (x) i)
    rhs = (tensor_embed_left(t, J) * tensor_embed_right(t, I)) * rational(-1)
    assert lhs == rhs
    assert tensor_project_left(t, tensor_embed_left(t, I + K)) == I + K
    with pytest.raises(InvalidParams):
        tensor_project_left(t, tensor_embed_right(t, I))
    with pytest.raises(MixedAlgebras):
        tensor_embed_left(t, preset("dual_numbers", 2).one())
    with pytest.raises(InvalidParams):
        tensor_factors(Q)


def test_even_crossed_product():
    z4_odd = Bicharacter(GradingGroup([4]), 2, [[1]])
    lams = [preset(name, *params).lam for name, params in (
        ("quaternions", ()), ("clifford", (1, 1)), ("dual_numbers", (2,)),
        ("clock_shift", (3,)))]
    for lam in lams + [z4_odd]:
        cp = even_crossed_product(lam)
        assert cp.lam == lam
        realized = {cp.basis_element(s).degree_of() for s in cp.labels}
        assert all(parity(lam, d) == 0 for d in realized)
        # one invertible homogeneous unit per even degree
        evens = {x for x in lam.group.elements() if not parity(lam, x)}
        assert realized == evens
        for d in realized:
            t, tinv = crossed_unit(cp, d)
            assert t.degree_of() == d
            assert t * tinv == cp.one()
    # with no odd degree the cocycle is the upper triangle of lam
    for lam in (lams[0], lams[3]):
        upper = Multiplier(lam.group, lam.root_order,
                           [[0, lam.exponents[0][1]], [0, 0]])
        assert even_crossed_product(lam).table == \
            preset("crossed_product", lam.group, upper).table


def test_twist_validates_and_commutes():
    sigma = printed_quaternion_multipliers()[0]
    tw = twist(Q, sigma, validate=True)
    # all quaternion degrees are even, so the twisted product is commutative
    for la in Q.labels:
        for lb in Q.labels:
            a, b = tw.basis_element(la), tw.basis_element(lb)
            assert a * b == b * a
    assert twist(Q, sigma) is tw


def test_duplicate_targets_in_a_cell_are_summed():
    # products and validation both read a target listed twice as the sum
    # of its constants: i*i written as -2*1 + 1*1 is the preset's -1
    doc = format_algebra(Q)
    doc["table"]["1,1"] = [{"k": 0, "c": "-2"}, {"k": 0, "c": "1"}]
    assert parse_algebra(doc).table == Q.table
    structure = {(i, j): list(Q.table[i][j]) for i in range(Q.dim)
                 for j in range(Q.dim)}
    structure[1, 1] = [(0, rational(-2)), (0, ONE)]
    alg = make_algebra(Q.degrees, structure, Q.lam, Q.labels)
    assert alg.table == Q.table and alg.table[1][1][0][1] is MINUS_ONE
    assert I * I == -Q.one()
    # a sum of zero drops the target
    assert _normalize_structure({(0, 0): [(0, ONE), (0, MINUS_ONE)]},
                                1) == (((),),)


def test_twist_validates_a_cached_twist():
    # validate=True checks a twist taken from the cache as well: the cached
    # table is swapped for the untwisted, noncommutative one, which the
    # twisted (commutative) factor rejects
    fresh = make_algebra(Q.degrees, {(i, j): dict(Q.table[i][j])
                                     for i in range(4) for j in range(4)},
                         Q.lam, Q.labels)
    sigma = printed_quaternion_multipliers()[0]
    twist(fresh, sigma).table = fresh.table
    with pytest.raises(NotLambdaCommutative):
        twist(fresh, sigma, validate=True)


def test_twist_by_solver_multiplier():
    dn = preset("dual_numbers", 2)
    sigma = solve_ns_multiplier(dn.lam)
    tw = twist(dn, sigma, validate=True)
    e1, e2 = tw.basis_element("eps1"), tw.basis_element("eps2")
    # odd generators anticommute in the twisted (super) algebra
    assert e1 * e2 == -(e2 * e1)
    assert e1 * e1 == tw.zero()


def test_transport():
    sigma = printed_quaternion_multipliers()[0]
    tw = twist(Q, sigma)
    moved = transport(I + J * rational(2, 3), tw)
    assert moved.algebra is tw
    assert transport(moved, Q) == I + J * rational(2, 3)
    with pytest.raises(MixedAlgebras):
        transport(I, preset("dual_numbers", 2))


def test_det_gauss():
    m = [[rational(2), rational(1)], [rational(7), rational(4)]]
    assert det_gauss(m) == ONE
    assert det_gauss([[rational(0)]]) == rational(0)
    assert det_gauss([]) == ONE


# ---------------------------------------------------------------------------
# the table product against the definition

def _quadratic_json():
    """Q(sqrt 2, sqrt(-1/2)) as a JSON algebra document: basis e_(a,b) over
    Z_2 x Z_2 with trivial commutation factor and
    e_(a,b) e_(c,d) = 2^(ac) (-1/2)^(bd) e_(a+c,b+d), so its structure
    constants are 1, 2, -1/2 and -1."""
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    table = {}
    for i, (a, b) in enumerate(elems):
        for j, (c, d) in enumerate(elems):
            k = elems.index(((a + c) % 2, (b + d) % 2))
            value = Fraction(2) ** (a * c) * Fraction(-1, 2) ** (b * d)
            table[f"{i},{j}"] = [{"k": k, "c": str(value)}]
    doc = {"format": FORMAT, "name": "quadratic",
           "group": {"moduli": [2, 2]},
           "lambda": {"root_order": 2, "exponents": [[0, 0], [0, 0]]},
           "basis": [{"label": f"e{a}{b}", "degree": [a, b]}
                     for a, b in elems],
           "table": table}
    return parse_algebra(json.loads(json.dumps(doc)))


def _product_algebras():
    """Every preset, the JSON algebra above and a twisted clock_shift(3)."""
    cs = preset("clock_shift", 3)
    return [Q, preset("clifford", 2, 1), preset("dual_numbers", 2),
            preset("grassmann", 3), preset("group_algebra", 2, 3),
            preset("crossed_product", GradingGroup([2, 2]),
                   Multiplier(GradingGroup([2, 2]), 2, [[1, 1], [0, 1]])),
            cs, _quadratic_json(), twist(cs, canonical_sigma(cs))]


def _by_definition(a, b):
    """sum over i, j, k of a_i b_j c_ij^k e_k, multiplying in every
    structure constant."""
    acc = {}
    for (i, ai), (j, bj) in itertools.product(a.coeffs.items(),
                                              b.coeffs.items()):
        for k, c in a.algebra.table[i][j]:
            acc[k] = acc.get(k, ZERO) + ai * bj * c
    return a.algebra.element(acc)


def _random_element(rng, alg, order):
    return alg.element({
        k: rational(rng.randint(-4, 4), rng.randint(1, 3))
        + cyclo(1, order) * rng.randint(-2, 2)
        for k in range(alg.dim) if rng.random() < 0.7})


@pytest.mark.parametrize("alg", _product_algebras(), ids=lambda a: a.name)
def test_table_product_matches_definition(alg):
    basis = [alg.basis_element(k) for k in range(alg.dim)]
    for a, b in itertools.product(basis, basis):
        assert a * b == _by_definition(a, b)
    rng = random.Random(alg.name)
    # dense elements, rational and with zeta_3 coefficients, so that terms
    # accumulate on one target and mixed root orders meet
    for order in (1, 3):
        for _ in range(10):
            a = _random_element(rng, alg, order)
            b = _random_element(rng, alg, order)
            assert a * b == _by_definition(a, b)


def test_table_product_interning_changes_only_speed():
    rng = random.Random("interning")
    for alg in _product_algebras():
        constants = [c for row in alg.table for cell in row for _, c in cell]
        assert all(c is ONE or c is MINUS_ONE
                   for c in constants if c in (ONE, MINUS_ONE))
        # the same table with every +-1 constant a fresh, unshared object
        fresh = tuple(tuple(tuple((k, CycloScalar(c.order, c.coeffs))
                                  for k, c in cell) for cell in row)
                      for row in alg.table)
        assert fresh == alg.table
        assert not any(c is ONE or c is MINUS_ONE
                       for row in fresh for cell in row for _, c in cell)
        for _ in range(5):
            a = _random_element(rng, alg, 3)
            b = _random_element(rng, alg, 1)
            assert (_table_product(fresh, a.coeffs, b.coeffs, {})
                    == _table_product(alg.table, a.coeffs, b.coeffs, {}))


# ---------------------------------------------------------------------------
# validation against a brute-force reading of the table

def _first_failure(alg_doc):
    """(NotAssociative, the message's triple) for the first (i, j, k), in
    loop order, with (e_i e_j) e_k != e_i (e_j e_k), multiplying basis
    vectors straight from the document's cells; (None, None) when the
    table is associative."""
    dim = len(alg_doc["basis"])
    labels = [b["label"] for b in alg_doc["basis"]]
    cells = {(i, j): {} for i in range(dim) for j in range(dim)}
    for key, cell in alg_doc["table"].items():
        i, j = (int(v) for v in key.split(","))
        for term in cell:
            cells[i, j][term["k"]] = Fraction(term["c"])

    def times(vec, k, left):
        out = {}
        for t, c in vec.items():
            cell = cells[t, k] if left else cells[k, t]
            for u, d in cell.items():
                out[u] = out.get(u, 0) + c * d
        return {u: c for u, c in out.items() if c}

    for i, j, k in itertools.product(range(dim), repeat=3):
        if times(cells[i, j], k, True) != times(cells[j, k], i, False):
            return NotAssociative, (f"({labels[i]}*{labels[j]})*{labels[k]}"
                                    f" != {labels[i]}*({labels[j]}*"
                                    f"{labels[k]})")
    return None, None


def test_validation_names_the_first_failing_triple():
    # every one-term corruption of a non-unit cell of grassmann:2, signs
    # flipped included: flipping xi1*xi2 or xi2*xi1 keeps the table
    # associative and breaks only lambda-commutativity
    base = format_algebra(preset("grassmann", 2))
    degrees = [b["degree"][0] for b in base["basis"]]
    seen = set()
    for i, j, t in itertools.product(range(1, 4), range(1, 4), range(4)):
        if degrees[t] != (degrees[i] + degrees[j]) % 2:
            continue
        for c in ("1", "-1"):
            doc = json.loads(json.dumps(base))
            doc["table"][f"{i},{j}"] = [{"k": t, "c": c}]
            if doc == base:
                continue
            error, message = _first_failure(doc)
            with pytest.raises((NotAssociative, NotLambdaCommutative)) as exc:
                parse_algebra(doc)
            if error is None:
                assert exc.type is NotLambdaCommutative
            else:
                assert exc.type is NotAssociative
                assert str(exc.value) == f"grassmann(2): {message}"
                seen.add(message)
    # the corruptions reach triples late in the loop order too
    assert "(xi2*xi1)*xi2 != xi2*(xi1*xi2)" in seen
    # a table with non-integer constants (2 and -1/2) still validates
    assert _quadratic_json().dim == 4


def _dict_validate(alg, table):
    """The dict-based validation that ran before the integer table, kept
    as the reference: every check on table, in the same order, over the
    scalar cells."""
    labels, degrees, name, dim = alg.labels, alg.degrees, alg.name, alg.dim
    cells = [[dict(cell) for cell in row] for row in table]
    units = [{k: ONE} for k in range(dim)]
    for i in range(dim):
        for j in range(dim):
            want = degrees[i] + degrees[j]
            for k, c in table[i][j]:
                if degrees[k] != want:
                    raise DegreeViolation(
                        f"{name}: product {labels[i]}*{labels[j]} hits "
                        f"{labels[k]} of degree {degrees[k]!r}, expected "
                        f"{want!r}")
    unit_index = None
    for u in range(dim):
        if all(cells[u][j] == units[j] == cells[j][u] for j in range(dim)):
            unit_index = u
            break
    if unit_index is None:
        raise NoUnit(f"{name}: no basis vector acts as a two-sided unit")
    if degrees[unit_index] != alg.group.zero():
        raise NoUnit(
            f"{name}: unit {labels[unit_index]} has nonzero degree "
            f"{degrees[unit_index]!r}")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = _table_product(table, cells[i][j], units[k], {})
                rhs = _table_product(table, units[i], cells[j][k], {})
                if ({t: c for t, c in lhs.items() if c}
                        != {t: c for t, c in rhs.items() if c}):
                    raise NotAssociative(
                        f"{name}: ({labels[i]}*{labels[j]})*{labels[k]} != "
                        f"{labels[i]}*({labels[j]}*{labels[k]})")
    for i in range(dim):
        for j in range(dim):
            factor = alg.lam.value(degrees[i], degrees[j])
            flipped = {k: factor * c for k, c in table[j][i]}
            if cells[i][j] != {k: c for k, c in flipped.items() if c}:
                raise NotLambdaCommutative(
                    f"{name}: {labels[i]}*{labels[j]} != "
                    f"lambda({degrees[i]!r},{degrees[j]!r}) "
                    f"{labels[j]}*{labels[i]}")
    return unit_index


def _outcome(call):
    try:
        return "ok", call()
    except GradedetError as exc:
        return type(exc).__name__, str(exc)


def _corruptions(alg, i, j):
    """One cell of alg's table, (i, j), with its sign flipped, its targets
    moved, its constants multiplied by zeta_4, and emptied."""
    cell = alg.table[i][j] or ((alg.unit_index, ONE),)
    zeta = cyclo(1, 4)
    return [[(k, -c) for k, c in cell],
            [((k + 1) % alg.dim, c) for k, c in cell],
            [(k, c * zeta) for k, c in cell],
            []]


def test_integer_validation_matches_the_dict_reference():
    # every preset kind, a JSON algebra with denominators, and a twist by
    # a multiplier of root order 3
    cs = preset("clock_shift", 3)
    algebras = [Q, preset("clifford", 1, 1), preset("clifford", 2, 1),
                preset("dual_numbers", 2), preset("grassmann", 3),
                preset("group_algebra", 2, 3),
                preset("crossed_product", GradingGroup([2, 2]),
                       Multiplier(GradingGroup([2, 2]), 2,
                                  [[1, 1], [0, 1]])),
                cs, _quadratic_json(), twist(cs, canonical_sigma(cs))]
    rng = random.Random("corrupt")
    seen = Counter()
    for alg in algebras:
        pairs = list(itertools.product(range(alg.dim), repeat=2))
        if alg.dim > 6:
            pairs = rng.sample(pairs, 8)
        structure = {(i, j): list(alg.table[i][j])
                     for i, j in itertools.product(range(alg.dim), repeat=2)}
        assert _outcome(lambda: _validate_algebra(alg)) == \
            ("ok", alg.unit_index) == _outcome(
                lambda: _dict_validate(alg, alg.table))
        for i, j in pairs:
            for cell in _corruptions(alg, i, j):
                bad = dict(structure)
                bad[i, j] = cell
                got = _outcome(lambda: make_algebra(
                    alg.degrees, bad, alg.lam, alg.labels,
                    name=alg.name).unit_index)
                want = _outcome(lambda: _dict_validate(
                    alg, _normalize_structure(bad, alg.dim)))
                assert got == want
                seen[got[0]] += 1
    assert min(seen[kind] for kind in (
        "ok", "DegreeViolation", "NoUnit", "NotAssociative",
        "NotLambdaCommutative")) > 0


def _fresh_copy(alg):
    return make_algebra(alg.degrees, {(i, j): list(alg.table[i][j])
                                      for i in range(alg.dim)
                                      for j in range(alg.dim)},
                        alg.lam, alg.labels, name=alg.name)


def test_integer_tables_form_no_scalar_products(monkeypatch):
    # powers of zeta are shifts reduced modulo Phi_N on ints, so neither
    # a table at phi(256) = 128 nor validating clock_shift(5), whose
    # constants and lambda values are fifth roots of unity, multiplies
    # two scalars
    quaternions, cs = _fresh_copy(Q), preset("clock_shift", 5)
    calls = Counter()
    mul = scalars.mul

    def counted(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(scalars, "mul", counted)
    order, scale, table = _int_table(quaternions, 256)
    assert (order, scale, len(table)) == (256, 1, 4 * 128)
    assert _fresh_copy(cs).unit_index == cs.unit_index
    assert calls["mul"] == 0


def _full_inverse(a):
    """The inverse from the whole left-regular system, or None."""
    alg = a.algebra
    rhs = [[ONE] if k == alg.unit_index else [ZERO] for k in range(alg.dim)]
    sol = solve_linear(left_regular_matrix(a), rhs)
    if sol is None:
        return None
    return alg.element({k: row[0] for k, row in enumerate(sol)})


def test_invert_element_matches_the_full_solve():
    rng = random.Random("invert")
    seen = Counter()
    for alg in _product_algebras() + [preset("grassmann", 4)]:
        order = 3 if "clock_shift" in alg.name else 1
        samples = [alg.zero(), alg.one() + alg.one()]
        samples += [alg.basis_element(k) for k in range(alg.dim)]
        for indices in alg._components.values():
            for _ in range(3):
                samples.append(alg.element({
                    k: rational(rng.randint(-2, 2)) + cyclo(1, order)
                    for k in indices if rng.random() < 0.7}))
        for _ in range(6):
            samples.append(_random_element(rng, alg, order))
        # 1 plus one more basis vector: a zero divisor in a group algebra
        # over an element of order 2, invertible plus nilpotent otherwise
        samples += [alg.one() + alg.basis_element(k)
                    for k in range(alg.dim) if k != alg.unit_index]
        for a in samples:
            want = _full_inverse(a)
            homogeneous = a.degree_of() is not INHOMOGENEOUS
            if want is None:
                with pytest.raises(NotInvertible):
                    invert_element(a)
            else:
                assert invert_element(a) == want
            seen[homogeneous, want is not None] += 1
    assert min(seen[h, ok] for h in (True, False) for ok in (True, False)) > 0
