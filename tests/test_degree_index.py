"""The input checks of the determinants on the algebra's degree index,
against references written with GroupElement arithmetic."""

from hypothesis import given, settings, strategies as st

from gradedet import algebra, gdet, gmatrix
from gradedet.algebra import degree_index, preset, twist
from gradedet.errors import NotDegreeZero, OddEntries
from gradedet.gdet import (_require_degree_zero, _require_even,
                           all_ns_multipliers)
from gradedet.gmatrix import GradedMatrix
from gradedet.grading import (Bicharacter, GradingGroup, GroupElement,
                              Multiplier, parity)
from gradedet.sampling import make_rng, rand_matrix
from gradedet.serialize import FORMAT, parse_algebra


def _truncated_z5():
    """Q[t]/(t^5) graded by Z_5 with deg t = 1, as an algebra document."""
    table = {f"{i},{j}": [{"k": i + j, "c": "1"}]
             for i in range(5) for j in range(5) if i + j < 5}
    return parse_algebra({
        "format": FORMAT, "name": "truncated_z5",
        "group": {"moduli": [5]},
        "lambda": {"root_order": 1, "exponents": [[0]]},
        "root_order": 1,
        "basis": [{"label": "1" if i == 0 else f"t{i}", "degree": [i]}
                  for i in range(5)],
        "table": table})


Z22 = GradingGroup([2, 2])
ALGEBRAS = [
    preset("quaternions"), preset("clifford", 2, 1),
    preset("dual_numbers", 2), preset("grassmann", 3),
    preset("group_algebra", 2, 3),
    preset("crossed_product", Z22, Multiplier(Z22, 2, [[1, 1], [0, 1]])),
    # -mu != mu here, so the orientation x - mu_i + nu_j matters
    preset("clock_shift", 3),
    _truncated_z5(),
]


def reference_is_homogeneous_of(x, target):
    """Every stored e_k of entry (i,j) has deg e_k = target - mu_i + nu_j."""
    degrees = x.algebra.degrees
    return all(degrees[k] == target - mu + nu
               for mu, row in zip(x.row_degrees, x.entries)
               for nu, e in zip(x.col_degrees, row)
               for k in e.coeffs)


def reference_require_even(x, what):
    """Every entry component, then every homogeneous component of degree
    deg e_k + mu_i - nu_j, must be even; the first failure raises."""
    alg = x.algebra
    lam, degrees = alg.lam, alg.degrees
    for i, row in enumerate(x.entries):
        for j, e in enumerate(row):
            for k in e.coeffs:
                if parity(lam, degrees[k]):
                    raise OddEntries(
                        f"{what}: entry ({i},{j}) has an odd-degree "
                        f"component {alg.labels[k]}; expansion order "
                        "would matter")
    for mu, row in zip(x.row_degrees, x.entries):
        for nu, e in zip(x.col_degrees, row):
            for k in e.coeffs:
                d = degrees[k] + mu - nu
                if parity(lam, d):
                    raise OddEntries(
                        f"{what}: homogeneous component of odd degree {d!r}")


def reference_require_degree_zero(x, what):
    if not reference_is_homogeneous_of(x, x.algebra.group.zero()):
        raise NotDegreeZero(f"{what} needs a homogeneous matrix of degree 0, "
                            f"got degree {x.degree_of()!r}")


def outcome(check, *args):
    """None, or the type and message of what check raised."""
    try:
        check(*args)
    except (OddEntries, NotDegreeZero) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def checked_inputs(draw):
    """(x, target): a matrix of up to 4x4 whose column degree vector is
    its row degree vector, another one of the same length, or any; its
    entries are homogeneous of degree target, homogeneous of a degree
    drawn per entry, or arbitrary combinations."""
    alg = draw(st.sampled_from(ALGEBRAS))
    group = alg.group
    elements = list(group.elements())
    degree = st.sampled_from(elements)
    mu = draw(st.lists(degree, max_size=4))
    nu = draw(st.one_of(st.just(mu), st.lists(degree, max_size=4),
                        st.lists(degree, min_size=len(mu),
                                 max_size=len(mu))))
    target = draw(degree)
    shape = draw(st.sampled_from(("homogeneous", "entrywise", "any")))
    coeff = st.integers(-3, 3).filter(bool)
    rows = []
    for m in mu:
        row = []
        for n in nu:
            if shape == "any" or (shape == "entrywise"
                                  and draw(st.booleans())):
                pool = range(alg.dim)
            else:
                d = target if shape == "homogeneous" else draw(degree)
                pool = alg.component_indices(d - m + n)
            ks = draw(st.lists(st.sampled_from(pool), max_size=3,
                               unique=True)) if pool else []
            row.append(alg.element({k: draw(coeff) for k in ks}))
        rows.append(row)
    return GradedMatrix(alg, mu, nu, rows), target


@settings(deadline=None, max_examples=400)
@given(checked_inputs())
def test_checks_match_the_group_element_reference(case):
    x, target = case
    assert x.is_homogeneous_of(target) == \
        reference_is_homogeneous_of(x, target)
    assert outcome(_require_even, x, "check") == \
        outcome(reference_require_even, x, "check")
    assert outcome(_require_degree_zero, x, "check") == \
        outcome(reference_require_degree_zero, x, "check")


def test_the_reference_draws_every_outcome():
    """The drawn inputs are homogeneous and not, pass and fail each
    check."""
    seen = set()

    @settings(deadline=None, max_examples=300, database=None)
    @given(checked_inputs())
    def collect(case):
        x, target = case
        seen.add(("homogeneous", reference_is_homogeneous_of(x, target)))
        got = outcome(reference_require_even, x, "check")
        seen.add(("odd entry", None if got is None else "entry" in got[1]))

    collect()
    assert seen >= {("homogeneous", True), ("homogeneous", False),
                    ("odd entry", None), ("odd entry", True),
                    ("odd entry", False)}


def test_index_numbers_each_degree_once():
    alg = preset("clock_shift", 3)
    index = degree_index(alg)
    assert index is degree_index(alg)
    # zero first, which is deg e_0, then the basis degrees in basis order
    assert index.basis == list(range(alg.dim))
    a, b = index.basis[1], index.basis[2]
    deg = alg.degrees
    assert index.add(a, b) == index.number(deg[1] + deg[2])
    assert index.number(GroupElement(alg.group, deg[1].residues)) == a
    assert len(index._degrees) == alg.dim  # clock_shift:3 fills Z_3 x Z_3


def test_a_twist_shares_its_base_algebras_index():
    # the same group and basis degrees, and lambda^sigma(x,x) =
    # lambda(x,x) keeps every parity
    twisted = 0
    for alg in ALGEBRAS:
        index = degree_index(alg)
        for sigma in all_ns_multipliers(alg.lam)[-1:]:
            tw = twist(alg, sigma)
            assert degree_index(tw) is index
            assert degree_index(twist(tw, sigma)) is index
            assert [index.parity(index.number(d)) for d in tw.degrees] == [
                parity(tw.lam, d) for d in tw.degrees]
            twisted += 1
    assert twisted == len(ALGEBRAS)


def test_warm_checks_form_no_degree(monkeypatch):
    """On a warm algebra, the degree and parity checks of a 10x10
    clifford:2,1 matrix with 5 distinct degrees form no GroupElement and
    call neither parity nor Bicharacter.exponent."""
    alg = preset("clifford", 2, 1)
    pool = sorted(alg.realized_degrees(), key=lambda d: d.residues)[:5]
    nu = [pool[i % 5] for i in range(10)]
    x = rand_matrix(make_rng("warm-checks"), alg, nu)
    assert len(set(x.col_degrees)) == 5
    _require_degree_zero(x, "warm")
    _require_even(x, "warm")
    calls = []

    def spy(name, fn):
        def spied(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spied

    init = GroupElement.__init__
    monkeypatch.setattr(GroupElement, "__init__", spy("GroupElement", init))
    monkeypatch.setattr(Bicharacter, "exponent",
                        spy("exponent", Bicharacter.exponent))
    for module in (algebra, gdet, gmatrix):
        monkeypatch.setattr(module, "parity", spy("parity", module.parity))
    _require_degree_zero(x, "warm")
    _require_even(x, "warm")
    assert calls == []

