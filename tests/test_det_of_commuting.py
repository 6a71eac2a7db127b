"""det_of_commuting against the Leibniz oracle, gdet0 at n = 12 and 20
through the API and the CLI, and the size limit of gdet0_leibniz."""

import json
import random
import time

import pytest

from gradedet import gdet
from gradedet.algebra import preset, twist
from gradedet.berezinian import _schur, ber_super_components
from gradedet.cli import main
from gradedet.errors import GradedetError, TooLarge
from gradedet.gdet import (LEIBNIZ_MAX_N, canonical_sigma, det_of_commuting,
                           gdet0, gdet0_leibniz, gdet0_via_crossed)
from gradedet.gmatrix import GradedMatrix, identity, j_sigma, matmul
from gradedet.grading import parity
from gradedet.oracles import leibniz_det_commutative
from gradedet.sampling import (make_rng, rand_invertible_parity_blocks,
                               rand_parity_sorted_degrees)
from gradedet.scalars import rational
from gradedet.serialize import format_matrix, result_doc

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
        _, blocks, _, schur = _schur(y, "test")
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
