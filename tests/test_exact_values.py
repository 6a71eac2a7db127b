"""Exact values of gdet0, gdet_sigma and gber0 on fixed-seed inputs.

`verify` reports instance counts and failures, and every sweep compares two
routes through the same scalar and product code, so a change in that code
that altered exact values consistently on both routes would pass it.  These
literals were recorded once and pin the values themselves.  The
clock_shift(3) inputs have zeta_3 structure constants, the other presets
only +-1 ones.
"""

import random
from math import lcm

import pytest

from gradedet.algebra import preset
from gradedet.berezinian import gber0
from gradedet.gdet import all_ns_multipliers, gdet0, gdet_sigma
from gradedet.gmatrix import GradedMatrix
from gradedet.sampling import parity_split
from gradedet.serialize import format_element

# preset -> (gdet0, gdet_sigma, gber0), rendered by _text
PINNED = {
    ("quaternions",): ("1:1404", "k:1100", "1:508"),
    ("clifford", 2, 1): ("1:215", "e123:14", "1:-296"),
    ("dual_numbers", 2): ("1:-360", "eps12:-252", "1:-1"),
    ("grassmann", 4): (
        "1:915 xi12:766 xi13:5580 xi14:-6812 xi23:-5331 xi24:871 xi34:963 "
        "xi1234:-11439",
        "1:-407 xi12:448 xi13:213 xi14:1196 xi23:3 xi24:2220 xi34:-375 "
        "xi1234:-9044",
        "1:52 xi12:424 xi13:-30 xi14:-217 xi23:-224 xi24:206 xi34:-336 "
        "xi1234:-2288"),
    ("clock_shift", 3): ("t0_0:1423 - 514*z", "t1_1:43 + 113*z",
                         "t0_0:4961 + 5590*z"),
}


def _matrix(rng, alg, nu, degree):
    """A dense homogeneous matrix of the given degree over nu with nonzero
    integer coefficients in [-3, 3]."""
    return GradedMatrix(alg, nu, nu, [
        [alg.element({k: rng.choice((-3, -2, -1, 1, 2, 3))
                      for k in alg.component_indices(degree - mi + nj)})
         for nj in nu] for mi in nu])


def _text(e):
    order = lcm(1, *(c.order for c in e.coeffs.values()))
    return " ".join(f"{t['b']}:{t['c']}" for t in format_element(e, order))


@pytest.mark.parametrize("spec", list(PINNED), ids=lambda s: ":".join(
    str(p) for p in s))
def test_pinned_exact_values(spec):
    name, *params = spec
    alg = preset(name, *params)
    rng = random.Random(f"{name}{tuple(params)}")
    evens, odds = parity_split(alg)
    zero = alg.group.zero()
    nu = tuple(rng.choice(evens) for _ in range(6))
    x = _matrix(rng, alg, nu, zero)
    # n = 5 makes the degree of gdet_sigma(y) nonzero where evens[-1] is
    y = _matrix(rng, alg, nu[:5], evens[-1])
    r1 = min(len(odds), 3)
    nub = (tuple(rng.choice(evens) for _ in range(6 - r1))
           + tuple(rng.choice(odds) for _ in range(r1)))
    z = _matrix(rng, alg, nub, zero)
    sigma = all_ns_multipliers(alg.lam)[-1]
    got = (_text(gdet0(x)), _text(gdet_sigma(y, sigma)), _text(gber0(z)))
    assert got == PINNED[spec]
