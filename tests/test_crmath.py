"""The correctly rounded kernels against mpmath, and the figure bytes against
a perturbed libm.

The reference evaluates each function with mpmath at 320 bits and picks, by
exact comparison, the nearest of the double mpmath converts to and that
double's two neighbours; it shares no code with the kernels' own rounding.
"""

import hashlib
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cavshare import cli, crmath

FUNCTIONS = ("exp", "expm1", "sin", "cos")
FIGURES = ("fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4")
_GOLDEN_DIR = Path(__file__).parent / "golden"

# Figure arguments at which glibc 2.36 (x86-64) misses the nearest double,
# found by comparing math.<name> with the reference over every argument the
# default figures produce.
LIBM_OFF = {
    "exp": ("0x1.6a3d70a3d70a4p+2", "-0x1.0dac3bcb743c5p-2",
            "-0x1.dac7b60c495fep-2"),
    "expm1": ("0x1.5c8ba3a276287p-4", "0x1.da3b2f6ca903fp-4",
              "0x1.501dd95b0481ap-4", "0x1.0000000000000p+0",
              "0x1.d99999999999ap+2", "0x1.eb851eb851eb8p-4",
              "0x1.5c28f5c28f5c3p-2", "0x1.851eb851eb852p-2"),
    "sin": ("0x1.55bebf196358ep+1", "0x1.83ca28327a140p+3"),
    "cos": ("0x1.921fb54442d19p+0", "0x1.1db57e4236a24p+3",
            "0x1.34d3f64f9558ep+2", "0x1.eb51366756533p+2",
            "0x1.109b19f0d8b6bp+4"),
}

EDGES = (
    0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-310, -1e-310,
    2.2250738585072014e-308, 2.0 ** -60, -(2.0 ** -60), 1e-9, 0.5, 1.0,
    math.pi / 2.0, math.pi, 2.0 * math.pi, 6.0 * math.pi, 100.0,
)
# large reductions for sin and cos, expm1 near -1, and exp near the ends of
# the normal and subnormal ranges
PERIODIC_EDGES = (1e6, -1e6, 1e22, -1e22, 2.0 ** 1000)
EXPM1_NEAR_MINUS_ONE = (-36.04365338911715, -37.5, -40.0, -709.0, -745.2,
                        -1e4, 709.78)
EXP_EDGES = (-708.4, -744.44, -745.13, 709.78)


def reference(name: str, x: float) -> float:
    with mpmath.workprec(320):
        exact = getattr(mpmath, name)(mpmath.mpf(x))
        if exact == 0:
            return x  # sin and expm1 of a signed zero keep its sign
        near = float(exact)
        candidates = (math.nextafter(near, -math.inf), near,
                      math.nextafter(near, math.inf))
        return min(candidates, key=lambda c: abs(exact - mpmath.mpf(c)))


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def check(name: str, args) -> None:
    args = np.asarray(args, dtype=np.float64)
    kernel = getattr(crmath, name)
    array_result = kernel(args)
    for x, got in zip(args.tolist(), array_result.tolist()):
        want = reference(name, x)
        assert same_bits(got, want), f"{name}({x!r}) array path {got!r} != {want!r}"
        scalar = kernel(x)
        assert type(scalar) is float
        assert same_bits(scalar, want), f"{name}({x!r}) scalar path {scalar!r} != {want!r}"


@pytest.fixture(scope="module")
def figure_arguments(tmp_path_factory):
    """Every argument each kernel receives while the default figures run."""
    seen = {name: [] for name in FUNCTIONS}
    originals = {name: getattr(crmath, name) for name in FUNCTIONS}

    def recorder(name):
        def call(x):
            seen[name].append(np.ravel(np.asarray(x, dtype=np.float64)))
            return originals[name](x)
        return call

    patch = pytest.MonkeyPatch()
    try:
        for name in FUNCTIONS:
            patch.setattr(crmath, name, recorder(name))
        patch.chdir(tmp_path_factory.mktemp("figures"))
        for figure in FIGURES:
            assert cli.entrypoint(["--figure", figure]) == 0
    finally:
        patch.undo()
    return {name: np.unique(np.concatenate(chunks))
            for name, chunks in seen.items()}


@pytest.mark.parametrize("name", FUNCTIONS)
def test_kernels_match_mpmath_on_every_figure_argument(name, figure_arguments):
    args = figure_arguments[name]
    assert args.size > 0
    check(name, args)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_kernels_match_mpmath_where_libm_is_off(name):
    check(name, [float.fromhex(h) for h in LIBM_OFF[name]])


@pytest.mark.parametrize("name", FUNCTIONS)
def test_kernels_match_mpmath_on_edge_values(name):
    extra = {"expm1": EXPM1_NEAR_MINUS_ONE, "exp": EXP_EDGES}.get(
        name, PERIODIC_EDGES)
    check(name, EDGES + tuple(-x for x in EDGES) + extra)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_mpmath_only_path_gives_the_same_bits(name, monkeypatch):
    # stages 1-2, stage 2 alone (a platform without an extended long double)
    # and stage 2 started at 24 bits, which makes it double its precision
    args = np.linspace(-20.0, 13.0, 97)
    kernel = getattr(crmath, name)
    results = [kernel(args)]
    monkeypatch.setattr(crmath, "_FAST", False)
    results.append(kernel(args))
    monkeypatch.setattr(crmath, "_P", 24)
    results.append(kernel(args))
    assert len({r.tobytes() for r in results}) == 1
    assert same_bits(kernel(0.3), reference(name, 0.3))


@pytest.mark.parametrize("name", FUNCTIONS)
def test_fixed_point_stage_decides_without_mpmath(name, figure_arguments,
                                                  monkeypatch):
    reached = []
    stage2 = crmath._stage2
    monkeypatch.setattr(crmath, "_stage2",
                        lambda name, x: reached.append(x) or stage2(name, x))
    getattr(crmath, name)(figure_arguments[name])
    assert reached  # the figures do leave some arguments to stage 2
    monkeypatch.setattr(crmath, "_stage2", stage2)
    monkeypatch.setattr(crmath, "_FAST", False)  # every argument to stage 2
    draw = np.random.default_rng(1991).uniform(-20.0, 20.0, 2000)
    args = np.concatenate([reached, draw, EDGES, np.negative(EDGES)])
    with monkeypatch.context() as blocked:
        blocked.setitem(sys.modules, "mpmath", None)  # importing it fails
        getattr(crmath, name)(args)
    check(name, args)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_doubling_matches_mpmath_across_the_double_range(name, monkeypatch):
    # Stage 2 alone from 24 bits, where Ziv's test decides no argument, so
    # every one goes through the doubling. Magnitudes are log-uniform from
    # 2^-1074 up; exp and expm1 also run into their saturated ends, and up
    # to the last argument whose result is finite.
    monkeypatch.setattr(crmath, "_FAST", False)
    monkeypatch.setattr(crmath, "_P", 24)
    precisions = set()
    fixed = crmath._fixed
    monkeypatch.setattr(crmath, "_fixed", lambda name, x, p: precisions.add(p)
                        or fixed(name, x, p))
    rng = np.random.default_rng(2022)
    top = 1024.0 if name in ("sin", "cos") else 0.0
    tiny = rng.choice([-1.0, 1.0], 200) * 2.0 ** rng.uniform(-1074.0, top, 200)
    wide = [*rng.uniform(-800.0, 709.78, 100), 709.782712893384] if top == 0.0 else []
    check(name, np.concatenate([tiny, wide]))
    assert {24, 48, 96} <= precisions <= {24 << i for i in range(12)}
    if top == 0.0:
        with pytest.raises(OverflowError):
            getattr(crmath, name)(math.nextafter(709.782712893384, math.inf))


@pytest.mark.parametrize("name", FUNCTIONS)
def test_fixed_point_error_stays_within_its_bound(name, monkeypatch):
    # The module docstring's p + 11 units, times the scale _fixed passes
    # on, against mpmath at precisions low enough to show the error itself.
    seen = []
    decide = crmath._decide
    monkeypatch.setattr(crmath, "_decide", lambda v, err, q: seen.append(
        (v, err, q)) or decide(v, err, q))
    rng = np.random.default_rng(2001)
    args = [*rng.uniform(-20.0, 20.0, 100), *2.0 ** rng.uniform(-60.0, 0.0, 20)]
    if name in ("sin", "cos"):
        args += list(2.0 ** rng.uniform(0.0, 1000.0, 20))
    for p in (24, 48, 96):
        for x in args:
            seen.clear()
            crmath._fixed(name, x, p)
            [(v, err, q)] = seen
            with mpmath.workprec(3 * p + 1200):
                exact = getattr(mpmath, name)(mpmath.mpf(x)) * mpmath.mpf(2) ** q
                assert abs(v - exact) <= err, (x, p)


def test_fixed_point_constants_match_mpmath(monkeypatch):
    # at the precisions sin(2^1000) asks for (its 1001 integer bits plus the
    # working precision), and at a few others
    asked = []
    constant = crmath._constant
    monkeypatch.setattr(crmath, "_constant",
                        lambda name, bits: asked.append(bits)
                        or constant(name, bits))
    assert same_bits(crmath._stage2("sin", 2.0 ** 1000),
                     reference("sin", 2.0 ** 1000))
    assert min(asked) > 1000 + crmath._P
    for bits in (24, 172, 256, 333, 2100, *asked):
        with mpmath.workprec(bits + 64):
            for name, exact in (("ln2", mpmath.ln2), ("pi/2", mpmath.pi / 2)):
                assert constant(name, bits) == int(
                    mpmath.floor(exact * mpmath.mpf(2) ** bits)), bits


def test_special_values_follow_the_math_module():
    for name in FUNCTIONS:
        assert math.isnan(getattr(crmath, name)(math.nan))
    assert crmath.exp(math.inf) == math.inf and crmath.exp(-math.inf) == 0.0
    assert crmath.expm1(-math.inf) == -1.0
    for name in ("sin", "cos"):
        with pytest.raises(ValueError):
            getattr(crmath, name)(math.inf)
        with pytest.raises(ValueError):
            getattr(crmath, name)(np.array([0.0, -math.inf]))
    for name in ("exp", "expm1"):
        with pytest.raises(OverflowError):
            getattr(crmath, name)(710.0)
        with pytest.raises(OverflowError):
            getattr(crmath, name)(np.array([1.0, 710.0]))
    assert crmath.exp(np.zeros((2, 3))).shape == (2, 3)


def test_figures_ignore_the_platform_libm(tmp_path, monkeypatch):
    # a libm one ulp off everywhere must not move a single figure byte
    for name in FUNCTIONS:
        exact = getattr(math, name)
        monkeypatch.setattr(
            math, name,
            lambda x, exact=exact: math.nextafter(exact(x), math.inf))
    assert math.exp(0.0) != 1.0
    monkeypatch.chdir(tmp_path)
    for figure in FIGURES:
        assert cli.entrypoint(["--figure", figure]) == 0
        digest = hashlib.sha256((tmp_path / f"{figure}.csv").read_bytes())
        stored = (_GOLDEN_DIR / f"{figure}.sha256").read_text().strip()
        assert digest.hexdigest() == stored, figure
