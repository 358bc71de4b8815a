import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

import nodalrec.problem as problem_module
from nodalrec.asymptotics import lambda_asym, phi_asym, synthesize_nodal_data
from nodalrec.errors import ExpressionError, InvalidProblemError, ProblemFormatError
from nodalrec.fixtures import (
    DOCUMENTS,
    cosine_roundtrip_problem,
    free_problem,
    worked_example_problem,
)
from nodalrec.forward import AugmentedSystem
from nodalrec.problem import (
    BoundaryParams,
    CoefficientSet,
    GeneralKernel,
    KernelMatrix,
    ProblemDefinition,
    SeparableKernel,
    ZeroKernel,
    derived_integrals,
    ensure_valid,
    load_problem,
    problem_from_mapping,
)
from nodalrec.spectrum import nodal_data

from _bullets import covers


def test_angle_branch_enforced():
    with pytest.raises(InvalidProblemError):
        BoundaryParams(theta=2.0)
    with pytest.raises(InvalidProblemError):
        BoundaryParams(beta=-math.pi / 2)  # open at -pi/2
    BoundaryParams(theta=math.pi / 2)  # closed at +pi/2


def test_nonfinite_rejected():
    with pytest.raises(InvalidProblemError):
        BoundaryParams(b1=float("nan"))
    with pytest.raises(InvalidProblemError):
        CoefficientSet(m=float("inf"))


def test_zero_mean_potential_enforced():
    with pytest.raises(InvalidProblemError):
        ProblemDefinition(coeffs=CoefficientSet(V=lambda x: np.cos(x) + 0.5))
    ensure_valid(cosine_roundtrip_problem())


def test_wrong_shape_potential_is_invalid():
    with pytest.raises(InvalidProblemError, match="V finite: V raised ValueError"):
        ProblemDefinition(coeffs=CoefficientSet(V=lambda x: np.zeros(3)))


def test_kernel_infinite_on_the_diagonal_only_is_invalid(tmp_path):
    # 1/x is finite at every off-diagonal probe; the trace integrand
    # (chi11 + chi22)(x, x) is not, at x = 0.  As a separable term and as a
    # general entry, with warnings as errors: the division by zero reaches
    # the finiteness check, which names the point, and no numpy warning
    # escapes
    path = tmp_path / "diagonal.yaml"
    for coeffs in ('{chi_separable: {"11": [{a: "1/x", b: "1"}]}}', '{chi: {"11": "1/x"}}'):
        path.write_text(f"bc: {{theta: 0.0, beta: 0.0}}\ncoeffs: {coeffs}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidProblemError,
                               match=r"chi11 finite: non-finite at \(x, t\) = \(0, 0\)"):
                load_problem(path)


def test_problem_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b'bc: {theta: 0.0, beta: 0.0}\ncoeffs: {V: "x\xff"}\n')
    with pytest.raises(ProblemFormatError, match="not UTF-8 text") as info:
        load_problem(path)
    assert str(info.value).startswith(f"{path}: ")


def test_solvers_do_not_revalidate(monkeypatch):
    # a built problem is valid; nothing on the solve path checks it again
    built = cosine_roundtrip_problem()
    calls = []

    def counted(problem):
        calls.append(problem)
        return ensure_valid(problem)

    for name, module in list(sys.modules.items()):
        if name == "nodalrec" or name.startswith("nodalrec."):
            for attr, value in list(vars(module).items()):
                if value is ensure_valid:
                    monkeypatch.setattr(module, attr, counted)
    problem = dataclasses.replace(built)
    assert calls == [problem]  # the counter sees the check at construction
    data = nodal_data(problem, (20, 30))
    assert sorted(data.nodes) == list(range(20, 31))
    assert calls == [problem]


def test_kernel_matrix_modes():
    assert all(isinstance(k, ZeroKernel) for _, _, k in KernelMatrix().entries)
    sep = KernelMatrix(k12=SeparableKernel([(lambda x: x, lambda t: t)]))
    assert isinstance(sep.k12, SeparableKernel) and isinstance(sep.k21, ZeroKernel)
    gen = KernelMatrix(k21=GeneralKernel(lambda x, t: x * t))
    assert isinstance(gen.k21, GeneralKernel)
    assert isinstance(KernelMatrix(k11=0).k11, ZeroKernel)


def test_ensure_valid_names_every_failed_check():
    # V = cos(x) + 0.5 integrates to pi/2; chi21 is NaN from the third probe on
    coeffs = CoefficientSet(
        V=lambda x: np.cos(x) + 0.5,
        chi=KernelMatrix(k21=GeneralKernel(lambda x, t: np.where(x > 2.5, np.nan, x * t))))
    with pytest.raises(InvalidProblemError) as info:
        ProblemDefinition(coeffs=coeffs)
    assert str(info.value) == (
        "invalid problem: "
        "V zero mean: integral over (0, pi) = 1.571e+00 (tolerance 1.0e-06); "
        "chi21 finite: non-finite at (x, t) = (2.9, 2)")


def test_diag_trace_and_skew():
    chi = worked_example_problem().coeffs.chi
    t = np.linspace(0, math.pi, 9)
    # chi12(x, t) = pi/2 - (x+t)/2 on the diagonal: pi/2 - t; chi21 = 0
    assert np.allclose(chi.diag_skew(t), math.pi / 2 - t)
    assert np.allclose(chi.diag_trace(t), 0.0)


@covers("problem.integral-endpoints")
@pytest.mark.parametrize("problem", [
    worked_example_problem(),
    cosine_roundtrip_problem(),
    free_problem(),
])
def test_derived_integral_endpoints(problem):
    ints = derived_integrals(problem)
    assert ints.nu[0] == 0.0
    assert ints.K[0] == 0.0
    assert ints.L[0] == 0.0
    assert abs(ints.nu[-1]) <= 1e-6  # zero-mean V up to quadrature error


def test_integrals_computed_once_per_problem(monkeypatch):
    # the closed forms read problem.integrals, which calls derived_integrals
    # by its module name on first use only
    problem, calls = cosine_roundtrip_problem(), []
    monkeypatch.setattr(problem_module, "derived_integrals",
                        lambda p: calls.append(p) or derived_integrals(p))
    synthesize_nodal_data(problem, (5, 20))
    lambda_asym(problem, np.arange(5, 9))
    phi_asym(problem, np.linspace(0.0, math.pi, 5), 7.5)
    assert calls == [problem]
    ref = derived_integrals(problem)
    for name in ("grid", "nu", "K", "L"):
        assert np.array_equal(getattr(problem.integrals, name), getattr(ref, name))


def test_derived_integrals_match_closed_forms():
    from nodalrec.fixtures import worked_example_reference

    problem = worked_example_problem()
    ref = worked_example_reference()
    ints = derived_integrals(problem)
    assert np.max(np.abs(ints.nu - ref["nu"](ints.grid))) < 1e-12  # trapezoid exact on linear V
    assert np.max(np.abs(ints.L - ref["L"](ints.grid))) < 1e-12
    assert np.max(np.abs(ints.K)) < 1e-12


@covers("problem.p-minus-r")
@given(
    m=st.floats(min_value=-5, max_value=5, allow_nan=False),
    a=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_p_minus_r_is_twice_m(m, a):
    problem = ProblemDefinition(coeffs=CoefficientSet(
        V=lambda x, a=a: a * (np.cos(x) ** 2 - 0.5), m=m))
    x = np.linspace(0.0, math.pi, 65)
    system = AugmentedSystem(problem)
    (F_node, _), (F_mid, _) = system.coefficients(x), system.coefficients(x[:-1] + math.pi / 128)
    tol = 8 * np.finfo(float).eps * max(1.0, abs(m), abs(a))
    for F in (F_node, F_mid):
        diff = -F[:, 1, 0] - F[:, 0, 1]  # p - r
        assert np.max(np.abs(diff - 2 * m)) <= tol


@covers("problem.quadrature-doubling")
def test_quadrature_doubling_factor():
    problem = cosine_roundtrip_problem()
    ref = derived_integrals(dataclasses.replace(problem, quadrature_points=4097))

    def err(gs, field):
        ints = derived_integrals(dataclasses.replace(problem, quadrature_points=gs))
        stride = 4096 // (gs - 1)
        return np.max(np.abs(getattr(ints, field) - getattr(ref, field)[::stride]))

    for field in ("nu", "L"):
        ratio = err(129, field) / err(257, field)
        assert 3.0 < ratio < 5.5, (field, ratio)


def test_yaml_mapping_loader_roundtrip():
    doc = {
        "bc": {"theta": 0.3, "beta": 0.1},
        "coeffs": {
            "V": "cos(x)",
            "m": 0.5,
            "chi_separable": {"12": [
                {"a": "sin(x/2)", "b": "cos(t/2)"},
                {"a": "cos(x/2)", "b": "sin(t/2)"},
                {"a": "-2/pi", "b": "1"},
            ]},
        },
    }
    problem = problem_from_mapping(doc)
    ensure_valid(problem)
    # the closed forms, not the fixture, which is built from this document
    xs = np.linspace(0, math.pi, 11)
    x, t = xs[:, None], xs[None, :]
    assert np.allclose(problem.coeffs.V(xs), np.cos(xs))
    assert np.allclose(problem.coeffs.chi.k12.eval(x, t), np.sin((x + t) / 2) - 2 / math.pi)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_problem_files_are_the_fixture_documents(name):
    # the built-in problems and the shipped files are one definition
    path = Path(__file__).resolve().parent.parent / "problems" / f"{name}.yaml"
    assert yaml.safe_load(path.read_text(encoding="utf-8")) == DOCUMENTS[name]


@pytest.mark.parametrize("doc, fragment", [
    ({}, "missing required key 'bc'"),
    ({"bc": 3}, "'bc' must be a mapping"),
    ({"bc": {"theta": 0, "beta": 0, "gamma": 1}}, "unknown bc keys"),
    ({"bc": {"theta": 0, "beta": 0}, "coeffs": {"chi": {"13": "x"}}}, "unknown kernel entry"),
    ({"bc": {"theta": 0, "beta": 0},
      "coeffs": {"chi": {"12": "x"}, "chi_separable": {"12": [{"a": "x", "b": "t"}]}}},
     "both"),
    ({"bc": {"theta": 0.3, "beta": 0.1}, "coefs": {"V": "cos(x)", "m": 0.5}},
     "unknown top-level keys ['coefs']"),
    ({"bc": {"theta": 0, "beta": 0}, "coeffs": {"v": "cos(x)", "mass": 1}},
     "unknown coeffs keys ['mass', 'v']"),
    ({"bc": {"theta": 0, "beta": 0}, "coeffs": {"chi_seperable": {"12": []}}},
     "unknown coeffs keys ['chi_seperable']"),
    ({"bc": {"theta": 0, "beta": 0}, 7: 1}, "unknown top-level keys ['7']"),
], ids=["no-bc", "bc-scalar", "bc-extra", "bad-entry", "dual-form", "top-extra", "coeffs-extra",
        "coeffs-misspelled-kernel", "top-nonstring"])
def test_mapping_loader_rejects(doc, fragment):
    with pytest.raises(ProblemFormatError) as info:
        problem_from_mapping(doc)
    assert fragment in str(info.value)


def _kernel_that_raises(x, t):
    raise RuntimeError("kernel failed")


_BC = {"theta": 0, "beta": 0}


@pytest.mark.parametrize("build, error, message", [
    (lambda: problem_from_mapping([_BC]), ProblemFormatError,
     "<problem>: top level must be a mapping"),
    (lambda: problem_from_mapping({"bc": _BC, "coeffs": ["V"]}), ProblemFormatError,
     "<problem>: 'coeffs' must be a mapping"),
    (lambda: problem_from_mapping({"bc": {"theta": "abc", "beta": 0}}), ProblemFormatError,
     "<problem>: bad bc value (could not convert string to float: 'abc')"),
    (lambda: problem_from_mapping({"bc": _BC, "coeffs": {"m": "heavy"}}), ProblemFormatError,
     "<problem>: coeffs.m must be a number"),
    (lambda: problem_from_mapping({"bc": _BC, "quadrature_points": "many"}), ProblemFormatError,
     "<problem>: quadrature_points must be an integer"),
    (lambda: problem_from_mapping({"bc": _BC, "quadrature_points": 16}), InvalidProblemError,
     "quadrature_points must be at least 17"),
    # a bool or a number that is not integral is refused, not truncated
    (lambda: problem_from_mapping({"bc": _BC, "quadrature_points": True}), ProblemFormatError,
     "<problem>: quadrature_points must be an integer"),
    (lambda: problem_from_mapping({"bc": _BC, "quadrature_points": 4097.9}), ProblemFormatError,
     "<problem>: quadrature_points must be an integer"),
    (lambda: problem_from_mapping({"bc": _BC, "quadrature_points": 17.5}), ProblemFormatError,
     "<problem>: quadrature_points must be an integer"),
    (lambda: problem_from_mapping({"bc": _BC, "quadrature_points": math.inf}), ProblemFormatError,
     "<problem>: quadrature_points must be an integer"),
    (lambda: problem_from_mapping({"bc": _BC, "coeffs": {"chi_separable": {"12": []}}}),
     ProblemFormatError, "coeffs.chi_separable.12: expected a non-empty list of {a, b} pairs"),
    (lambda: problem_from_mapping({"bc": _BC, "coeffs": {"chi_separable": {"12": {"a": "x"}}}}),
     ProblemFormatError, "coeffs.chi_separable.12: expected a non-empty list of {a, b} pairs"),
    (lambda: problem_from_mapping({"bc": _BC, "coeffs": {"chi_separable": {"12": [{"a": "x"}]}}}),
     ProblemFormatError, "coeffs.chi_separable.12[0]: expected keys 'a' (in x) and 'b' (in t)"),
    (lambda: problem_from_mapping({"bc": _BC, "coeffs": {"V": "1/x"}}), InvalidProblemError,
     "invalid problem: V finite: V(0) is not finite; V zero mean: skipped: V not evaluable"),
    (lambda: problem_from_mapping({"bc": _BC, "coeffs": {"V": "cos(x)*True"}}), ExpressionError,
     "V: literal True not allowed (line 1, column 8)"),
    (lambda: ProblemDefinition(coeffs=CoefficientSet(
        chi=KernelMatrix(k12=GeneralKernel(_kernel_that_raises)))), InvalidProblemError,
     "invalid problem: chi12 finite: raised RuntimeError('kernel failed')"),
    (lambda: SeparableKernel([]), InvalidProblemError,
     "separable kernel needs at least one (a, b) term"),
    (lambda: KernelMatrix(k11="abc"), InvalidProblemError, "cannot interpret kernel entry 'abc'"),
    (lambda: CoefficientSet(V=3.0), InvalidProblemError, "V must be callable or 0, got 3.0"),
], ids=["top-list", "coeffs-list", "bc-string", "m-string", "quadrature-string",
        "quadrature-16", "quadrature-bool", "quadrature-fraction", "quadrature-half",
        "quadrature-infinite", "separable-empty", "separable-mapping", "separable-no-b", "V-infinite",
        "V-bool-literal", "kernel-raises", "separable-kernel-empty", "kernel-string",
        "V-number"])
def test_rejected_input_names_its_fault(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("points", [17.5, 4097.9, True, math.inf, None, "many"])
def test_problem_definition_refuses_a_quadrature_count_it_would_truncate(points):
    # the Python API refuses what a problem file refuses, as an invalid
    # problem (a file's value is refused first, as a parse error)
    with pytest.raises(InvalidProblemError) as info:
        ProblemDefinition(quadrature_points=points)
    assert str(info.value) == "quadrature_points must be an integer"


@pytest.mark.parametrize("points", [33, 33.0, np.int64(33), "33"])
def test_problem_definition_takes_an_integral_quadrature_count(points):
    problem = ProblemDefinition(quadrature_points=points)
    assert type(problem.quadrature_points) is int and problem.quadrature_points == 33


def test_zero_kernel_expression_adds_no_memory_state():
    # chi given as the expression "0" folds to ZeroKernel, so the forward
    # solver carries no memory state for it
    problem = problem_from_mapping({"bc": _BC, "coeffs": {"chi": {"12": "0"}}})
    assert isinstance(problem.coeffs.chi.k12, ZeroKernel)
    assert AugmentedSystem(problem).size == 2
