"""The four workloads: the program calls one pass makes, and the checks of
their outputs against the independent references in ``oracles``.

A pass is a list of steps, each one program call (one operation).  A step
reads and extends a state dict; it returns False when the call came back
with per-index failures, and a raised error counts as failed too.
"""

from dataclasses import dataclass

import inputs
import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple            # ((label, fn(nr, problem, state, workdir) -> bool | None), ...)
    check: object           # fn(state) -> oracles.Verdict; dev is ref_dev
    expected_layers: tuple  # trace layers that must record calls on this workload


def _nodal_data(n_range):
    def step(nr, problem, state, workdir):
        state["data"] = nr.nodal_data(problem, n_range)
        return not state["data"].failures
    return step


def _spectrum(n_range):
    def step(nr, problem, state, workdir):
        state["spectrum"] = nr.compute_spectrum(problem, n_range)
    return step


def _reconstruct(key):
    def step(nr, problem, state, workdir):
        state["rec"] = nr.reconstruct(state[key])
    return step


def _synthesize(nr, problem, state, workdir):
    state["data"] = nr.synthesize_nodal_data(problem, inputs.SYNTH_RANGE)


def _write_csv(nr, problem, state, workdir):
    state["csv"] = workdir / "synth_dense_nodes.csv"
    nr.write_nodal_csv(state["data"], str(state["csv"]))


def _read_csv(nr, problem, state, workdir):
    state["read"] = nr.read_nodal_csv(str(state["csv"]))


def _all_of(*verdicts):
    """First failing verdict, else the first one (whose dev is ref_dev) with
    every detail joined."""
    for v in verdicts:
        if not v.ok:
            return v
    return oracles.Verdict(True, verdicts[0].dev, "; ".join(v.detail for v in verdicts))


def _indices_complete(data, n_range):
    want = list(range(n_range[0], n_range[1] + 1))
    ok = data.indices == want and not data.failures
    return oracles.Verdict(ok, 0.0, f"nodes for all {len(want)} indices" if ok
                           else f"indices {data.indices[:3]}..., failures {sorted(data.failures)[:5]}")


def _check_cosine(state):
    return _all_of(
        oracles.check_coefficients(state["rec"], inputs.COSINE_KNOWN, inputs.COSINE_BUDGETS),
        _indices_complete(state["data"], inputs.COSINE_RANGE),
    )


def _check_mass(state):
    ns = range(inputs.MASS_RANGE[0], inputs.MASS_RANGE[1] + 1)
    return _all_of(
        oracles.check_spectrum(
            state["spectrum"].entries,
            oracles.constant_mass_eigenvalues(ns, inputs.MASS),
            inputs.EIGEN_TOL,
        ),
        oracles.check_constant_mass_nodes(state["data"].nodes, ns, inputs.NODE_TOL),
    )


def _check_general_kernel(state):
    p = inputs.EXP_KERNEL
    ns = range(inputs.EXP_KERNEL_RANGE[0], inputs.EXP_KERNEL_RANGE[1] + 1)
    reference = oracles.exp_kernel_eigenvalues(
        ns, p["theta"], p["beta"], p["m"], p["c"], p["q"], 0.0, p["c"], p["a"]
    )
    return oracles.check_spectrum(state["spectrum"].entries, reference, inputs.EIGEN_TOL)


def _check_synth(state):
    return _all_of(
        oracles.check_coefficients(state["rec"], inputs.WORKED_KNOWN, inputs.WORKED_BUDGETS),
        oracles.check_readback(state["data"], state["read"]),
    )


_FORWARD = ("forward.char_fn", "forward.solve_batch", "spectrum")
_INVERSE = ("inverse.reconstruct", "inverse.calibrate", "inverse.f_stage",
            "inverse.g_stage", "inverse.differentiate")
_PROBLEM = ("problem.load", "problem.derived_integrals")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cosine_roundtrip",
            (("nodal_data", _nodal_data(inputs.COSINE_RANGE)),
             ("reconstruct", _reconstruct("data"))),
            _check_cosine,
            _FORWARD + _INVERSE + _PROBLEM + ("expressions",),
        ),
        Workload(
            "mass_spectrum",
            (("compute_spectrum", _spectrum(inputs.MASS_RANGE)),
             ("nodal_data", _nodal_data(inputs.MASS_RANGE))),
            _check_mass,
            _FORWARD + _PROBLEM,
        ),
        Workload(
            "general_kernel",
            (("compute_spectrum", _spectrum(inputs.EXP_KERNEL_RANGE)),),
            _check_general_kernel,
            ("forward.char_fn", "spectrum", "expressions") + _PROBLEM,
        ),
        Workload(
            "synth_dense",
            (("synthesize_nodal_data", _synthesize),
             ("write_nodal_csv", _write_csv),
             ("read_nodal_csv", _read_csv),
             ("reconstruct", _reconstruct("read"))),
            _check_synth,
            ("asymptotics.synth", "asymptotics.node_asym", "io.write", "io.read", "expressions")
            + _INVERSE + _PROBLEM,
        ),
    )
}
