"""Truncated spectral evolution: assembly, stepping, closed-form decay, runs."""

import csv
import functools
import json
import math
import re
import time
from pathlib import PurePath

import numpy as np
import pytest

import slipchan.eigensolver as eigensolver
import slipchan.modes as modes
from slipchan.core import Friction, PlanarCoeffs, PressureFamily, WaveIndex
from slipchan.errors import (
    BlowupDetected,
    HypothesisViolated,
    InvalidCase,
    StabilityViolation,
    ZeroMode,
)
from slipchan.fields import PlanarField
from slipchan.galerkin import (
    BLOWUP_NORM,
    COEFF_POLICIES,
    MAX_STEPS,
    GalerkinState,
    GalerkinSystem,
    SolutionFamily,
    assemble,
    energy_report,
    explicit_solution,
    integrate,
    is_matched_pick,
    load_manifest,
    run_simulation,
    write_energy_csv,
    write_trajectory_csv,
    _pair_terms,
    _rhs,
)
from slipchan.helmholtz import convect, leray_project, triple_product
from slipchan.modes import build_mode
from slipchan.verify import strain_identity

B1 = Friction.finite(1.0)
NAVIER = Friction.navier()

LAM_110 = 2.7401738843949675  # smallest full-pair eigenvalue at beta = 1


def single_system():
    return assemble([(1, 1, 0)], B1, "matched")


def c_triad():
    return assemble([(1, 1, 0), (1, 2, 0), (2, 1, 0)], B1, "c")


@functools.lru_cache(maxsize=None)
def c_pick_system(spec, size=48):
    """The c pick on the `size` lowest constant-pressure indices with
    m, n >= 1 on the two lowest p of the wall's ladder (the benchmark's
    basis where both p = 0 and p = 1 exist)."""
    friction = Friction.parse(spec)
    first = friction.first_p(PressureFamily.CONSTANT)
    s2 = {p: eigensolver.eigenvalue(WaveIndex(1, 1, p), friction) - 2.0
          for p in (first, first + 1)}
    ranked = sorted((m * m + n * n + s2[p], m, n, p)
                    for m in range(1, 12) for n in range(1, 12) for p in s2)
    return assemble([(m, n, p) for _, m, n, p in ranked[:size]], friction, "c")


C_PICK_WALLS = [0.18, 1.3, "dirichlet"]


def dense_rhs(lam, tensor, a):
    """The right-hand side as two matrix-vector products on the dense
    tensor: the route the pair-term kernel replaced."""
    k = a.size
    return -(lam * a) - a @ (a @ tensor.reshape(k, k * k)).reshape(k, k)


def dense_trajectory(system, coeffs, T, dt, stride=1):
    """The RK4 loop of `integrate` from t = 0 on `dense_rhs`: the sampled
    amplitude arrays, or BlowupDetected with the same message."""
    lam = np.asarray(system.eigenvalues)
    tensor = system.tensor
    a = np.asarray(coeffs)
    out = [a]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, round(T / dt) + 1):
            k1 = dense_rhs(lam, tensor, a)
            k2 = dense_rhs(lam, tensor, a + (0.5 * dt) * k1)
            k3 = dense_rhs(lam, tensor, a + (0.5 * dt) * k2)
            k4 = dense_rhs(lam, tensor, a + dt * k3)
            a = a + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            size = float(np.linalg.norm(a))
            if not math.isfinite(size) or size > BLOWUP_NORM:
                raise BlowupDetected(
                    f"|A| = {size:.3e} at t = {step * dt:.6g} exceeds {BLOWUP_NORM:g}"
                )
            if step % stride == 0:
                out.append(a)
    return out


# ---------------------------------------------------------------------------
# coefficient policies
# ---------------------------------------------------------------------------


class TestMatchedPick:
    def test_detection(self):
        assert is_matched_pick(PlanarCoeffs(a=1, b=1, c=-1, d=1))
        assert is_matched_pick(PlanarCoeffs(a=2.5, c=-2.5))
        assert is_matched_pick(PlanarCoeffs(b=-0.3, d=-0.3))
        assert not is_matched_pick(PlanarCoeffs(a=1))
        assert not is_matched_pick(PlanarCoeffs(a=1, b=1, c=1, d=1))

    def test_policy_table(self):
        assert set(COEFF_POLICIES) == {"ab", "ad", "bd", "c", "matched"}
        assert is_matched_pick(COEFF_POLICIES["matched"])


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


class TestAssemble:
    def test_rejects_non_iterable_indices(self):
        with pytest.raises(InvalidCase, match="indices must be a list"):
            assemble(5, B1)

    @pytest.mark.parametrize("listed", [tuple, list, lambda v: (x for x in v)],
                             ids=["tuple", "list", "generator"])
    def test_indices_and_picks_take_any_list(self, listed):
        # a generator of picks was once "coeffs must be a list"
        indices, picks = [(1, 1, 0), (1, 2, 0)], [[0, 0, 1, 0], [1, 0, 0, 0.5]]
        want = assemble(indices, B1, picks)
        for got in (assemble(listed(indices), B1, picks), assemble(indices, B1, listed(picks)),
                    assemble(indices, B1, [listed(pick) for pick in picks])):
            assert [(m.index, m.coeffs) for m in got.basis] == [(m.index, m.coeffs) for m in want.basis]
            assert np.array_equal(got.tensor, want.tensor)

    @pytest.mark.parametrize("key,value,message", [
        ("indices", "110", r"indices must be a list of \(m, n, p\) triples, got '110'"),
        ("indices", {(1, 1, 0): 1}, r"indices must be a list of \(m, n, p\) triples, got \{"),
        ("indices", 5, r"indices must be a list of \(m, n, p\) triples, got 5"),
        ("coeffs", "xy", "unknown coefficient policy 'xy'"),   # a str names a policy
        ("coeffs", {"a": 1}, r"coeffs must be a list of picks, got \{'a': 1\}"),
        ("coeffs", 5, "coeffs must be a list of picks, got 5"),
        ("pick", "abcd", "coeffs must be a list of numbers, got 'abcd'"),
        ("pick", {"a": 1}, r"coeffs must be a list of numbers, got \{'a': 1\}"),
        ("pick", 1, "coeffs must be a list of numbers, got 1"),
        ("pick", [0, 0, 1], r"coeffs must be a list of 4 numbers, got \[0.0, 0.0, 1.0\]"),
        ("pick", [0, 0, 1, "x"], "coeffs must be a number, got 'x'"),
    ], ids=repr)
    def test_a_non_list_is_rejected(self, key, value, message):
        indices, coeffs = [(1, 1, 0)], [[0, 0, 1, 0]]
        if key == "indices":
            indices = value
        else:
            coeffs = value if key == "coeffs" else [value]
        with pytest.raises(InvalidCase, match=f"^{message}"):
            assemble(indices, B1, coeffs)

    def test_single_matched_mode_has_zero_tensor(self):
        system = single_system()
        assert system.size == 1
        assert float(np.max(np.abs(system.tensor))) == 0.0

    def test_planar_shear_basis_has_zero_tensor(self):
        system = assemble([(0, 1, 0), (0, 2, 0), (0, 1, 1)], B1, "ad")
        assert float(np.max(np.abs(system.tensor))) < 1e-12

    def test_tangential_five_mode_basis_is_transport_silent(self):
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 1), (0, 1, 0)], B1, "ab"
        )
        assert system.size == 5
        assert float(np.max(np.abs(system.tensor))) < 1e-10

    def test_cross_slot_triad_matches_triple_product(self):
        system = c_triad()
        ms = [
            build_mode(WaveIndex(*i), B1, PlanarCoeffs(c=1))
            for i in [(1, 1, 0), (1, 2, 0), (2, 1, 0)]
        ]
        assert system.tensor[0, 1, 2] == triple_product(*ms)
        assert system.tensor[0, 1, 2] == pytest.approx(
            -0.09737045295323836, rel=1e-12
        )
        # every entry, on the c triad plus explicit picks on indices that
        # share its planar harmonics, so witnesses collide on planar keys
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0), (1, 1, 1)],
            B1,
            [
                PlanarCoeffs(c=1),
                PlanarCoeffs(c=1),
                PlanarCoeffs(c=1),
                PlanarCoeffs(a=1, b=-0.5, c=0.3, d=2),
                PlanarCoeffs(a=1, b=0.5, c=-0.25, d=1),
                PlanarCoeffs(a=0.2, c=1),
            ],
        )
        basis = system.basis
        k = system.size
        assert np.count_nonzero(system.tensor) > k
        for i in range(k):
            for j in range(k):
                for w in range(k):
                    assert system.tensor[i, j, w] == triple_product(
                        basis[i], basis[j], basis[w]
                    ), (i, j, w)

    def test_assembly_builds_no_fields(self, monkeypatch):
        # the tensor is read from each flat mode's closed form
        build = PlanarField.from_mode.__func__
        calls = []

        def counted(cls, mode):
            calls.append(mode)
            return build(cls, mode)

        monkeypatch.setattr(PlanarField, "from_mode", classmethod(counted))
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0), (1, 3, 0)], B1, "c"
        )
        assert np.count_nonzero(system.tensor) > 0
        assert calls == []

    def test_eigenvalues_sorted_even_for_shuffled_input(self):
        system = assemble([(2, 1, 0), (1, 1, 0), (1, 2, 0)], B1, "c")
        assert list(system.eigenvalues) == sorted(system.eigenvalues)
        assert (system.basis[0].index.m, system.basis[0].index.n) == (1, 1)

    def test_tensor_is_read_only(self):
        system = c_triad()
        with pytest.raises(ValueError):
            system.tensor[0, 0, 0] = 1.0

    def test_duplicate_entries_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([(1, 1, 0), (1, 1, 0)], B1, "ab")

    def test_distinct_picks_on_same_index_allowed(self):
        system = assemble(
            [(1, 1, 0), (1, 1, 0)],
            B1,
            [PlanarCoeffs(a=1), PlanarCoeffs(b=1)],
        )
        assert system.size == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([(1, 1, 0)], B1, "abc")

    def test_pick_count_mismatch_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([(1, 1, 0), (1, 2, 0)], B1, [PlanarCoeffs(a=1)])

    def test_pressure_family_rejected(self):
        with pytest.raises(InvalidCase):
            assemble(
                [WaveIndex(1, 1, 0, PressureFamily.NONCONSTANT)], B1, "ab"
            )

    def test_vertical_velocity_modes_rejected(self):
        # the frictionless (1,1,1) mode couples into w; transport undefined
        with pytest.raises(HypothesisViolated):
            assemble([(1, 1, 1)], NAVIER, "ab")

    def test_empty_basis_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([], B1, "ab")


class TestSystemValidation:
    def test_eigenvalue_mismatch_rejected(self):
        good = single_system()
        with pytest.raises(InvalidCase):
            GalerkinSystem(good.basis, (good.eigenvalues[0] + 0.5,), np.zeros((1, 1, 1)))

    def test_shape_mismatch_rejected(self):
        good = single_system()
        with pytest.raises(InvalidCase):
            GalerkinSystem(good.basis, good.eigenvalues, np.zeros((2, 2, 2)))

    def test_non_antisymmetric_tensor_rejected(self):
        good = c_triad()
        bad = np.array(good.tensor)
        bad[0, 1, 1] = 0.3  # symmetric-slot entry breaks energy neutrality
        with pytest.raises(InvalidCase):
            GalerkinSystem(good.basis, good.eigenvalues, bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entries", [
        {(0, 1, 2): math.nan},
        {(0, 1, 2): math.inf, (0, 2, 1): -math.inf},
    ], ids=["nan", "inf-mirror-pair"])
    def test_non_finite_tensor_rejected(self, entries):
        # NaN and an inf/-inf mirror pair both slip past the skew test
        good = c_triad()
        bad = np.array(good.tensor)
        for slot, value in entries.items():
            bad[slot] = value
        with pytest.raises(InvalidCase, match="finite"):
            GalerkinSystem(good.basis, good.eigenvalues, bad)

    @pytest.mark.parametrize("convert", [
        lambda t: t.tolist(), lambda t: t.astype(complex),
    ], ids=["nested-list", "complex"])
    def test_non_real_array_tensor_rejected(self, convert):
        good = c_triad()
        with pytest.raises(InvalidCase, match="numpy array of reals"):
            GalerkinSystem(good.basis, good.eigenvalues, convert(good.tensor))

    def test_antisymmetry_of_assembled_tensor(self):
        t = c_triad().tensor
        assert float(np.max(np.abs(t + np.swapaxes(t, 1, 2)))) < 1e-10


class TestState:
    def test_validation(self):
        with pytest.raises(InvalidCase):
            GalerkinState(-0.1, (1.0,))
        with pytest.raises(InvalidCase):
            GalerkinState(0.0, (math.inf,))
        with pytest.raises(InvalidCase):
            GalerkinState(math.nan, (1.0,))

    @pytest.mark.parametrize("t,coeffs", [
        ("x", (1.0,)), (None, (1.0,)), (10**400, (1.0,)),
        (0, (10**400,)), (0, ("1.0",)), (0, (True,)),
    ], ids=repr)
    def test_rejects_non_numbers(self, t, coeffs):
        with pytest.raises(InvalidCase):
            GalerkinState(t, coeffs)

    @pytest.mark.parametrize("coeffs", [None, 1.0, "12", {1.0: 2.0}], ids=repr)
    def test_rejects_a_non_list(self, coeffs):
        with pytest.raises(InvalidCase, match="mode amplitudes must be a list"):
            GalerkinState(0.0, coeffs)

    def test_accepts_any_iterable_of_reals(self):
        state = GalerkinState(0, iter([1, np.float64(2.5)]))
        assert state == GalerkinState(0.0, (1.0, 2.5))

    def test_norm(self):
        assert GalerkinState(0.0, (3.0, 4.0)).norm == 5.0


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


class TestIntegrate:
    def test_single_mode_matches_exponential_decay(self):
        system = single_system()
        traj = integrate(system, GalerkinState(0.0, (1.0,)), T=1.0, dt=1e-3)
        exact = math.exp(-LAM_110)
        assert abs(traj[-1].coeffs[0] - exact) / exact < 1e-6

    @pytest.mark.parametrize("options", [
        {"dt": "x"}, {"dt": None}, {"T": 10**400}, {"T": "1"}, {"stride": 1.5},
        {"stride": "2"},
    ], ids=repr)
    def test_rejects_non_numbers(self, options):
        arguments = {"T": 1.0, "dt": 1e-2, "stride": 1, **options}
        with pytest.raises(InvalidCase, match=next(iter(options))):
            integrate(single_system(), GalerkinState(0.0, (1.0,)), **arguments)

    def test_zero_data_stays_zero(self):
        system = c_triad()
        traj = integrate(system, GalerkinState(0.0, (0.0, 0.0, 0.0)), T=0.5, dt=0.01)
        assert all(all(c == 0.0 for c in s.coeffs) for s in traj)

    def test_shear_family_decays_mode_by_mode(self):
        system = assemble([(0, 1, 0), (0, 1, 1), (0, 2, 0)], B1, "ad")
        gammas = (1.0, -0.7, 0.4)
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3)
        for k, lam in enumerate(system.eigenvalues):
            exact = gammas[k] * math.exp(-lam)
            assert abs(traj[-1].coeffs[k] - exact) < 1e-6

    def test_tangential_basis_matches_explicit_solution(self):
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 1), (0, 1, 0)], B1, "ab"
        )
        gammas = (0.8, -0.5, 0.3, 0.2, -0.1)
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3)
        for k, lam in enumerate(system.eigenvalues):
            assert abs(traj[-1].coeffs[k] - gammas[k] * math.exp(-lam)) < 1e-6

    def test_fourth_order_in_dt(self):
        system = single_system()
        errs = []
        for dt in (0.05, 0.025):
            traj = integrate(system, GalerkinState(0.0, (1.0,)), T=1.0, dt=dt)
            errs.append(abs(traj[-1].coeffs[0] - math.exp(-LAM_110)))
        assert 14.0 < errs[0] / errs[1] < 18.0

    def test_trajectory_sampling_and_stride(self):
        system = single_system()
        traj = integrate(system, GalerkinState(0.0, (1.0,)), T=1.0, dt=0.01, stride=10)
        assert len(traj) == 11
        for k, state in enumerate(traj):
            assert state.t == pytest.approx(0.1 * k, abs=1e-12)

    def test_initial_state_is_first_sample(self):
        system = single_system()
        initial = GalerkinState(0.0, (0.25,))
        traj = integrate(system, initial, T=0.1, dt=0.01)
        assert traj[0] is initial

    def test_stability_guard(self):
        system = c_triad()  # lambda_max = 5.74...
        with pytest.raises(StabilityViolation):
            integrate(system, GalerkinState(0.0, (1.0, 0.0, 0.0)), T=1.0, dt=0.5)

    def test_blowup_at_initial_state(self):
        system = c_triad()
        with pytest.raises(BlowupDetected):
            integrate(
                system, GalerkinState(0.0, (9e5, -8e5, 7e5)), T=0.1, dt=1e-3
            )

    def test_blowup_mid_run(self):
        system = c_triad()
        with pytest.raises(BlowupDetected) as info:
            integrate(
                system, GalerkinState(0.0, (7e5, -7e5, 0.0)), T=0.1, dt=1e-3
            )
        assert "at t =" in str(info.value)
        with pytest.raises(BlowupDetected) as dense:
            dense_trajectory(system, (7e5, -7e5, 0.0), T=0.1, dt=1e-3)
        assert str(info.value) == str(dense.value)

    @pytest.mark.parametrize("spec", C_PICK_WALLS, ids=str)
    def test_matches_the_dense_loop_on_a_c_pick_basis(self, spec):
        system = c_pick_system(spec)
        gammas = np.random.default_rng(7).uniform(-1.0, 1.0, system.size)
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3, stride=100)
        dense = dense_trajectory(system, gammas, T=1.0, dt=1e-3, stride=100)
        assert len(traj) == len(dense) == 11
        for state, ref in zip(traj, dense):
            gap = np.max(np.abs(np.asarray(state.coeffs) - ref))
            assert gap <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("build,gammas", [
        (single_system, (1.0,)),
        (lambda: assemble([(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)], B1, "ab"),
         (0.8, -0.5, 0.3, 0.2)),
    ], ids=["single", "zero-tensor-ab"])
    def test_decoupled_systems_match_the_dense_loop_bitwise(self, build, gammas):
        system = build()
        assert not np.any(system.tensor)
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3, stride=100)
        dense = dense_trajectory(system, gammas, T=1.0, dt=1e-3, stride=100)
        assert [state.coeffs for state in traj] == [tuple(a) for a in dense]

    def test_horizon_and_stride_guards(self):
        system = single_system()
        state = GalerkinState(0.0, (1.0,))
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=0.3)  # not a whole step count
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=0.01, stride=7)  # 100 % 7 != 0
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=0.01, stride=0)
        with pytest.raises(InvalidCase):
            integrate(system, state, T=-1.0, dt=0.01)
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=-0.01)

    @pytest.mark.parametrize("T,dt", [(1e308, 1e-3), (1.0, 5e-324)])
    def test_step_count_overflow_is_invalid_case(self, T, dt):
        with pytest.raises(InvalidCase, match="too many steps"):
            integrate(single_system(), GalerkinState(0.0, (1.0,)), T=T, dt=dt)

    @pytest.mark.parametrize("T,dt", [(1e300, 1e-3), (1000.0 + 1e-3, 1e-3)])
    def test_step_cap_is_checked_before_stepping(self, T, dt):
        start = time.perf_counter()
        with pytest.raises(InvalidCase, match=f"MAX_STEPS = {MAX_STEPS}"):
            integrate(single_system(), GalerkinState(0.0, (1.0,)), T=T, dt=dt)
        assert time.perf_counter() - start < 1.0

    def test_step_cap_admits_exactly_max_steps(self):
        # a horizon of MAX_STEPS steps passes the cap and fails only on
        # the stride check that follows it
        with pytest.raises(InvalidCase, match="output stride"):
            integrate(single_system(), GalerkinState(0.0, (1.0,)),
                      T=MAX_STEPS * 1e-3, dt=1e-3, stride=7)

    def test_state_size_guard(self):
        with pytest.raises(InvalidCase):
            integrate(single_system(), GalerkinState(0.0, (1.0, 2.0)), T=1.0, dt=0.01)


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------


class TestRhs:
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_matches_einsum_reference(self, k):
        rng = np.random.default_rng(k)
        for _ in range(5):
            tensor = rng.standard_normal((k, k, k))
            lam = rng.uniform(0.0, 10.0, k)
            a = rng.standard_normal(k)
            ref = -(lam * a) - np.einsum("ijk,i,j->k", tensor, a, a)
            got = _rhs(_pair_terms(lam, tensor), np.append(a, 1.0))
            assert got[-1] == 0.0
            got = got[:-1]
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("spec", C_PICK_WALLS, ids=str)
    def test_matches_the_dense_route_on_a_c_pick_basis(self, spec):
        system = c_pick_system(spec)
        lam = np.asarray(system.eigenvalues)
        terms = _pair_terms(lam, system.tensor)
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1.0, 1e3):
            a = scale * rng.uniform(-1.0, 1.0, system.size)
            ref = dense_rhs(lam, system.tensor, a)
            got = _rhs(terms, np.append(a, 1.0))[:-1]
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestEnergyReport:
    def test_single_mode_energy_decay(self):
        system = single_system()
        traj = integrate(system, GalerkinState(0.0, (0.9,)), T=1.0, dt=0.01, stride=10)
        report = energy_report(system, traj)
        for row in report:
            expected = 0.5 * 0.9**2 * math.exp(-2 * LAM_110 * row["t"])
            assert row["kinetic"] == pytest.approx(expected, rel=1e-5)
            assert row["balance_residual"] < 1e-8

    def test_zero_state_rows(self):
        system = c_triad()
        report = energy_report(system, [GalerkinState(0.0, (0.0, 0.0, 0.0))])
        assert report == [
            {"t": 0.0, "kinetic": 0.0, "dissipation": 0.0, "balance_residual": 0.0}
        ]

    def test_nonlinear_run_energy_monotone(self):
        system = c_triad()
        traj = integrate(
            system, GalerkinState(0.0, (0.5, -0.4, 0.3)), T=2.0, dt=0.01, stride=10
        )
        report = energy_report(system, traj)
        kinetic = [row["kinetic"] for row in report]
        assert all(a >= b - 1e-12 for a, b in zip(kinetic, kinetic[1:]))
        assert max(row["balance_residual"] for row in report) < 1e-8

    @pytest.mark.parametrize("coeffs", [(0.3,), (0.3, 0.2, -0.1, 0.0)], ids=repr)
    def test_rejects_a_state_of_the_wrong_size(self, coeffs):
        with pytest.raises(InvalidCase, match=f"state has {len(coeffs)} amplitudes "
                           "for a basis of size 3"):
            energy_report(c_triad(), [GalerkinState(0.0, coeffs)])

    def test_dissipation_is_eigenvalue_weighted(self):
        system = c_triad()
        state = GalerkinState(0.0, (0.3, 0.2, -0.1))
        row = energy_report(system, [state])[0]
        expected = sum(
            lam * c * c for lam, c in zip(system.eigenvalues, state.coeffs)
        )
        assert row["dissipation"] == pytest.approx(expected, rel=1e-14)


def strain_norm(system, state):
    """L2 norm of the symmetric velocity gradient at one trajectory state."""
    combo = PlanarField.zero()
    for amp, mode in zip(state.coeffs, system.basis):
        if amp != 0.0:
            combo = combo + PlanarField.from_mode(mode).scale(amp)
    strain_sq, _ = strain_identity(combo)
    return math.sqrt(max(strain_sq, 0.0))


class TestStrainBound:
    def test_small_data_strain_never_grows(self):
        system = c_triad()
        traj = integrate(
            system, GalerkinState(0.0, (0.05, -0.04, 0.03)), T=1.0, dt=0.01, stride=25
        )
        strains = [strain_norm(system, s) for s in traj]
        assert all(s <= strains[0] * 1.01 for s in strains)
        assert strains[-1] < strains[0]  # it decays outright


# ---------------------------------------------------------------------------
# explicit closed-form solutions
# ---------------------------------------------------------------------------


class TestExplicitSolution:
    def test_rejects_non_iterable_indices(self):
        with pytest.raises(InvalidCase, match="indices must be a list"):
            explicit_solution(
                SolutionFamily.SINGLE, friction=B1, indices=5,
                gammas=[1.0], coeffs="matched", t=0.0,
            )

    @pytest.mark.parametrize("gammas,t", [
        ([10**400], 0.0), (["1"], 0.0), ([1.0], 10**400), ([1.0], "0"), (1.0, 0.0),
        (None, 0.0),
    ], ids=repr)
    def test_rejects_non_numbers(self, gammas, t):
        with pytest.raises(InvalidCase):
            explicit_solution(
                SolutionFamily.SINGLE, friction=B1, indices=[(1, 1, 0)],
                gammas=gammas, coeffs="matched", t=t,
            )

    def test_single_mode_headline_value(self):
        state = explicit_solution(
            SolutionFamily.SINGLE,
            friction=B1,
            indices=[(1, 1, 0)],
            gammas=[1.0],
            coeffs="matched",
            t=1.0,
        )
        assert state.coeffs[0] == pytest.approx(0.0646, abs=5e-3)
        assert state.coeffs[0] == pytest.approx(math.exp(-LAM_110), rel=1e-14)

    def test_time_zero_returns_gammas(self):
        state = explicit_solution(
            "mono",
            friction=B1,
            indices=[(0, 1, 0), (0, 1, 1)],
            gammas=[0.4, -0.2],
            coeffs="ad",
            t=0.0,
        )
        assert state.coeffs == (0.4, -0.2)

    def test_two_mode_shear_at_half_time(self):
        # eigenvalues 1.74 and 5.12 to 2 d.p.; decay factors e^-0.87, e^-2.56
        state = explicit_solution(
            SolutionFamily.MONO,
            friction=B1,
            indices=[(0, 1, 0), (0, 1, 1)],
            gammas=[1.0, 1.0],
            coeffs="ad",
            t=0.5,
        )
        assert state.coeffs[0] == pytest.approx(math.exp(-0.87), abs=1e-3)
        assert state.coeffs[1] == pytest.approx(math.exp(-2.56), abs=1e-3)

    def test_orders_by_eigenvalue(self):
        state = explicit_solution(
            SolutionFamily.MONO,
            friction=B1,
            indices=[(0, 1, 1), (0, 1, 0)],  # deliberately reversed
            gammas=[2.0, 1.0],
            coeffs="ad",
            t=0.0,
        )
        assert state.coeffs == (1.0, 2.0)

    def test_matches_integrator(self):
        indices = [(0, 1, 0), (0, 2, 0), (0, 1, 1)]
        gammas = (1.0, -0.7, 0.4)
        system = assemble(indices, B1, "ad")
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3)
        closed = explicit_solution(
            SolutionFamily.MONO,
            friction=B1,
            indices=indices,
            gammas=gammas,
            coeffs="ad",
            t=1.0,
        )
        for got, want in zip(traj[-1].coeffs, closed.coeffs):
            assert abs(got - want) < 1e-6

    def test_hypothesis_guards(self):
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # single family takes exactly one index
                SolutionFamily.SINGLE,
                friction=B1,
                indices=[(1, 1, 0), (1, 2, 0)],
                gammas=[1.0, 1.0],
                coeffs="matched",
                t=0.5,
            )
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # unmatched pick self-advects
                SolutionFamily.SINGLE,
                friction=B1,
                indices=[(1, 1, 0)],
                gammas=[1.0],
                coeffs="ab",
                t=0.5,
            )
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # shear family needs m = 0
                SolutionFamily.MONO,
                friction=B1,
                indices=[(1, 1, 0)],
                gammas=[1.0],
                coeffs="ad",
                t=0.5,
            )
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # crossflow slots forbidden in the shear family
                SolutionFamily.MONO,
                friction=B1,
                indices=[(0, 1, 0)],
                gammas=[1.0],
                coeffs="ab",
                t=0.5,
            )

    def test_rejects_duplicate_entries(self):
        with pytest.raises(InvalidCase, match="duplicate basis entry"):
            explicit_solution(
                "mono", friction=B1, indices=[(0, 1, 0), (0, 1, 0)],
                gammas=[1.0, 1.0], coeffs="ad", t=0.0,
            )

    def test_input_validation(self):
        with pytest.raises(InvalidCase):
            explicit_solution(
                "exotic", friction=B1, indices=[(0, 1, 0)], gammas=[1.0], t=0.0
            )
        with pytest.raises(InvalidCase):
            explicit_solution(
                SolutionFamily.MONO,
                friction=B1,
                indices=[(0, 1, 0)],
                gammas=[1.0, 2.0],
                coeffs="ad",
                t=0.0,
            )
        with pytest.raises(InvalidCase):
            explicit_solution(
                SolutionFamily.MONO,
                friction=B1,
                indices=[(0, 1, 0)],
                gammas=[1.0],
                coeffs="ad",
                t=-1.0,
            )

    @pytest.mark.parametrize("family", [SolutionFamily.MONO, "mono", " Mono ", "MONO\n"],
                             ids=repr)
    def test_family_by_member_or_name(self, family):
        state = explicit_solution(family, friction=B1, indices=[(0, 1, 0)],
                                  gammas=[1.0], coeffs="ad", t=0.0)
        assert state.coeffs == (1.0,)

    @pytest.mark.parametrize("family", [
        3, None, PressureFamily.CONSTANT, "mon o",
        PurePath("mono"),   # only a str or a member names a family; once read by str()
    ], ids=repr)
    def test_rejects_an_unknown_family(self, family):
        with pytest.raises(InvalidCase, match=f"unknown solution family {re.escape(repr(family))}; "
                                              r"known: \['mono', 'single'\]"):
            explicit_solution(family, friction=B1, indices=[(0, 1, 0)],
                              gammas=[1.0], coeffs="ad", t=0.0)

    def test_rejects_a_pick_without_a_mode(self):
        # the a slot vanishes on the (0, 0) level: nothing decays there
        with pytest.raises(ZeroMode):
            explicit_solution("mono", friction=B1, indices=[(0, 0, 0)],
                              gammas=[1.0], coeffs=[[1, 0, 0, 0]], t=0.5)


def convection(system):
    """(v . grad) v for unit amplitudes on every basis mode."""
    total = PlanarField.zero()
    for advecting in system.basis:
        for advected in system.basis:
            total = total + convect(advecting, advected)
    return total


class TestExactness:
    """Which zero-tensor decays solve the full Navier-Stokes equations."""

    B13 = Friction.finite(1.3)

    @pytest.mark.parametrize("indices,policy", [
        ([(1, 1, 0)], "matched"),
        ([(0, 1, 0), (0, 2, 0), (0, 1, 1)], "ad"),
    ], ids=["single", "mono"])
    def test_explicit_families_have_zero_convection(self, indices, policy):
        assert convection(assemble(indices, self.B13, policy)).norm() == 0.0

    @pytest.mark.parametrize("policy,projected", [
        ("ab", 0.28), ("ad", 0.28), ("bd", 0.24),
    ])
    def test_two_slot_decay_holds_only_for_the_truncation(self, policy, projected):
        system = assemble([(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)], self.B13, policy)
        assert float(np.max(np.abs(system.tensor))) == 0.0
        assert leray_project(convection(system)).norm() == pytest.approx(projected, abs=5e-3)


# ---------------------------------------------------------------------------
# manifest-driven runs
# ---------------------------------------------------------------------------


def single_manifest(**extra):
    manifest = {
        "friction": 1.0,
        "indices": [[1, 1, 0]],
        "gammas": [1.0],
        "coeffs": "matched",
        "dt": 1e-3,
        "T": 1.0,
    }
    manifest.update(extra)
    return manifest


class TestRunSimulation:
    def test_single_mode_run(self):
        result = run_simulation(single_manifest(stride=100))
        exact = math.exp(-LAM_110)
        final = result.trajectory[-1].coeffs[0]
        assert abs(final - exact) / exact < 1e-9
        assert result.summary["friction"] == "1"
        assert result.summary["steps"] == 1000
        assert result.summary["dropped_tail"] == 0.0
        assert result.summary["final_energy"] == pytest.approx(
            0.5 * exact**2, rel=1e-8
        )

    def test_summary_of_a_numpy_pick_is_json(self):
        # a pick built from numpy scalars reaches the summary as plain floats
        pick = PlanarCoeffs(a=np.float32(1.0), b=1, c=np.float32(-1.0), d=1)
        result = run_simulation(single_manifest(coeffs=[pick], T=0.01))
        assert result.summary["coeffs"] == [[1.0, 1.0, -1.0, 1.0]]
        assert json.loads(json.dumps(result.summary))["coeffs"] == [[1.0, 1.0, -1.0, 1.0]]

    def test_pair_terms_are_built_once_per_system(self, monkeypatch):
        # integrate and energy_report share one scan of the K^3 tensor
        shapes = []

        def counting(lam, tensor):
            shapes.append(tensor.shape)
            return _pair_terms(lam, tensor)

        monkeypatch.setattr("slipchan.galerkin._pair_terms", counting)
        result = run_simulation(single_manifest(stride=100))
        assert shapes == [(1, 1, 1)]

    def test_deterministic(self):
        a = run_simulation(single_manifest(stride=10))
        b = run_simulation(single_manifest(stride=10))
        assert [s.coeffs for s in a.trajectory] == [s.coeffs for s in b.trajectory]

    def test_truncation_records_dropped_tail(self):
        manifest = {
            "friction": "1",
            "indices": [[0, 1, 0], [0, 2, 0], [0, 1, 1]],
            "gammas": [1.0, 0.5, 0.25],
            "coeffs": "ad",
            "dt": 0.01,
            "T": 0.5,
            "truncate": 2,
            "seed": 42,
        }
        result = run_simulation(manifest)
        assert result.system.size == 2
        # modes sort by eigenvalue: (0,1,0) 1.74, (0,2,0) 4.74, (0,1,1) 5.12;
        # the dropped third contributes lambda * gamma^2
        lam_dropped = 5.115858365694526
        assert result.summary["dropped_tail"] == pytest.approx(
            lam_dropped * 0.25**2, rel=1e-12
        )
        assert result.summary["seed"] == 42

    def test_a_pick_without_a_mode_in_the_dropped_tail_raises(self):
        # (0, 0, 1) has no a-slot mode; truncation must not hide that
        manifest = single_manifest(
            indices=[[1, 1, 0], [0, 0, 1]], gammas=[1.0, 1.0],
            coeffs=[[0, 0, 1, 0], [1, 0, 0, 0]], truncate=1)
        with pytest.raises(ZeroMode):
            run_simulation(manifest)

    def test_one_root_solve_per_basis_index(self, monkeypatch):
        calls = []
        solve = eigensolver.solve_details

        def counted(index, friction):
            calls.append(index)
            return solve(index, friction)

        for module in (eigensolver, modes):
            monkeypatch.setattr(module, "solve_details", counted)
        modes._profiles.cache_clear()  # an earlier test may have built these steps
        indices = [[1, 1, 0], [1, 2, 0], [2, 1, 0]]
        run_simulation(single_manifest(indices=indices, gammas=[1.0, 0.5, 0.25],
                                       coeffs="c", truncate=2))
        assert calls == [WaveIndex(*ix) for ix in indices]

    def test_system_is_built_by_assemble(self, monkeypatch):
        # one assemble call per run, on the kept entries in eigenvalue order
        calls = []

        def spied(indices, friction, coeffs="ab"):
            calls.append((list(indices), friction, list(coeffs)))
            return assemble(indices, friction, coeffs)

        monkeypatch.setattr("slipchan.galerkin.assemble", spied)
        indices = [[2, 1, 0], [1, 1, 1], [1, 2, 0], [1, 1, 0], [2, 2, 0]]
        picks = [[0, 0, 1, 0], [0.2, 0, 1, 0], [0, 0, 1, 0], [1, -0.5, 0.3, 2], [0, 0, 1, 0]]
        result = run_simulation(single_manifest(
            indices=indices, gammas=[0.1, 0.2, 0.3, 0.4, 0.5], coeffs=picks, truncate=4, T=0.01))
        assert len(calls) == 1
        kept, friction, coeffs = calls[0]
        assert [(m.index, m.coeffs) for m in result.system.basis] == list(zip(kept, coeffs))
        assert len(kept) == 4
        again = assemble(kept, friction, coeffs)
        assert again.basis == result.system.basis
        assert again.tensor.tobytes() == result.system.tensor.tobytes()
        assert np.count_nonzero(again.tensor) > 0

    def test_missing_key_rejected(self):
        for key in ("friction", "indices", "gammas", "dt", "T"):
            manifest = single_manifest()
            del manifest[key]
            with pytest.raises(InvalidCase):
                run_simulation(manifest)

    def test_truncate_bounds(self):
        with pytest.raises(InvalidCase):
            run_simulation(single_manifest(truncate=0))
        with pytest.raises(InvalidCase):
            run_simulation(single_manifest(truncate=2))

    def test_gamma_count_mismatch(self):
        with pytest.raises(InvalidCase):
            run_simulation(single_manifest(gammas=[1.0, 2.0]))


class TestManifestAndCsv:
    def test_load_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(single_manifest()))
        assert load_manifest(path) == single_manifest()

    def test_load_manifest_rejects_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InvalidCase):
            load_manifest(path)

    def test_csv_writers(self, tmp_path):
        result = run_simulation(single_manifest(stride=250))
        tpath = tmp_path / "trajectory.csv"
        epath = tmp_path / "energy.csv"
        write_trajectory_csv(tpath, result.system, result.trajectory, result.report)
        write_energy_csv(epath, result.report)

        with open(tpath, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "A_1", "energy", "dissipation"]
        assert len(rows) == 1 + len(result.trajectory)
        # full-precision roundtrip of the terminal amplitude
        assert float(rows[-1][1]) == result.trajectory[-1].coeffs[0]

        with open(epath, newline="") as handle:
            erows = list(csv.reader(handle))
        assert erows[0] == ["t", "kinetic", "dissipation", "balance_residual"]
        assert float(erows[-1][1]) == result.report[-1]["kinetic"]

    def test_csv_bytes_are_the_former_writers(self, tmp_path):
        # the two writers each had their own copy of the row rule
        def former_trajectory(path, system, trajectory, report):
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t"] + [f"A_{k + 1}" for k in range(system.size)]
                                + ["energy", "dissipation"])
                for state, row in zip(trajectory, report):
                    writer.writerow([repr(state.t)] + [repr(c) for c in state.coeffs]
                                    + [repr(row["kinetic"]), repr(row["dissipation"])])

        def former_energy(path, report):
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t", "kinetic", "dissipation", "balance_residual"])
                for row in report:
                    writer.writerow([repr(row["t"]), repr(row["kinetic"]),
                                     repr(row["dissipation"]), repr(row["balance_residual"])])

        result = run_simulation({"friction": 1.3, "indices": [[1, 1, 0], [1, 2, 0], [2, 1, 0]],
                                 "gammas": [0.5, -0.25, 1e-3], "coeffs": "c", "dt": 1e-3,
                                 "T": 0.05, "stride": 5})
        args = (result.system, result.trajectory, result.report)
        write_trajectory_csv(tmp_path / "new_t.csv", *args)
        former_trajectory(tmp_path / "old_t.csv", *args)
        write_energy_csv(tmp_path / "new_e.csv", result.report)
        former_energy(tmp_path / "old_e.csv", result.report)
        for name in ("t", "e"):
            new, old = ((tmp_path / f"{which}_{name}.csv").read_bytes() for which in ("new", "old"))
            assert new == old and new.count(b"\n") > 2


class TestParseFrictionSpec:
    def test_names_and_numbers(self):
        assert Friction.parse("navier").is_navier
        assert Friction.parse("dirichlet").is_dirichlet
        assert Friction.parse("inf").is_dirichlet
        assert Friction.parse("2.5").beta == 2.5
        assert Friction.parse(0).is_navier
        assert Friction.parse(0.0).is_navier
        assert Friction.parse(math.inf).is_dirichlet
        assert Friction.parse(10).beta == 10.0
        assert Friction.parse({"beta": 3.0}).beta == 3.0
        assert Friction.parse(B1) is B1

    def test_rejects_garbage(self):
        with pytest.raises(InvalidCase):
            Friction.parse("sticky")
        with pytest.raises(InvalidCase):
            Friction.parse({"alpha": 1.0})
        with pytest.raises(InvalidCase):
            Friction.parse(True)
        with pytest.raises(InvalidCase):
            Friction.parse(None)
